package traffic

import (
	"fmt"

	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
	"mccmesh/internal/simnet"
	"mccmesh/internal/telemetry"
)

// One trial runs on either of simnet's event loops through the same driver. A
// sequential trial is one run state on a simnet.Network, writing straight into
// the Result. A sharded trial splits the mesh into contiguous slab shards
// (mesh.SlabPartition) and gives each a private run state — its own packet
// pool, Result accumulators, provider cache and information-model instance —
// over a shared node RNG table; a simnet.ShardedNetwork drives them under the
// per-tick barrier. Seeding, the fault and churn schedule, the phase
// accounting and the final merge are the same code either way.
//
// Bit-identical parity between the two follows from three facts:
//
//   - every stream of randomness is per-node (injection gaps, destinations)
//     or stateless (the Seeded policy), and a node lives in exactly one
//     shard, so each stream is consumed in the same order as sequentially;
//   - the measured aggregates (counters, latency/hops histograms, per-phase
//     tallies) are order-independent sums over per-packet facts that depend
//     only on per-node event order, which the barrier protocol preserves;
//   - churn and fault callbacks run on the coordinator at the tick barrier,
//     before that tick's deliveries — the same "control first" order the
//     sequential queue gives setup-enqueued control events — so every shard
//     observes fault state change at identical points of the timeline.
//
// What is NOT preserved: packet ids (per-shard counters; only traces read
// them, and tracing pins the sequential loop) and the queue-shape telemetry
// counters (each shard has its own calendar; sums differ from one big one).

// eventLoop is the simulator surface a trial drives, implemented by both
// *simnet.Network and *simnet.ShardedNetwork.
type eventLoop interface {
	Kind(name string) simnet.KindID
	Now() simnet.Time
	At(t simnet.Time, fn func())
	ContextOf(id int32) *simnet.Context
	Run() (simnet.Stats, error)
}

// trial is the coordinator state of one Engine.Run: the run states, the churn
// bookkeeping and the open measurement phase. Fault and churn callbacks run
// single-threaded on either event loop and fan model changes out to every
// state.
type trial struct {
	e      *Engine
	net    eventLoop
	states []*run
	// shardOf maps a node to the index of its owning state; nil when
	// sequential (one state owns every node).
	shardOf func(id int32) int
	res     *Result

	// Churn-timeline state, nil/zero without Options.Timeline. groups records
	// the nodes each failure group took down so its repair restores exactly
	// them. The open phase is closed into phases at every churn event inside
	// the measurement window and once more at the end of the run; its
	// delivery tally accumulates in the states (run.phaseDelivered).
	groups       [][]grid.Point
	phases       []PhaseStat
	phaseStart   simnet.Time
	phaseHealthy int
}

// Run executes one trial with the given seed and returns its measurements.
// Everything — injection gaps, destinations, tie-breaking, fault placement —
// derives deterministically from the seed, so identical seeds give identical
// results wherever the trial runs, sharded or not. A trial that exhausts the
// simulator's event budget reports the failure in Result.Err instead of
// panicking.
func (e *Engine) Run(seed uint64) *Result {
	t := &trial{e: e, res: &Result{
		Model:        e.model.Name(),
		Pattern:      e.pattern.Name(),
		Rate:         e.opts.Rate,
		HealthyNodes: e.mesh.NodeCount() - e.mesh.FaultCount(),
		Warmup:       e.opts.Warmup,
		Window:       e.opts.Window,
	}}
	// tmpl holds what every run state shares: one RNG stream per node (only
	// the state owning the node draws from it), the stateless policy and the
	// churn timer table.
	tmpl := run{
		e:       e,
		nodeRng: make([]rng.Rand, e.mesh.NodeCount()),
		policy:  e.opts.Policy,
		horizon: e.opts.Warmup + e.opts.Window,
	}
	for i := range tmpl.nodeRng {
		tmpl.nodeRng[i].Seed(rng.Derive(seed, uint64(i)))
	}
	if tmpl.policy == nil {
		tmpl.policy = routing.Seeded{Seed: rng.Derive(seed, 1<<40)}
	}
	if e.opts.Timeline != nil {
		tmpl.nextInject = make([]simnet.Time, e.mesh.NodeCount())
	}
	if err := t.start(&tmpl, seed); err != nil {
		t.res.Err = err
		return t.res
	}
	injectID, packetID := t.net.Kind(kindInject), t.net.Kind(kindPacket)
	for _, st := range t.states {
		st.injectID, st.packetID = injectID, packetID
	}
	t.schedule(seed)
	sim, err := t.net.Run()
	t.finish(sim, err)
	return t.res
}

// fork returns a fresh run state routing against model and accumulating into
// res, sharing the template's configuration and per-node tables.
func (tmpl *run) fork(model InfoModel, res *Result) *run {
	st := *tmpl
	st.model, st.res = model, res
	st.pool = make([]packet, 0, 1024)
	st.dirs = make([]grid.Direction, 0, 6)
	return &st
}

// instrument gives the state its own telemetry sink and threads it through
// the state's information model.
func (st *run) instrument() {
	st.tel = telemetry.NewSink()
	if inst, ok := st.model.(telemetry.Instrumentable); ok {
		inst.SetTelemetry(st.tel)
	}
}

// start builds the trial's run states and event loop. The trial shards when
// Options.Shards > 1 and ShardModel is set, unless tracing pins it to one
// queue (packet traces are defined over the global delivery order a single
// queue provides) or the mesh has too few layers to split at least two ways.
// Sequentially, one state routes against the engine's own model and
// accumulates straight into the Result on a simnet.Network; sharded, every
// slab gets a state with a private ShardModel instance and Result on a
// simnet.ShardedNetwork.
func (t *trial) start(tmpl *run, seed uint64) error {
	o := t.e.opts
	var slabs []mesh.IDRange
	if o.Shards > 1 && o.ShardModel != nil && o.TraceEvery == 0 {
		slabs = mesh.SlabPartition(t.e.mesh, o.Shards)
	}
	if len(slabs) < 2 {
		st := tmpl.fork(t.e.model, t.res)
		if o.Telemetry || o.TraceEvery > 0 {
			st.instrument()
		}
		if o.TraceEvery > 0 {
			capacity := o.TraceCap
			if capacity <= 0 {
				capacity = 256
			}
			st.trace = telemetry.NewTraceSink(rng.Derive(seed, traceSalt), o.TraceEvery, capacity, st.tel)
		}
		t.states = []*run{st}
		t.net = simnet.New(t.e.mesh, st, simnet.Options{LinkDelay: o.LinkDelay, MaxEvents: o.MaxEvents, Telemetry: st.tel})
		return nil
	}
	handlers := make([]simnet.Handler, len(slabs))
	var sinks []*telemetry.Sink
	if o.Telemetry {
		sinks = make([]*telemetry.Sink, len(slabs))
	}
	states := make([]*run, len(slabs))
	for s := range slabs {
		model, err := o.ShardModel()
		if err != nil {
			return fmt.Errorf("traffic: building shard %d information model: %w", s, err)
		}
		st := tmpl.fork(model, &Result{})
		if sinks != nil {
			st.instrument()
			sinks[s] = st.tel
		}
		states[s], handlers[s] = st, st
	}
	sn := simnet.NewSharded(t.e.mesh, handlers, slabs, simnet.ShardedOptions{
		LinkDelay: o.LinkDelay,
		MaxEvents: o.MaxEvents,
		Telemetry: sinks,
		// A packet crossing a slab boundary moves between pools at the
		// barrier: copy the value into the destination pool, release the
		// source slot. Single-threaded on the coordinator.
		MigrateRef: func(from, to int, kind simnet.KindID, ref int32) int32 {
			src, dst := states[from], states[to]
			nref := dst.alloc()
			dst.pool[nref] = src.pool[ref]
			src.release(ref)
			return nref
		},
	})
	t.net, t.states, t.shardOf = sn, states, sn.ShardOf
	return nil
}

// schedule enqueues the fault schedule and the churn timeline as control
// callbacks, fault events first.
func (t *trial) schedule(seed uint64) {
	o := t.e.opts
	for i, ev := range o.Faults {
		evRng := rng.New(rng.Derive(seed, uint64(1)<<32+uint64(i)))
		t.net.At(ev.At, func() {
			placed := ev.Inject.Inject(t.e.mesh, evRng)
			for _, st := range t.states {
				st.applyFaults(placed)
			}
			// With a timeline also active, a scheduled injection is a phase
			// boundary too: the healthy-node base of the open phase changed.
			// It is not a timeline event, so Failures stays untouched.
			if t.phases != nil && len(placed) > 0 {
				t.closePhase(t.net.Now())
			}
		})
	}
	if o.Timeline == nil {
		return
	}
	// The step stream (arrival times, repair pairings) derives from one salted
	// generator, each group's placement from its own — so the schedule and the
	// placements are independent deterministic streams.
	steps := o.Timeline.Program(rng.New(rng.Derive(seed, churnProgramSalt)))
	t.groups = make([][]grid.Point, fault.Groups(steps))
	t.phases = make([]PhaseStat, 0, len(steps)+1)
	t.phaseStart = o.Warmup
	t.phaseHealthy = t.res.HealthyNodes
	for i := range steps {
		stp := steps[i]
		var placeRng *rng.Rand
		if !stp.Repair {
			placeRng = rng.New(rng.Derive(seed, churnPlaceSalt+uint64(stp.Group)))
		}
		t.net.At(simnet.Time(stp.At), func() { t.churnStep(stp, placeRng) })
	}
}

// finish folds the simulator statistics and, when sharded, every state's
// accumulators into the Result, then closes the open phase and the telemetry.
func (t *trial) finish(sim simnet.Stats, err error) {
	res := t.res
	res.Err = err
	res.FinalTime = sim.FinalTime
	res.Events = sim.Events
	tel := t.states[0].tel
	if len(t.states) > 1 {
		if tel != nil {
			tel = telemetry.NewSink()
		}
		for _, st := range t.states {
			sres := st.res
			res.Offered += sres.Offered
			res.Skipped += sres.Skipped
			res.Injected += sres.Injected
			res.Delivered += sres.Delivered
			res.Stuck += sres.Stuck
			res.MeasuredInjected += sres.MeasuredInjected
			res.MeasuredDelivered += sres.MeasuredDelivered
			res.Latency.Merge(&sres.Latency)
			res.Hops.Merge(&sres.Hops)
			tel.Merge(st.tel)
		}
	}
	// Injected-in-A-lost-in-B is only visible globally: Lost must come from
	// the merged totals, never from per-shard differences.
	res.Lost = res.Injected - res.Delivered - res.Stuck
	if t.phases != nil {
		// Close the open phase; drain deliveries past the horizon have
		// already been accumulated into it.
		res.Phases = append(t.phases, t.endPhase(max(t.states[0].horizon, t.phaseStart)))
	}
	if tel != nil {
		// Packet and churn totals come from the Result at the end of the run
		// instead of per-packet increments: the hot path pays nothing for
		// counters the aggregates already carry.
		tel.Add(telemetry.PacketsInjected, int64(res.Injected))
		tel.Add(telemetry.PacketsDelivered, int64(res.Delivered))
		tel.Add(telemetry.PacketsStuck, int64(res.Stuck))
		tel.Add(telemetry.PacketsLost, int64(res.Lost))
		tel.Add(telemetry.ChurnFailures, int64(res.Failures))
		tel.Add(telemetry.ChurnRepairs, int64(res.Repairs))
		tel.Add(telemetry.ChurnFailedNodes, int64(res.FailedNodes))
		tel.Add(telemetry.ChurnRepairedNodes, int64(res.RepairedNodes))
		res.Telemetry = tel
	}
	if tr := t.states[0].trace; tr != nil {
		tr.Close()
		res.Traces = tr.Traces()
	}
}

// Derivation salts for the churn timeline's seed streams, disjoint from the
// per-node (dense IDs), policy (1<<40), fault-event (1<<32+i) and injector
// (1<<48) streams.
const (
	churnProgramSalt = uint64(1) << 41
	churnPlaceSalt   = uint64(1) << 42
	// traceSalt keys the packet-trace sampling stream (telemetry).
	traceSalt = uint64(1) << 43
)

// churnStep executes one materialised timeline step: place a failure group or
// repair one, push the change through every state's model, and close the
// current measurement phase.
func (t *trial) churnStep(stp fault.Step, placeRng *rng.Rand) {
	m := t.e.mesh
	now := t.net.Now()
	if stp.Repair {
		pts := t.groups[stp.Group]
		if len(pts) == 0 {
			return // the failure placed nothing (saturated mesh)
		}
		t.groups[stp.Group] = nil
		m.RemoveFaults(pts...)
		for _, st := range t.states {
			st.repairFaults(pts)
		}
		t.res.Repairs++
		t.res.RepairedNodes += len(pts)
		// Restart the injection clock of every repaired node whose pending
		// timer was dropped while it was faulty (delivery tick strictly in
		// the past); a timer still in flight keeps the chain alive on its
		// own. A timer landing on the repair tick itself is never dropped —
		// control callbacks run before any same-tick delivery on either event
		// loop, so the node is healthy by the time it delivers — hence the
		// strict comparison (<= would arm a second chain).
		for _, p := range pts {
			id := m.ID(p)
			if st := t.owner(id); st.nextInject[id] < now {
				st.scheduleInjection(t.net.ContextOf(id))
			}
		}
	} else {
		placed := stp.Inject.Inject(m, placeRng)
		if len(placed) == 0 {
			return
		}
		t.groups[stp.Group] = placed
		for _, st := range t.states {
			st.applyFaults(placed)
		}
		t.res.Failures++
		t.res.FailedNodes += len(placed)
	}
	t.closePhase(now)
}

// owner returns the run state owning node id.
func (t *trial) owner(id int32) *run {
	if t.shardOf == nil {
		return t.states[0]
	}
	return t.states[t.shardOf(id)]
}

// closePhase ends the open measurement phase at a churn event. Events at or
// before the warmup only rebase the first phase's healthy count; events at or
// past the horizon leave the final phase open (it closes when the run ends).
func (t *trial) closePhase(now simnet.Time) {
	healthy := t.e.mesh.NodeCount() - t.e.mesh.FaultCount()
	if now <= t.e.opts.Warmup {
		t.phaseHealthy = healthy
		return
	}
	if now >= t.states[0].horizon {
		return
	}
	if now == t.phaseStart {
		// A second churn event on the same tick: merge the boundaries — the
		// next phase starts from the combined post-event state instead of
		// recording a zero-length phase.
		t.phaseHealthy = healthy
		return
	}
	t.phases = append(t.phases, t.endPhase(now))
	t.phaseStart = now
	t.phaseHealthy = healthy
}

// endPhase returns the open phase ended at end, draining (summing and
// resetting) every state's delivery tally into it.
func (t *trial) endPhase(end simnet.Time) PhaseStat {
	p := PhaseStat{Start: t.phaseStart, End: end, Healthy: t.phaseHealthy}
	for _, st := range t.states {
		p.Delivered += st.phaseDelivered
		p.LatencySum += st.phaseLatSum
		st.phaseDelivered, st.phaseLatSum = 0, 0
	}
	return p
}
