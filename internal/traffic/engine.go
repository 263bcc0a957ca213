package traffic

import (
	"fmt"
	"math"

	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
	"mccmesh/internal/simnet"
	"mccmesh/internal/stats"
	"mccmesh/internal/telemetry"
)

// Envelope kinds used by the engine.
const (
	kindInject = "inject"
	kindPacket = "pkt"
)

// FaultEvent injects additional faults at a fixed simulated time, modelling
// nodes dying under load. The injector draws from a deterministic per-event
// generator, so fault schedules do not perturb the traffic streams.
type FaultEvent struct {
	At     simnet.Time
	Inject fault.Injector
}

// Options configure one engine run.
type Options struct {
	// Rate is the injection probability per healthy node per tick, i.e. the
	// offered load. Inter-arrival gaps are geometric with this success rate.
	Rate float64
	// Warmup is the tick count before measurement starts; packets injected
	// during warmup are routed but not measured.
	Warmup simnet.Time
	// Window is the measurement duration. Injection stops at Warmup+Window
	// and the run drains the in-flight packets.
	Window simnet.Time
	// Policy picks among allowed forwarding directions. Defaults to a Seeded
	// policy derived from the run seed.
	Policy routing.Policy
	// LinkDelay and MaxEvents are passed to the simulator.
	LinkDelay simnet.Time
	MaxEvents int
	// Faults is the dynamic fault schedule (injections only, never repaired).
	Faults []FaultEvent
	// Timeline is the stochastic fault-churn process: failure groups arrive
	// and are later repaired while traffic is in flight. Fault information
	// flows through the models' incremental FaultApplier / FaultRepairer
	// paths, nodes stop injecting while they are down and resume on repair,
	// and the measurement window is split into phases at every churn event
	// (Result.Phases).
	Timeline *fault.Timeline
	// PatternParams parameterises a pattern resolved by name (e.g.
	// {"fraction": 0.2, "target": [5, 5, 5]} for hotspot); see the Patterns
	// registry for each pattern's schema. It is consumed by callers that
	// build the pattern for the engine — the facade's NewTrafficEngine and
	// the scenario runner — and ignored when an explicit Pattern value is
	// passed to NewEngine.
	PatternParams map[string]any
	// Telemetry enables the counter sink for this run: the engine creates a
	// telemetry.Sink, threads it through the information model, the routing
	// field caches and the simulator queue, and returns it in
	// Result.Telemetry. Off by default — the disabled instrumentation costs
	// one predicted nil-check branch per hook.
	Telemetry bool
	// TraceEvery samples one packet in every TraceEvery for full hop-by-hop
	// tracing (0 disables tracing). Sampling is keyed off the per-trial seed
	// and the packet id, so the sampled set — and the traces themselves — are
	// identical at any worker count. Implies Telemetry.
	TraceEvery int
	// TraceCap bounds the trace ring buffer (default 256); older traces are
	// evicted when it overflows.
	TraceCap int
	// Shards splits the trial spatially into up to Shards slab shards (see
	// mesh.SlabPartition), each owning its own event queue and packet pool,
	// synchronised conservatively at a per-tick barrier. The measured results
	// are bit-identical to the sequential path at any shard count. 0 or 1 —
	// the default — runs the trial on a single simnet.Network, with no
	// barrier; so does tracing (TraceEvery > 0), because packet traces are
	// defined over the global delivery order a single queue provides, and so
	// does a mesh too thin to split two ways. Requires ShardModel.
	Shards int
	// ShardModel builds one information model instance per shard: model state
	// (labellings, routing field caches) is not concurrency-safe, so each
	// shard routes against a private copy. Required when Shards > 1; when nil
	// the engine stays sequential.
	ShardModel func() (InfoModel, error)
}

// Result aggregates one engine run.
type Result struct {
	// Model, Pattern and Rate echo the run configuration.
	Model   string
	Pattern string
	Rate    float64
	// HealthyNodes is the healthy-node count at the start of the run (the
	// throughput normalisation base).
	HealthyNodes int
	// Warmup, Window and FinalTime describe the timeline; FinalTime includes
	// the post-horizon drain of in-flight packets.
	Warmup, Window, FinalTime simnet.Time
	// Offered counts injection attempts; Skipped those without a valid
	// destination; Injected the packets actually sent.
	Offered, Skipped, Injected int
	// Delivered, Stuck and Lost partition the injected packets: delivered to
	// their destination, stopped with no allowed forwarding direction, or
	// dropped because a node on their path (or their destination) died.
	Delivered, Stuck, Lost int
	// MeasuredInjected / MeasuredDelivered count the packets injected inside
	// the measurement window (and their deliveries, whenever they complete).
	MeasuredInjected, MeasuredDelivered int
	// Latency and Hops are histograms over the measured delivered packets, in
	// ticks and hops respectively.
	Latency stats.Histogram
	Hops    stats.Histogram
	// Events is the total number of simulator events processed.
	Events int
	// Failures and Repairs count the churn-timeline events that fired;
	// FailedNodes and RepairedNodes total the nodes they took down and
	// restored. All zero without Options.Timeline.
	Failures, Repairs          int
	FailedNodes, RepairedNodes int
	// Phases splits the measurement window at every churn event: per-phase
	// measured deliveries and latency, the per-phase resolution the churn
	// experiments read. Nil without Options.Timeline.
	Phases []PhaseStat
	// Err is non-nil when the simulator aborted the trial — today that means
	// the event budget ran out (errors.Is(Err, simnet.ErrEventBudget)). The
	// counters above cover the prefix that did run; sweep aggregation
	// (Collect) and the scenario report surface the failure per cell instead
	// of killing the process.
	Err error
	// Telemetry is the counter sink of the run, nil unless Options.Telemetry
	// (or tracing) was enabled.
	Telemetry *telemetry.Sink
	// Traces holds the sampled packet traces, nil unless Options.TraceEvery
	// was set.
	Traces []telemetry.Trace
}

// PhaseStat is the traffic measured between two consecutive churn events (or
// a churn event and a window edge): deliveries are assigned to the phase they
// complete in, so a phase shows the network as it was — post-failure
// degradation, post-repair recovery — at per-event resolution.
type PhaseStat struct {
	// Start and End bound the phase in simulated ticks; deliveries draining
	// after the measurement horizon land in the final phase.
	Start, End simnet.Time
	// Healthy is the healthy-node count at the phase start (the throughput
	// normalisation base of this phase).
	Healthy int
	// Delivered counts measured packets delivered inside the phase;
	// LatencySum totals their latencies in ticks.
	Delivered  int
	LatencySum int64
}

// Throughput returns the phase's deliveries per healthy node per tick.
func (p PhaseStat) Throughput() float64 {
	if p.End <= p.Start || p.Healthy == 0 {
		return 0
	}
	return float64(p.Delivered) / float64(p.End-p.Start) / float64(p.Healthy)
}

// MeanLatency returns the mean latency of the phase's deliveries in ticks.
func (p PhaseStat) MeanLatency() float64 {
	if p.Delivered == 0 {
		return 0
	}
	return float64(p.LatencySum) / float64(p.Delivered)
}

// Throughput returns the accepted traffic: measured deliveries per healthy
// node per tick. At low load it tracks the injection rate; past saturation it
// flattens (or collapses for weak information models).
func (r *Result) Throughput() float64 {
	if r.Window <= 0 || r.HealthyNodes == 0 {
		return 0
	}
	return float64(r.MeasuredDelivered) / float64(r.Window) / float64(r.HealthyNodes)
}

// DeliveredRatio returns the fraction of injected packets that were delivered.
func (r *Result) DeliveredRatio() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Injected)
}

// Engine runs continuous traffic over one mesh. It owns the mesh for the
// duration of Run: the fault schedule mutates it in place.
type Engine struct {
	mesh    *mesh.Mesh
	model   InfoModel
	pattern Pattern
	opts    Options
}

// NewEngine returns an engine over m using the given information model and
// traffic pattern.
func NewEngine(m *mesh.Mesh, model InfoModel, pattern Pattern, opts Options) *Engine {
	if opts.Rate <= 0 {
		opts.Rate = 0.01
	}
	if opts.Rate > 1 {
		opts.Rate = 1
	}
	if opts.Warmup < 0 {
		opts.Warmup = 0
	}
	if opts.Window <= 0 {
		opts.Window = 256
	}
	return &Engine{mesh: m, model: model, pattern: pattern, opts: opts}
}

// run is the per-node handler state of one trial: all of it in a sequential
// trial, one slab shard's worth in a sharded one (see trial).
type run struct {
	e *Engine
	// model is the information model this state routes against: e.model in a
	// sequential trial, a private per-shard instance (Options.ShardModel) in
	// a sharded one.
	model   InfoModel
	res     *Result
	nodeRng []rng.Rand // shared by every state of the trial
	policy  routing.Policy
	horizon simnet.Time
	nextID  int

	// kinds are interned once per run so the hot path never touches strings.
	injectID, packetID simnet.KindID

	// provs caches the per-orientation provider and its one-time
	// DecisionProvider type assertion, so the per-hop loop neither re-asks
	// the model nor re-asserts. Fault events flush it (models may hand out
	// new providers).
	provs [8]provEntry

	// pool holds every in-flight packet by value; envelopes carry pool
	// indices (simnet's Ref fast path) instead of boxed copies. free is the
	// free-list of released slots. Packets dropped inside the simulator (a
	// node on their path died) leak their slot until the run ends, which is
	// bounded by the fault schedule.
	pool []packet
	free []int32

	dirs []grid.Direction // scratch for CandidateDirs, cap 6

	// tel and trace are the run's telemetry sink and trace ring, both nil
	// unless enabled in Options.
	tel   *telemetry.Sink
	trace *telemetry.TraceSink

	// nextInject tracks each node's pending injection-timer delivery tick
	// (shared by every state, nil without Options.Timeline), so a churn
	// repair can tell a timer chain broken by the failure (the timer was
	// dropped while the node was faulty) from one still in flight.
	nextInject []simnet.Time
	// The open phase's delivery tally, drained by the trial at every phase
	// boundary; meaningless (and never read) without Options.Timeline.
	phaseDelivered int
	phaseLatSum    int64
}

// provEntry is one cached per-orientation provider; masked selects the
// packed-decision CandidateMaskID path (every built-in provider), and the
// Provider field the Point fallback for third-party providers without it.
type provEntry struct {
	prov   routing.Provider
	dec    routing.DecisionProvider
	masked bool
}

// packet is the typed, pooled payload of one in-flight packet; the
// orientation is fixed at the source exactly as in Router.Route.
type packet struct {
	id     int
	src    grid.Point
	dst    grid.Point
	dstID  int32
	orient grid.Orientation
	inject simnet.Time
	hops   int
	// traceIdx is the packet's slot in the trace ring, -1 when untraced.
	traceIdx int32
}

// alloc reserves a pool slot, reusing a released one when available.
func (st *run) alloc() int32 {
	if n := len(st.free); n > 0 {
		ref := st.free[n-1]
		st.free = st.free[:n-1]
		return ref
	}
	st.pool = append(st.pool, packet{})
	return int32(len(st.pool) - 1)
}

// release returns a pool slot to the free-list.
func (st *run) release(ref int32) { st.free = append(st.free, ref) }

// applyFaults pushes freshly placed faults through the model's incremental
// path (or a wholesale invalidation) and flushes the cached provider table.
func (st *run) applyFaults(placed []grid.Point) {
	if fa, ok := st.model.(FaultApplier); ok {
		fa.ApplyFaults(placed)
	} else {
		st.model.Invalidate()
	}
	st.provs = [8]provEntry{}
}

// repairFaults is applyFaults for nodes the churn timeline just restored.
func (st *run) repairFaults(pts []grid.Point) {
	if fr, ok := st.model.(FaultRepairer); ok {
		fr.RepairFaults(pts)
	} else {
		st.model.Invalidate()
	}
	st.provs = [8]provEntry{}
}

// Init implements simnet.Handler: every healthy node schedules its first
// injection.
func (st *run) Init(ctx *simnet.Context) { st.scheduleInjection(ctx) }

// scheduleInjection draws a geometric inter-arrival gap for this node's next
// injection and arms a timer, unless the horizon has passed.
func (st *run) scheduleInjection(ctx *simnet.Context) {
	if ctx.Time() >= st.horizon {
		return
	}
	r := &st.nodeRng[ctx.SelfID()]
	gap := geometricGap(r, st.e.opts.Rate)
	if st.nextInject != nil {
		st.nextInject[ctx.SelfID()] = ctx.Time() + gap
	}
	ctx.AfterRef(gap, st.injectID, simnet.NoRef)
}

// geometricGap samples the tick count until the next success of a Bernoulli
// process with probability rate (at least 1).
func geometricGap(r *rng.Rand, rate float64) simnet.Time {
	if rate >= 1 {
		return 1
	}
	u := r.Float64()
	// Invert the geometric CDF; u is in [0,1), so both logs are negative and
	// the ratio is non-negative.
	gap := int64(math.Log1p(-u)/math.Log1p(-rate)) + 1
	if gap < 1 {
		gap = 1
	}
	return simnet.Time(gap)
}

// Receive implements simnet.Handler. It dispatches on the interned KindID;
// packet envelopes carry a pool reference, never a boxed payload.
func (st *run) Receive(ctx *simnet.Context, env *simnet.Envelope) {
	switch env.KindID {
	case st.injectID:
		st.inject(ctx)
		st.scheduleInjection(ctx)
	case st.packetID:
		ref := env.Ref
		if st.pool[ref].dstID == ctx.SelfID() {
			st.deliver(ctx, ref)
			return
		}
		st.forward(ctx, ref)
	default:
		panic(fmt.Sprintf("traffic: unexpected envelope kind %q", env.Kind))
	}
}

// inject generates one packet at this node if the run is still within the
// injection horizon and the pattern yields a destination.
func (st *run) inject(ctx *simnet.Context) {
	if ctx.Time() >= st.horizon {
		return
	}
	st.res.Offered++
	r := &st.nodeRng[ctx.SelfID()]
	self := ctx.Self()
	d, ok := st.e.pattern.Dest(r, ctx.Mesh(), self)
	if !ok {
		st.res.Skipped++
		return
	}
	ref := st.alloc()
	st.pool[ref] = packet{
		id:       st.nextID,
		src:      self,
		dst:      d,
		dstID:    int32(ctx.Mesh().Index(d)),
		orient:   grid.OrientationOf(self, d),
		inject:   ctx.Time(),
		traceIdx: -1,
	}
	if st.trace != nil && st.trace.Sampled(st.nextID) {
		pk := &st.pool[ref]
		pk.traceIdx = st.trace.Begin(pk.id, ctx.SelfID(), pk.dstID, int64(pk.inject))
	}
	st.nextID++
	st.res.Injected++
	if ctx.Time() >= st.e.opts.Warmup {
		st.res.MeasuredInjected++
	}
	st.forward(ctx, ref)
}

// forward advances a packet one hop using the information model, or records it
// as stuck when every preferred direction is excluded. The hop runs on dense
// node IDs end to end with no ID→Point→ID round-trip; for built-in providers
// it is one CandidateMaskID call — an epoch compare plus at most three bit
// probes into the destination's memoised field while the fault epoch is
// stable — with the Point-based CandidateDirs as the fallback for third-party
// providers.
func (st *run) forward(ctx *simnet.Context, ref int32) {
	pk := &st.pool[ref]
	pe := &st.provs[pk.orient.Index()]
	if pe.prov == nil {
		pe.prov = st.model.Provider(pk.orient)
		pe.dec, pe.masked = pe.prov.(routing.DecisionProvider)
	}
	self := ctx.Self()
	// Hop-source classification is gated on the packet being traced, so the
	// untraced hot path pays nothing beyond the traceIdx compare.
	traced := st.trace != nil && pk.traceIdx >= 0
	var hits0, builds0, dhits0 int64
	if traced {
		hits0 = st.tel.Get(telemetry.FieldHits)
		builds0 = st.tel.Get(telemetry.FieldColdBuilds) + st.tel.Get(telemetry.FieldRebuilds) + st.tel.Get(telemetry.DecisionBuilds)
		dhits0 = st.tel.Get(telemetry.DecisionHits)
	}
	if pe.masked {
		mk := pe.dec.CandidateMaskID(ctx.Mesh(), ctx.SelfID(), self, pk.dstID, pk.dst)
		st.dirs = routing.AppendMaskDirs(st.dirs[:0], mk)
	} else {
		st.dirs = routing.CandidateDirs(ctx.Mesh(), pe.prov, pk.orient, self, pk.dst, st.dirs[:0])
	}
	if len(st.dirs) == 0 {
		st.res.Stuck++
		if traced {
			st.trace.Finish(pk.traceIdx, pk.id, -1, telemetry.StatusStuck)
		}
		st.release(ref)
		return
	}
	pick := st.policy.Pick(self, pk.dst, st.dirs)
	pk.hops++
	if traced {
		src := telemetry.HopDirect
		switch {
		case !pe.masked:
			src = telemetry.HopFallback
		case st.tel.Get(telemetry.DecisionHits) > dhits0:
			src = telemetry.HopDecisionHit
		case st.tel.Get(telemetry.FieldColdBuilds)+st.tel.Get(telemetry.FieldRebuilds)+st.tel.Get(telemetry.DecisionBuilds) > builds0:
			src = telemetry.HopColdBuild
		case st.tel.Get(telemetry.FieldHits) > hits0:
			src = telemetry.HopCacheHit
		}
		st.trace.Hop(pk.traceIdx, pk.id, ctx.SelfID(), src)
	}
	ctx.SendRef(st.dirs[pick], st.packetID, ref)
}

// deliver records a completed packet and releases its pool slot.
func (st *run) deliver(ctx *simnet.Context, ref int32) {
	pk := &st.pool[ref]
	st.res.Delivered++
	if st.trace != nil && pk.traceIdx >= 0 {
		st.trace.Finish(pk.traceIdx, pk.id, int64(ctx.Time()), telemetry.StatusDelivered)
	}
	if pk.inject >= st.e.opts.Warmup {
		st.res.MeasuredDelivered++
		lat := ctx.Time() - pk.inject
		st.res.Latency.Add(int(lat))
		st.res.Hops.Add(pk.hops)
		st.phaseDelivered++
		st.phaseLatSum += int64(lat)
	}
	st.release(ref)
}
