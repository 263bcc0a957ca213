package simnet

import (
	"fmt"
	"runtime/debug"
	"sync"

	"mccmesh/internal/mesh"
	"mccmesh/internal/telemetry"
)

// ShardedNetwork runs one simulation spatially sharded: the mesh is split
// into contiguous dense-ID slabs (see mesh.SlabPartition), each shard owns a
// private Network — its own calendar queue, sequence counter and handler
// state — and the shards advance in lock step, one tick per barrier round.
//
// The synchronisation is conservative with lookahead equal to the link delay:
// every cross-shard message sent at tick t is delivered no earlier than t+1,
// so within one tick the shards are causally independent and may process
// their buckets in parallel. At the barrier the coordinator exchanges the
// shards' outboxes in canonical (shard, send order) sequence, which pins the
// destination-side sequence numbers — the sharded run processes exactly the
// event set of the sequential run, with every per-node event order preserved
// (nodes live in exactly one shard), so handlers whose observable results
// depend only on per-node order and on barrier-synchronised shared state
// produce bit-identical results at any shard count.
//
// Control callbacks (At) are coordinator-owned and run at the start of their
// tick, before any shard processes it — the same "control before same-tick
// deliveries" order a standalone Network guarantees via setup-time sequence
// numbers. They are the one place shared state (the mesh's fault set, the
// handlers' models) may be mutated.
type ShardedNetwork struct {
	mesh  *mesh.Mesh
	slabs []mesh.IDRange
	nets  []*Network
	opts  ShardedOptions

	now     Time
	final   Time
	ctrl    ctrlHeap
	ctrlSeq int64
	control int // control callbacks run (the coordinator's share of Events)

	// Worker machinery: one persistent goroutine per shard, fed ticks over
	// start and reporting back over done, so the per-tick cost is two channel
	// operations per active shard rather than a goroutine spawn.
	start   []chan Time
	done    chan shardDone
	workers sync.WaitGroup
}

// ShardedOptions configure a ShardedNetwork.
type ShardedOptions struct {
	// LinkDelay is the delivery latency of one hop (default 1). It is also the
	// conservative lookahead: the barrier protocol requires at least 1.
	LinkDelay Time
	// MaxEvents aborts runaway protocols, counted across all shards plus
	// control callbacks (default 4_000_000). The budget is checked at every
	// tick barrier, so the abort lands on a deterministic tick — though not
	// necessarily on the exact event index a sequential run would abort at.
	MaxEvents int
	// Telemetry optionally supplies one counter sink per shard (len must match
	// the slab count); each shard's queue counters land in its own sink so the
	// parallel tick processing never contends on a shared one. The barrier
	// adds the balance counters: each shard's sink counts the events it sent
	// across slabs (telemetry.SimShardExchanged) and gauges its processed
	// events (telemetry.SimShardEventsMax), so merged sinks report the
	// exchange total and the busiest shard.
	Telemetry []*telemetry.Sink
	// MigrateRef rewrites an envelope payload reference when an event crosses
	// shards at the barrier exchange: handlers that resolve Envelope.Ref
	// against per-shard pools (the traffic engine) move the payload from the
	// source shard's pool to the destination's here. It runs single-threaded
	// on the coordinator. Required when handlers use SendRef across slab
	// boundaries; boxed payloads migrate automatically.
	MigrateRef func(from, to int, kind KindID, ref int32) int32
}

// ctrlEvent is one scheduled control callback; ctrlHeap orders them by
// (time, seq) exactly as the sequential queue would.
type ctrlEvent struct {
	time Time
	seq  int64
	fn   func()
}

type ctrlHeap []ctrlEvent

func (h ctrlHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *ctrlHeap) push(ev ctrlEvent) {
	*h = append(*h, ev)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *ctrlHeap) pop() ctrlEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old = old[:n]
	*h = old
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && old.less(l, smallest) {
			smallest = l
		}
		if r < n && old.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		old[i], old[smallest] = old[smallest], old[i]
		i = smallest
	}
	return top
}

// shardDone is one worker's report for one tick.
type shardDone struct {
	shard    int
	err      error
	panicked any
}

// NewSharded creates a sharded network: one sub-network per slab, each
// running handlers[i] over the shared mesh. Handlers typically share
// read-only configuration but must keep mutable per-node state private to the
// owning shard; shared mutable state may only change inside At callbacks.
// len(handlers) must equal len(slabs), and the slabs must be the contiguous
// ascending cover mesh.SlabPartition produces.
func NewSharded(m *mesh.Mesh, handlers []Handler, slabs []mesh.IDRange, opts ShardedOptions) *ShardedNetwork {
	if len(handlers) != len(slabs) {
		panic(fmt.Sprintf("simnet: %d handlers for %d shards", len(handlers), len(slabs)))
	}
	if opts.Telemetry != nil && len(opts.Telemetry) != len(slabs) {
		panic(fmt.Sprintf("simnet: %d telemetry sinks for %d shards", len(opts.Telemetry), len(slabs)))
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 4_000_000
	}
	sn := &ShardedNetwork{mesh: m, slabs: slabs, opts: opts}
	for s, slab := range slabs {
		// Each shard keeps the full MaxEvents as its own bound: it is only the
		// same-tick livelock backstop (After(0) loops); the real cross-shard
		// budget is enforced at the barrier.
		net := New(m, handlers[s], Options{LinkDelay: opts.LinkDelay, MaxEvents: opts.MaxEvents, Telemetry: sn.sink(s)})
		net.shardLo, net.shardHi = slab.Lo, slab.Hi
		sn.nets = append(sn.nets, net)
	}
	return sn
}

// Shards returns the number of shards.
func (sn *ShardedNetwork) Shards() int { return len(sn.nets) }

// ShardOf returns the index of the shard owning the dense node ID.
func (sn *ShardedNetwork) ShardOf(id int32) int {
	for s, slab := range sn.slabs {
		if slab.Contains(id) {
			return s
		}
	}
	panic(fmt.Sprintf("simnet: node %d outside every shard slab", id))
}

// Mesh returns the shared mesh.
func (sn *ShardedNetwork) Mesh() *mesh.Mesh { return sn.mesh }

// Now returns the current simulated time (the barrier tick).
func (sn *ShardedNetwork) Now() Time { return sn.now }

// Kind interns an envelope kind in every shard and returns its dense ID. The
// shards intern in the same order, so the IDs agree; a divergence (a handler
// interning shard-locally first) panics rather than silently mis-dispatching.
func (sn *ShardedNetwork) Kind(name string) KindID {
	id := sn.nets[0].Kind(name)
	for _, net := range sn.nets[1:] {
		if got := net.Kind(name); got != id {
			panic(fmt.Sprintf("simnet: kind %q interned as %d and %d across shards", name, id, got))
		}
	}
	return id
}

// ContextOf returns the per-node context of node id, bound to its owning
// shard — timers armed through it land in that shard's queue.
func (sn *ShardedNetwork) ContextOf(id int32) *Context {
	return sn.nets[sn.ShardOf(id)].ContextOf(id)
}

// At schedules fn to run on the coordinator at the start of tick t, before
// any shard processes that tick; among same-tick callbacks, scheduling order
// wins. This is the only place shared mutable state (the mesh's fault set)
// may change, which is what keeps every shard's view of it tick-consistent.
func (sn *ShardedNetwork) At(t Time, fn func()) {
	if t < sn.now {
		t = sn.now
	}
	sn.ctrlSeq++
	sn.ctrl.push(ctrlEvent{time: t, seq: sn.ctrlSeq, fn: fn})
}

// Run initialises every healthy node (in dense-ID order, exactly as a
// standalone Network would) and drives the barrier loop to quiescence.
func (sn *ShardedNetwork) Run() (Stats, error) {
	for s, net := range sn.nets {
		slab := sn.slabs[s]
		for i := slab.Lo; i < slab.Hi; i++ {
			if sn.mesh.FaultyAt(int(i)) {
				continue
			}
			net.handler.Init(&net.ctxs[i])
		}
	}
	return sn.drain()
}

// drain is the conservative barrier loop: pick the globally earliest tick,
// run its control callbacks, let every shard with events at that tick process
// them in parallel, then exchange the cross-shard sends (which all target
// t+LinkDelay or later) and repeat.
func (sn *ShardedNetwork) drain() (Stats, error) {
	sn.startWorkers()
	defer sn.stopWorkers()
	defer sn.recordBalance()
	sn.exchange() // flush Init-time cross-shard sends
	active := make([]int, 0, len(sn.nets))
	for {
		t, ok := sn.nextTick()
		if !ok {
			return sn.Stats(), nil
		}
		sn.now, sn.final = t, t
		active = active[:0]
		for s, net := range sn.nets {
			net.advanceTo(t)
			if pt, ok := net.peekTime(); ok && pt == t {
				active = append(active, s)
			}
		}
		// Control callbacks first: they run single-threaded, in scheduling
		// order, against a quiescent tick — matching the sequential rule that
		// setup-enqueued control events precede same-tick deliveries.
		ranCtrl := false
		for len(sn.ctrl) > 0 && sn.ctrl[0].time == t {
			ev := sn.ctrl.pop()
			sn.control++
			ev.fn()
			ranCtrl = true
		}
		if ranCtrl {
			// A callback may have armed same-tick work on a previously idle
			// shard (e.g. re-arming a repaired node's timer); rebuild the
			// active set so that work runs this tick, not never.
			active = active[:0]
			for s, net := range sn.nets {
				if pt, ok := net.peekTime(); ok && pt == t {
					active = append(active, s)
				}
			}
		}
		if err := sn.runTicks(active, t); err != nil {
			return sn.Stats(), err
		}
		sn.exchange()
		if total := sn.totalEvents(); total >= sn.opts.MaxEvents {
			return sn.Stats(), fmt.Errorf("%w: budget %d at t=%d across %d shards (protocol livelock or undersized MaxEvents?)",
				ErrEventBudget, sn.opts.MaxEvents, t, len(sn.nets))
		}
	}
}

// runTicks processes tick t on every active shard — in parallel when more
// than one is active, inline otherwise. A shard panic is re-raised on the
// coordinator goroutine so callers' existing recover boundaries see it; a
// shard error (per-shard budget backstop) is reported in ascending shard
// order for determinism.
func (sn *ShardedNetwork) runTicks(active []int, t Time) error {
	if len(active) == 1 {
		return sn.nets[active[0]].runTick(t)
	}
	for _, s := range active {
		sn.start[s] <- t
	}
	var firstErr error
	firstShard := len(sn.nets)
	var panicked any
	for range active {
		d := <-sn.done
		if d.panicked != nil && panicked == nil {
			panicked = d.panicked
		}
		if d.err != nil && d.shard < firstShard {
			firstErr, firstShard = d.err, d.shard
		}
	}
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}

// startWorkers launches one persistent goroutine per shard.
func (sn *ShardedNetwork) startWorkers() {
	if sn.start != nil {
		return
	}
	sn.start = make([]chan Time, len(sn.nets))
	sn.done = make(chan shardDone, len(sn.nets))
	for s := range sn.nets {
		sn.start[s] = make(chan Time, 1)
		sn.workers.Add(1)
		go func(s int) {
			defer sn.workers.Done()
			for t := range sn.start[s] {
				sn.runOneTick(s, t)
			}
		}(s)
	}
}

// runOneTick runs one shard tick on a worker goroutine, converting a panic
// into a report the coordinator re-raises (a bare panic in a worker would
// kill the process past every caller's recover).
func (sn *ShardedNetwork) runOneTick(s int, t Time) {
	d := shardDone{shard: s}
	defer func() {
		if p := recover(); p != nil {
			d.panicked = fmt.Sprintf("%v\n%s", p, debug.Stack())
		}
		sn.done <- d
	}()
	d.err = sn.nets[s].runTick(t)
}

func (sn *ShardedNetwork) stopWorkers() {
	for _, ch := range sn.start {
		close(ch)
	}
	sn.workers.Wait()
	sn.start, sn.done = nil, nil
}

// nextTick returns the earliest tick with pending work — a queued event in
// any shard or a scheduled control callback.
func (sn *ShardedNetwork) nextTick() (Time, bool) {
	var best Time
	ok := false
	if len(sn.ctrl) > 0 {
		best, ok = sn.ctrl[0].time, true
	}
	for _, net := range sn.nets {
		if t, pending := net.peekTime(); pending && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// exchange drains every shard's outbox in canonical order — shards ascending,
// each outbox in send order — re-enqueueing each event into its destination
// shard. The double loop is single-threaded at the barrier, so the
// destination sequence numbers (and with them every bucket's delivery order)
// are deterministic. Boxed payloads move between the side tables here;
// reference payloads move through the MigrateRef hook.
func (sn *ShardedNetwork) exchange() {
	for s, src := range sn.nets {
		sn.sink(s).Add(telemetry.SimShardExchanged, int64(len(src.outbox)))
		for i := range src.outbox {
			ev := src.outbox[i]
			if ev.time <= sn.now {
				// A zero-lookahead send (Post across slabs, a zero LinkDelay)
				// would have to be delivered into a tick that may already be
				// processing; the conservative barrier cannot order it.
				panic(fmt.Sprintf("simnet: cross-shard event for t=%d at barrier t=%d (zero-lookahead send)", ev.time, sn.now))
			}
			d := sn.ShardOf(ev.to)
			dst := sn.nets[d]
			if ev.kind != kindControl {
				// Kind IDs are per-shard interning tables. Handlers that intern
				// through ShardedNetwork.Kind get identical IDs everywhere and
				// this re-intern is a map hit returning ev.kind unchanged; for
				// lazily interned kinds (string-based Send) it translates the
				// source shard's ID into the destination's.
				ev.kind = dst.intern(src.kindNames[ev.kind])
			}
			if ev.box != noBox {
				ev.box = dst.box(src.unbox(ev.box))
			}
			if ev.ref != NoRef && sn.opts.MigrateRef != nil {
				ev.ref = sn.opts.MigrateRef(s, d, ev.kind, ev.ref)
			}
			dst.enqueue(ev)
		}
		src.outbox = src.outbox[:0]
	}
}

// sink returns shard s's telemetry sink, nil when telemetry is off.
func (sn *ShardedNetwork) sink(s int) *telemetry.Sink {
	if sn.opts.Telemetry == nil {
		return nil
	}
	return sn.opts.Telemetry[s]
}

// recordBalance gauges every shard's processed-event count into its sink.
func (sn *ShardedNetwork) recordBalance() {
	for s, net := range sn.nets {
		sn.sink(s).Max(telemetry.SimShardEventsMax, int64(net.stats.Events))
	}
}

// totalEvents sums the processed-event counters across shards and control.
func (sn *ShardedNetwork) totalEvents() int {
	total := sn.control
	for _, net := range sn.nets {
		total += net.stats.Events
	}
	return total
}

// Stats merges the per-shard statistics: counters sum, ByKind merges by kind
// name, FinalTime is the latest processed tick (control callbacks included).
// Events covers deliveries, drops, control callbacks — the same population a
// sequential run counts, and the same totals.
func (sn *ShardedNetwork) Stats() Stats {
	merged := Stats{ByKind: make(map[string]int)}
	for _, net := range sn.nets {
		s := net.Stats()
		merged.Delivered += s.Delivered
		merged.Dropped += s.Dropped
		merged.Timers += s.Timers
		merged.Events += s.Events
		if s.FinalTime > merged.FinalTime {
			merged.FinalTime = s.FinalTime
		}
		for k, v := range s.ByKind {
			merged.ByKind[k] += v
		}
	}
	merged.Control = sn.control
	merged.Events += sn.control
	if sn.final > merged.FinalTime {
		merged.FinalTime = sn.final
	}
	return merged
}
