package simnet

import (
	"mccmesh/internal/classpool"
	"mccmesh/internal/telemetry"
)

// The event queue of the simulator: a calendar queue (timing wheel) of
// per-tick buckets for the near future, with a plain binary heap of events as
// the fallback for the far future.
//
// Design notes, because determinism is load-bearing here:
//
//   - The wheel covers the half-open window [now, now+wheelSize). Within the
//     window, tick t maps to ring slot t & wheelMask — unique, because the
//     window is exactly one ring revolution — so a bucket only ever holds
//     events of a single tick.
//   - Sequence numbers increase monotonically, so appending to a bucket keeps
//     it sorted by seq, and draining a bucket front to back reproduces the
//     (time, seq) order of the binary-heap scheduler it replaced.
//   - Far-future events (beyond the window — distant timers, At callbacks)
//     go to the heap, which pops in (time, seq) order. Whenever the clock
//     advances to t, every heap event with time < t+window migrates into its
//     ring slot *before* any new event can be enqueued for those ticks, so
//     migrated events (small seq) land ahead of later direct appends (large
//     seq) and bucket order stays seq-sorted. The target slots are free at
//     migration time: they correspond to ticks that were drained before t.
//   - Drained buckets return their backing arrays to a size-class pool
//     (see calendarQueue.pool), so steady-state enqueue/dequeue allocates
//     nothing and the storage held stays a small multiple of the peak ring
//     occupancy.
type calendarQueue struct {
	ring  [][]event
	count int // events resident in the ring
	far   farHeap
	// pool recycles bucket arrays by power-of-two size class. A run shorter
	// than one ring revolution touches every slot at most once, so in-place
	// slot reuse alone would allocate a fresh array per tick. A bucket that
	// fills up moves onto an array of the next class and parks the one it
	// outgrew, so the per-tick delivery bucket climbs the doubling ladder on
	// recycled rungs, and the storage held is one array per class in use plus
	// the arrays of simultaneously non-empty buckets: a small multiple of the
	// peak ring occupancy. (A mixed LIFO free-list handed the delivery bucket
	// whatever array was parked last, so it re-grew every tick and kept each
	// outgrown rung for the run: 650 MB of carved storage against a ~1 MB
	// peak bucket on a 32³ hotspot trial.)
	pool classpool.Pool[event]
	// tel receives queue counters (heap fallbacks, migrations, bucket reuse,
	// storage allocated, peak occupancy); nil — the default — costs one
	// predicted branch per hook.
	tel *telemetry.Sink
}

const (
	// minClass is the size class (1<<minClass events) an empty slot starts
	// at: it holds a slot's typical timer population without an immediate
	// move up.
	minClass = 3

	wheelBits = 11
	// wheelSize is the width of the calendar window in ticks. Link delays are
	// tiny and traffic timers are geometric with means well under this, so in
	// practice only far-tail timers and At control events hit the heap.
	wheelSize = Time(1) << wheelBits
	wheelMask = wheelSize - 1
)

// event is one scheduled occurrence, stored by value in the queue. It is
// deliberately pointer-free: boxed payloads and control callbacks live in the
// Network's side table (event.box indexes it), so the garbage collector never
// scans the queue and drained buckets need no zeroing.
type event struct {
	time     Time
	seq      int64
	sendTime Time
	from, to int32 // dense node IDs; mesh.NoNeighbor for control/off-mesh
	kind     KindID
	ref      int32 // payload reference (SendRef/AfterRef), or NoRef
	box      int32 // index into Network.boxed, or noBox
	// ctrl marks a control event: Drain runs the boxed callback instead of
	// delivering the envelope to a node.
	ctrl bool
}

// noBox marks an event without a boxed payload.
const noBox int32 = -1

func (q *calendarQueue) init() {
	q.ring = make([][]event, wheelSize)
}

// pending reports whether any event is queued.
func (q *calendarQueue) pending() bool { return q.count > 0 || len(q.far) > 0 }

// push buckets an event: ring when it falls within the window (measured from
// now), heap otherwise. threshold is the effective window width (tests shrink
// it to force heap traffic; it never exceeds wheelSize).
func (q *calendarQueue) push(ev event, now, threshold Time) {
	if ev.time < now+threshold {
		q.append(ev.time&wheelMask, ev)
	} else {
		q.tel.Inc(telemetry.SimHeapEvents)
		q.far.push(ev)
	}
}

// append adds an event to a ring slot. A full bucket (or an empty slot)
// moves onto a pooled array of the next size class, parking the outgrown one,
// so bucket growth never goes through the runtime's append.
func (q *calendarQueue) append(slot Time, ev event) {
	b := q.ring[slot]
	if len(b) == cap(b) {
		// The smallest class strictly above cap(b): capacities are powers
		// of two except for the tail of a partially consumed bucket, which
		// this still sizes correctly.
		nb, alloc := q.pool.Get(max(minClass, classpool.Class(cap(b)+1)))
		if alloc > 0 {
			q.tel.Add(telemetry.SimBucketAllocEvents, int64(alloc))
		} else {
			q.tel.Inc(telemetry.SimBucketReuses)
		}
		nb = nb[:len(b)]
		copy(nb, b)
		q.pool.Put(b)
		b = nb
	}
	b = append(b, ev)
	q.ring[slot] = b
	q.count++
	q.tel.Max(telemetry.SimBucketPeak, int64(len(b)))
}

// nextTime returns the tick of the earliest queued event. The caller
// guarantees pending(). Ring events always precede heap events (the heap only
// holds times at or beyond the window), so the ring is scanned first.
func (q *calendarQueue) nextTime(now Time) Time {
	if q.count > 0 {
		for t := now; ; t++ {
			if len(q.ring[t&wheelMask]) > 0 {
				return t
			}
		}
	}
	return q.far[0].time
}

// migrate moves every heap event with time < t+threshold into its ring slot.
// Called exactly when the clock advances to t, before processing: the slots
// involved were drained earlier, and heap pops arrive in (time, seq) order,
// so every bucket stays seq-sorted.
func (q *calendarQueue) migrate(t, threshold Time) {
	for len(q.far) > 0 && q.far[0].time < t+threshold {
		ev := q.far.pop()
		q.tel.Inc(telemetry.SimHeapMigrations)
		q.append(ev.time&wheelMask, ev)
	}
}

// consume removes the first n events of a drained bucket, recycling the
// backing array when the bucket is fully processed. Events are pointer-free,
// so no zeroing is needed.
func (q *calendarQueue) consume(bucket *[]event, n int) {
	q.count -= n
	if n == len(*bucket) {
		q.pool.Put(*bucket)
		*bucket = nil
		return
	}
	// Partial consumption only happens on event-budget abort.
	*bucket = (*bucket)[n:]
}

// farHeap is a binary min-heap of events ordered by (time, seq), implemented
// directly on the slice to avoid container/heap's interface boxing.
type farHeap []event

func (h farHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *farHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *farHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old = old[:n]
	*h = old
	i := 0
	for {
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
