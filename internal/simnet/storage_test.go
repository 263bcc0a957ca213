package simnet

import (
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/telemetry"
)

// bounceHandler keeps one token per node bouncing along X between
// neighbours until tick `until`, so every tick's delivery bucket holds one
// event per node, and arms short per-node timers on the side so dozens of
// small timer buckets churn next to the big one — the bucket-size mix of a
// traffic run. It samples the ring occupancy on every delivery.
type bounceHandler struct {
	until     Time
	token     KindID
	timer     KindID
	peakCount int
}

func (h *bounceHandler) Init(ctx *Context) {
	dir := grid.XPos
	if ctx.Self().X%2 == 1 {
		dir = grid.XNeg
	}
	ctx.SendRef(dir, h.token, 0)
}

func (h *bounceHandler) Receive(ctx *Context, env *Envelope) {
	h.peakCount = max(h.peakCount, ctx.net.queue.count)
	if env.KindID != h.token || ctx.Time() >= h.until {
		return
	}
	dir := grid.XNeg
	if env.From.X > ctx.Self().X {
		dir = grid.XPos
	}
	ctx.SendRef(dir, h.token, 0)
	if id := ctx.SelfID(); (int64(id)+int64(ctx.Time()))%5 == 0 {
		ctx.AfterRef(2+Time(id%13), h.timer, 0)
	}
}

// heldEvents is the bucket storage the queue holds, in events: ring
// buckets plus what the pool holds (parked arrays, uncarved arena).
func (q *calendarQueue) heldEvents() int {
	n := q.pool.Held()
	for _, b := range q.ring {
		n += cap(b)
	}
	return n
}

// TestBucketStorageBoundedByOccupancy floods a 24³ mesh for 300 ticks with
// a ~14k-event delivery bucket per tick and asserts the queue's bucket
// storage stays within 4× the peak ring occupancy. Recycling by exact size
// class keeps it near 3× here (power-of-two rounding plus the doubling
// ladder the delivery bucket climbs); a free-list that hands the delivery bucket
// arbitrary parked arrays makes it re-grow every tick and keep each outgrown
// array, which multiplies the storage with the run length.
func TestBucketStorageBoundedByOccupancy(t *testing.T) {
	m := mesh.New3D(24, 24, 24)
	h := &bounceHandler{until: 300}
	sink := telemetry.NewSink()
	net := New(m, h, Options{MaxEvents: 50_000_000, Telemetry: sink})
	h.token = net.Kind("token")
	h.timer = net.Kind("timer")
	stats := mustRun(t, net)
	if stats.FinalTime < 300 {
		t.Fatalf("flood ended at tick %d, want >= 300", stats.FinalTime)
	}
	if h.peakCount < 10_000 {
		t.Fatalf("peak ring occupancy %d events; the flood is too small to mean anything", h.peakCount)
	}
	held := net.queue.heldEvents()
	allocated := sink.Get(telemetry.SimBucketAllocEvents)
	t.Logf("%d events over %d ticks: bucket storage %d events (%d allocated), peak occupancy %d (%.2fx)",
		stats.Events, stats.FinalTime, held, allocated, h.peakCount, float64(held)/float64(h.peakCount))
	if held > 4*h.peakCount {
		t.Errorf("bucket storage %d events is %.1fx the peak ring occupancy %d (want <= 4x)",
			held, float64(held)/float64(h.peakCount), h.peakCount)
	}
	// Every stored event came from the allocator, and the counter reports
	// no more than the bound allows beyond one arena chunk's cut-off tails.
	if allocated < int64(held) || allocated > int64(4*h.peakCount+4096) {
		t.Errorf("simnet.bucket_alloc_events = %d, want within [%d, %d]",
			allocated, held, 4*h.peakCount+4096)
	}
}
