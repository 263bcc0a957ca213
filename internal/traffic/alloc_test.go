package traffic_test

import (
	"runtime"
	"testing"

	"mccmesh/internal/traffic"
)

// TestSteadyStateAllocsPerPacket guards the zero-alloc hot path: one
// steady-state packet hop — timer pop, injection draw, candidate-direction
// fill, policy pick, ref send, delivery — must not allocate. The whole-run
// budgets amortise the bounded per-run setup (node RNG table, context
// table, calendar buckets, packet-pool growth) over the delivered packets.
//
// The local cell runs a fresh engine: before the index-first refactor this
// workload allocated ~30 heap objects per delivered packet, so its 0.25
// ceiling has an order of magnitude of slack against accounting noise while
// still failing on any per-hop or per-packet allocation that sneaks back in.
//
// The mcc cell measures a second Run on the same engine: the information
// model — and with it the providers' field caches — persists across runs,
// so the first run builds every reachability field the steady state touches
// and the measured run answers every hop from the memoised decision fast
// path. With field structs slab-backed and bitsets pooled by size class,
// that steady state allocates nothing per packet or per hop; the 0.01
// ceiling only admits the bounded per-run setup amortised over the >= 10k
// deliveries the cell requires.
func TestSteadyStateAllocsPerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instruments allocations; alloc accounting is only meaningful without it")
	}
	if testing.Short() {
		t.Skip("multi-second traffic run")
	}
	// Warm global state (registry lookups, lazy tables) out of the measurement.
	if res := benchEngine(t, "local", 11, 100).Run(11); res.Err != nil || res.Delivered == 0 {
		t.Fatalf("warmup run failed: delivered=%d err=%v", res.Delivered, res.Err)
	}

	measure := func(t *testing.T, e *traffic.Engine) float64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := e.Run(11)
		runtime.ReadMemStats(&after)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Delivered < 10_000 {
			t.Fatalf("workload too small to be meaningful: delivered %d packets", res.Delivered)
		}
		perPacket := float64(after.Mallocs-before.Mallocs) / float64(res.Delivered)
		t.Logf("delivered %d packets over %d events, %.4f allocs/packet",
			res.Delivered, res.Events, perPacket)
		return perPacket
	}

	t.Run("local", func(t *testing.T) {
		if perPacket := measure(t, benchEngine(t, "local", 11, 500)); perPacket > 0.25 {
			t.Errorf("steady-state hot path allocates: %.4f allocs per delivered packet (want <= 0.25) — "+
				"a per-hop or per-packet allocation crept back into simnet or the engine", perPacket)
		}
	})

	t.Run("mcc", func(t *testing.T) {
		e := benchEngine(t, "mcc", 11, 500)
		if res := e.Run(11); res.Err != nil || res.Delivered == 0 {
			t.Fatalf("mcc warmup run failed: delivered=%d err=%v", res.Delivered, res.Err)
		}
		if perPacket := measure(t, e); perPacket > 0.01 {
			t.Errorf("mcc steady state allocates: %.4f allocs per delivered packet (want 0) — "+
				"the decision fast path, the field slab/pool, or the per-run setup regressed", perPacket)
		}
	})

	// The eviction cell: a 20³ mesh has more destinations than the
	// 4096-field cache holds, so the measured run keeps cold-building fields
	// into evicted ones whose bitsets fit other boxes. With bitsets recycled
	// by size class that churn allocates nothing once the first run has met
	// each class's peak demand.
	t.Run("mcc-evict", func(t *testing.T) {
		e := cubeEngine(t, 20, 234, "mcc", 11, 120)
		if res := e.Run(11); res.Err != nil || res.Delivered == 0 {
			t.Fatalf("mcc-evict warmup run failed: delivered=%d err=%v", res.Delivered, res.Err)
		}
		if perPacket := measure(t, e); perPacket > 0.01 {
			t.Errorf("mcc eviction churn allocates: %.4f allocs per delivered packet (want 0) — "+
				"field bitsets or bucket storage stopped being recycled under eviction", perPacket)
		}
	})
}

// TestChurnAllocsPerPacket guards the fault-churn hot path: with a stochastic
// fail/repair timeline live, the per-packet path must stay allocation-free
// and the per-churn-event work (incremental relabel, in-place region refresh,
// epoch bumps, phase accounting) must amortise to well under one allocation
// per delivered packet — the budget the churn bench cell asserts too.
func TestChurnAllocsPerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instruments allocations; alloc accounting is only meaningful without it")
	}
	if testing.Short() {
		t.Skip("multi-second traffic run")
	}
	if res := churnBenchEngine(t, 11, 100).Run(11); res.Err != nil || res.Delivered == 0 {
		t.Fatalf("warmup run failed: delivered=%d err=%v", res.Delivered, res.Err)
	}

	e := churnBenchEngine(t, 11, 500)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := e.Run(11)
	runtime.ReadMemStats(&after)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Delivered < 10_000 {
		t.Fatalf("workload too small to be meaningful: delivered %d packets", res.Delivered)
	}
	if res.Failures == 0 || res.Repairs == 0 {
		t.Fatalf("timeline did not churn: %d failures, %d repairs", res.Failures, res.Repairs)
	}
	perPacket := float64(after.Mallocs-before.Mallocs) / float64(res.Delivered)
	t.Logf("delivered %d packets over %d events with %d failures / %d repairs, %.4f allocs/packet",
		res.Delivered, res.Events, res.Failures, res.Repairs, perPacket)
	if perPacket > 1.0 {
		t.Errorf("churn hot path allocates: %.4f allocs per delivered packet (want < 1.0) — "+
			"per-event churn work stopped amortising or a per-hop allocation crept back in", perPacket)
	}
}
