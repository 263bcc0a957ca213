package traffic

// Tests of the trial driver shared by the sequential and the sharded event
// loop: a fuzzed parity check of the two over every kind of fault schedule,
// the shard balance counters, and the engine's Point fallback for providers
// without the packed-decision API.

import (
	"reflect"
	"testing"

	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
	"mccmesh/internal/telemetry"
)

// Fault schedules the parity fuzz target draws from.
const (
	schedStatic   = iota // initial faults only
	schedFaults          // plus scheduled Options.Faults injections
	schedTimeline        // plus a fail/repair churn timeline
	schedBoth            // plus both: injections close churn phases too
	numScheds
)

// semanticCounters are the telemetry counters a sharded trial must report
// exactly as the sequential one does (the set TestShardedSemanticTelemetry
// compares); queue-shape and model-cache counters depend on the shard layout.
var semanticCounters = []string{
	"traffic.injected", "traffic.delivered", "traffic.stuck", "traffic.lost",
	"churn.failures", "churn.repairs", "churn.failed_nodes", "churn.repaired_nodes",
}

// parityEngine builds one fuzz trial over a fresh side³ mesh, sharded
// `shards` ways (0 = sequential), with the fault schedule sched.
func parityEngine(tb testing.TB, model string, side, sched, shards int, seed uint64) *Engine {
	tb.Helper()
	var tl *fault.Timeline
	if sched == schedTimeline || sched == schedBoth {
		tl = churnTimeline(200)
	}
	e := shardedTrialEngine(tb, model, side, side*side*side/20, shards, tl, seed, true)
	if sched == schedFaults || sched == schedBoth {
		e.opts.Faults = []FaultEvent{
			{At: 80, Inject: fault.Uniform{Count: side}},
			{At: 160, Inject: fault.Uniform{Count: side}},
		}
	}
	return e
}

// FuzzShardedMatchesSequential checks the sharded trial against the
// sequential reference: the Result (counters, histograms, phases, event
// totals) and the semantic telemetry must be equal for any seed, shard count
// 2–8, model, mesh side 6–8 and fault schedule.
func FuzzShardedMatchesSequential(f *testing.F) {
	f.Add(uint64(1), uint8(0), false, uint8(schedStatic), uint8(2))
	f.Add(uint64(2), uint8(2), true, uint8(schedFaults), uint8(0))
	f.Add(uint64(3), uint8(6), false, uint8(schedTimeline), uint8(1))
	f.Add(uint64(4), uint8(0), false, uint8(schedBoth), uint8(2))
	f.Add(uint64(5), uint8(2), true, uint8(schedBoth), uint8(2))
	f.Add(uint64(6), uint8(5), false, uint8(schedBoth), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, shards uint8, labels bool, sched uint8, side uint8) {
		model := "mcc"
		if labels {
			model = "labels"
		}
		n, sc, sd := 2+int(shards%7), int(sched%numScheds), 6+int(side%3)
		want := parityEngine(t, model, sd, sc, 0, seed).Run(seed)
		got := parityEngine(t, model, sd, sc, n, seed).Run(seed)
		if want.Err != nil || got.Err != nil {
			t.Fatalf("trial failed: sequential %v, sharded %v", want.Err, got.Err)
		}
		if !reflect.DeepEqual(comparable(got), comparable(want)) {
			t.Fatalf("%s side=%d sched=%d shards=%d diverges from sequential:\n got %+v\nwant %+v",
				model, sd, sc, n, comparable(got), comparable(want))
		}
		seq, sh := want.Telemetry.Snapshot(), got.Telemetry.Snapshot()
		for _, k := range semanticCounters {
			if seq[k] != sh[k] {
				t.Errorf("counter %s: sequential %d, sharded %d", k, seq[k], sh[k])
			}
		}
	})
}

// TestShardBalanceCounters checks the per-shard balance telemetry: a sharded
// trial reports the barrier exchange count and the busiest shard's event
// count, and a sequential one reports neither, so its snapshot is unchanged.
func TestShardBalanceCounters(t *testing.T) {
	res := shardedTrialEngine(t, "mcc", 8, 25, 4, nil, 5, true).Run(5)
	tel := res.Telemetry
	exchanged, busiest := tel.Get(telemetry.SimShardExchanged), tel.Get(telemetry.SimShardEventsMax)
	if exchanged <= 0 {
		t.Errorf("4-shard trial exchanged %d events across slabs", exchanged)
	}
	// Static faults schedule no control callbacks, so the shards processed
	// every event: the busiest one holds at least a quarter of them.
	if busiest <= 0 || busiest > int64(res.Events) || 4*busiest < int64(res.Events) {
		t.Errorf("busiest shard processed %d of %d events", busiest, res.Events)
	}
	seq := shardedTrialEngine(t, "mcc", 8, 25, 1, nil, 5, true).Run(5).Telemetry.Snapshot()
	for _, k := range []string{"simnet.shard_exchanged", "simnet.shard_events_max"} {
		if _, ok := seq[k]; ok {
			t.Errorf("1-shard trial reports %s", k)
		}
	}
}

// pointOnlyModel hands out providers stripped to Name and Allowed, so the
// engine can only route through its Point-based fallback.
type pointOnlyModel struct{ InfoModel }

func (m pointOnlyModel) Provider(o grid.Orientation) routing.Provider {
	return pointOnly{m.InfoModel.Provider(o)}
}

type pointOnly struct{ p routing.Provider }

func (w pointOnly) Allowed(u, v, d grid.Point) bool { return w.p.Allowed(u, v, d) }
func (w pointOnly) Name() string                    { return w.p.Name() }

// TestPointFallbackMatchesMasked runs every built-in model once through its
// packed-decision providers and once through the Point fallback: the results
// and the traced packet paths must agree, and the fallback's hops must be
// tagged as such.
func TestPointFallbackMatchesMasked(t *testing.T) {
	for _, name := range ModelNames() {
		run := func(wrap bool) *Result {
			m := mesh.NewCube(7)
			fault.Uniform{Count: 20}.Inject(m, rng.New(rng.Derive(4, 1<<48)))
			im, err := ModelByName(name, core.NewModel(m))
			if err != nil {
				t.Fatal(err)
			}
			if wrap {
				im = pointOnlyModel{im}
			}
			opts := Options{Rate: 0.03, Warmup: 20, Window: 120, TraceEvery: 8, TraceCap: 4096}
			return NewEngine(m, im, Uniform{}, opts).Run(4)
		}
		masked, fallback := run(false), run(true)
		if !reflect.DeepEqual(comparable(fallback), comparable(masked)) {
			t.Errorf("%s: Point fallback diverges from the masked path:\n got %+v\nwant %+v",
				name, comparable(fallback), comparable(masked))
			continue
		}
		if len(fallback.Traces) == 0 || len(fallback.Traces) != len(masked.Traces) {
			t.Fatalf("%s: %d fallback traces, %d masked", name, len(fallback.Traces), len(masked.Traces))
		}
		for i, tr := range fallback.Traces {
			ref := masked.Traces[i]
			if tr.Packet != ref.Packet || tr.Status != ref.Status || len(tr.Hops) != len(ref.Hops) {
				t.Fatalf("%s: trace %d differs: %+v vs %+v", name, i, tr, ref)
			}
			for j, h := range tr.Hops {
				if h.Node != ref.Hops[j].Node || h.Source != telemetry.HopFallback {
					t.Fatalf("%s: packet %d hop %d = %+v, want node %d tagged %s",
						name, tr.Packet, j, h, ref.Hops[j].Node, telemetry.HopFallback)
				}
			}
		}
	}
}
