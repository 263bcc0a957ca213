package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// tinySims are the simulation workloads shrunk to run in milliseconds.
var tinySims = map[string]simConfig{
	"steady": {Dim: 6, Faults: 8, Rate: 0.05, Hotspot: 0.1, Warmup: 10, Window: 40},
	"churn":  {Dim: 6, Faults: 8, Rate: 0.05, Hotspot: 0.1, Warmup: 10, Window: 40, Churn: true},
}

// tinyServe is serve-e2 shrunk to about a second.
var tinyServe = serveConfig{
	Dim: 5, Faults: []int{4, 6}, Pairs: 3, Workers: 2,
	RefRate: 200, HitShare: 0.3, RefShare: 0.5,
	LimitS: 0.5, RungS: 0.1, Setups: 2,
}

// checkOutcome asserts that the run's checks passed and that finish reports
// exactly the declared metric set, each with its declared unit.
func checkOutcome(t *testing.T, o *outcome, traced bool) {
	t.Helper()
	if len(o.problems) > 0 || o.failed > 0 {
		t.Fatalf("checks failed (%d of %d): %v", o.failed, o.attempted, o.problems)
	}
	res, err := finish(o, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("result not correct")
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m := res.Metrics[d.name]; m.Unit != d.unit {
			t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

func TestTinySimWorkloads(t *testing.T) {
	for name, cfg := range tinySims {
		for _, traced := range []bool{false, true} {
			o, err := runSim("tiny-"+name, cfg, runConfig{seed: 3, seconds: 0.05, trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			checkOutcome(t, o, traced)
			if traced && cfg.Churn && o.values["core.churn_events"] == 0 {
				t.Errorf("%s: no churn event fired", name)
			}
			if !traced && o.values["events_per_s"] <= 0 {
				t.Errorf("%s: events_per_s %v", name, o.values["events_per_s"])
			}
		}
	}
}

func TestTinyServeWorkload(t *testing.T) {
	for _, traced := range []bool{false, true} {
		o, err := runServe(tinyServe, runConfig{seed: 5, seconds: 1.5, trace: traced})
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		checkOutcome(t, o, traced)
		if traced && o.values["routing.route_calls"] == 0 {
			t.Error("replay made no Route call")
		}
		if traced && o.values["max_jobs_per_s"] <= 0 {
			t.Error("no ladder rung passed")
		}
		if !traced && o.values["events_per_s"] <= 0 {
			t.Error("the saturation phase completed no pair")
		}
	}
}

// TestWrapperTransparent runs the same trial on the bare mcc model and on the
// traced wrappers, both with telemetry on: the results, counters included,
// must be identical.
func TestWrapperTransparent(t *testing.T) {
	for _, name := range []string{"steady16", "churn16"} {
		cfg := simWorkloads[name]
		for _, seed := range []uint64{1, 2} {
			bare, err := buildTrial(cfg, seed, trialOpts{telemetry: true})
			if err != nil {
				t.Fatal(err)
			}
			want := bare.engine.Run(seed)
			wrapped, err := buildTrial(cfg, seed, trialOpts{led: &simLedger{spans: newSpanLog()}})
			if err != nil {
				t.Fatal(err)
			}
			got := wrapped.engine.Run(seed)
			if got.Telemetry == nil || want.Telemetry == nil {
				t.Fatal("a run has no telemetry")
			}
			if !reflect.DeepEqual(got.Telemetry.Snapshot(), want.Telemetry.Snapshot()) {
				t.Errorf("%s seed %d: counters differ", name, seed)
			}
			if cfg.Churn && got.Failures == 0 {
				t.Errorf("%s seed %d: no churn event fired", name, seed)
			}
			got.Telemetry, want.Telemetry = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: wrapped result differs from the bare model's", name, seed)
			}
		}
	}
}

// TestMismatchFails checks that a statistics mismatch fails the run.
func TestMismatchFails(t *testing.T) {
	cfg := tinySims["steady"]
	tr, err := buildTrial(cfg, 3, trialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res := tr.engine.Run(3)
	st := statsOf(res)
	ref := st
	ref.Delivered++
	o := &outcome{values: map[string]float64{}}
	if checkTrial(o, "trial", res, st, &ref) || len(o.problems) == 0 {
		t.Fatal("mismatch not detected")
	}
	o.attempted, o.failed = 1, 1
	for _, d := range endToEnd {
		o.values[d.name] = 1
	}
	res2, err := finish(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Correct {
		t.Fatal("a failed check still reads correct")
	}
}

// TestDeferredReferenceFails checks that a trial of an unpinned seed, which
// waits for the reference made after the measured trials, still fails when
// it differs from that reference.
func TestDeferredReferenceFails(t *testing.T) {
	cfg := tinySims["steady"]
	tr, err := buildTrial(cfg, 3, trialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res := tr.engine.Run(3)
	st := statsOf(res)
	o := &outcome{}
	chk := &refCheck{}
	chk.check(o, "trial", res, st)
	if o.attempted != 1 || o.failed != 0 || len(chk.pending) != 1 {
		t.Fatalf("before the reference: attempted %d failed %d pending %d", o.attempted, o.failed, len(chk.pending))
	}
	ref := st
	ref.Events++
	chk.ref = &ref
	if err := chk.resolve(o, cfg, 3); err != nil {
		t.Fatal(err)
	}
	if o.failed != 1 || len(o.problems) != 1 {
		t.Fatalf("after the reference: failed %d problems %v", o.failed, o.problems)
	}
}

// TestPinsMatchWorkloads checks that every simulation workload has pins
// recorded for its current configuration.
func TestPinsMatchWorkloads(t *testing.T) {
	for name, cfg := range simWorkloads {
		if _, pinned, err := pinnedStats(name, cfg, 1); err != nil || !pinned {
			t.Errorf("%s: seed 1 pinned=%v err=%v", name, pinned, err)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	root := l.add("run", "t", -1, 0, 100)
	l.add("child", "t", root, 10, 30)
	l.addAggregate("calls", "t", root, 5, 25)
	self := l.selfTimes()
	if self["run"] != 55 || self["child"] != 20 || self["calls"] != 25 {
		t.Fatalf("self times %v", self)
	}
}
