// Package experiments holds the checks on the paper's evaluation tables as
// they are shipped: the checked-in specs/e1.json … e7.json, loaded through
// the same path `mcc run -spec` uses. The tables have no code of their own;
// every measure runs in internal/scenario, whose tests pin each table's
// output to a golden.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mccmesh/internal/scenario"
)

// loadTable loads specs/<name>.json.
func loadTable(t *testing.T, name string) scenario.Spec {
	t.Helper()
	f, err := os.Open("../../specs/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := scenario.Load(f)
	if err != nil {
		t.Fatalf("specs/%s.json: %v", name, err)
	}
	return sc.Spec()
}

// lightE7 is specs/e7.json at a fault load where every cell delivers and a
// trial count that keeps the sweep fast.
func lightE7(t *testing.T) scenario.Spec {
	spec := loadTable(t, "e7")
	spec.Faults.Counts, spec.Trials = []int{12}, 3
	return spec
}

// TestDefaultConfig pins the settings the paper's tables run at: a 10×10×10
// mesh (the evaluation is on 3-D meshes), table EK drawing from seed stream
// 20050500+K−1, 75 faults for the single-load tables E3/E6/E7, and a
// distance floor of 2 for E3.
func TestDefaultConfig(t *testing.T) {
	kinds := []string{"absorption", "success", "distance", "overhead", "ablation", "adaptivity", "traffic"}
	for k, kind := range kinds {
		name := fmt.Sprintf("e%d", k+1)
		spec := loadTable(t, name)
		if spec.Mesh != scenario.Cube(10) {
			t.Errorf("%s: mesh %+v, want the 10x10x10 evaluation mesh", name, spec.Mesh)
		}
		if want := uint64(20050500 + k); spec.Seed != want {
			t.Errorf("%s: seed %d, want the historical stream %d", name, spec.Seed, want)
		}
		if spec.Measure.Kind != kind {
			t.Errorf("%s: measure %q, want %q", name, spec.Measure.Kind, kind)
		}
		if len(spec.Faults.Counts) == 0 || spec.Trials <= 0 {
			t.Errorf("%s: incomplete sweep: counts %v, trials %d", name, spec.Faults.Counts, spec.Trials)
		}
		if k == 2 || k >= 5 {
			if !reflect.DeepEqual(spec.Faults.Counts, []int{75}) {
				t.Errorf("%s: fault counts %v, want [75]", name, spec.Faults.Counts)
			}
		}
	}
	if d := loadTable(t, "e3").Measure.MinDistance; d != 2 {
		t.Errorf("e3: mindistance %d, want 2", d)
	}
}

// TestE7BitIdenticalAcrossWorkerCounts: trial-level parallelism must not
// change a single byte of the E7 table.
func TestE7BitIdenticalAcrossWorkerCounts(t *testing.T) {
	var csv [2]string
	for i, workers := range []int{1, 8} {
		spec := lightE7(t)
		spec.SetWorkers(workers)
		sc, err := scenario.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		csv[i] = rep.Table.CSV()
	}
	if csv[0] != csv[1] {
		t.Errorf("E7 tables differ between 1 and 8 workers:\n--- 1 worker\n%s\n--- 8 workers\n%s", csv[0], csv[1])
	}
}

// TestE7RejectsUnknownNames: a misspelt traffic pattern or routing model in
// the E7 spec fails at construction, naming the offender.
func TestE7RejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		what string
		edit func(*scenario.Spec)
	}{
		{"pattern", func(s *scenario.Spec) { s.Workload.Patterns = scenario.ComponentsOf("nope") }},
		{"model", func(s *scenario.Spec) { s.Models = scenario.ComponentsOf("mcc", "nope") }},
	} {
		spec := lightE7(t)
		tc.edit(&spec)
		_, err := scenario.New(spec)
		if err == nil {
			t.Errorf("unknown %s should error", tc.what)
		} else if !strings.Contains(err.Error(), "nope") {
			t.Errorf("unknown %s: error %q does not name it", tc.what, err)
		}
	}
}

// TestE7SpecMatchesCheckedInFile: specs/e7.json is in the canonical form
// `-dump-spec` writes, so what `mcc run -spec specs/e7.json -dump-spec`
// prints is the file itself and its digest names exactly what runs.
func TestE7SpecMatchesCheckedInFile(t *testing.T) {
	sc, err := scenario.New(loadTable(t, "e7"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.WriteSpec(&buf); err != nil {
		t.Fatal(err)
	}
	checkedIn, err := os.ReadFile("../../specs/e7.json")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(checkedIn) {
		t.Errorf("specs/e7.json is not in canonical form; regenerate with `mcc run -spec specs/e7.json -dump-spec`.\n--- dumped\n%s\n--- file\n%s", buf.String(), checkedIn)
	}
}
