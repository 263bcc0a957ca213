// Command perfbench is the repository benchmark. It runs one named workload
// through the layers' public functions from outside the program, checks that
// the outputs are correct, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 57, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with tracing
// off; with -trace 1 they are the per-layer ledger of a separate traced run of
// the same workload and seed. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"events_per_s", "events/s"},
	{"setup_s", "s"},
	{"allocs_per_packet", "allocs"},
	{"rss_peak_mb", "MB"},
	{"ok_share", "ratio"},
}

// perLayer is the traced ledger, reported by every workload with tracing on.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"mesh.build_s", "s"},
	{"fault.inject_s", "s"},
	{"core.model_s", "s"},
	{"routing.calls", "count"},
	{"routing.busy_s", "s"},
	{"routing.hit_ns", "ns"},
	{"routing.build_ns", "ns"},
	{"routing.hit_ratio", "ratio"},
	{"routing.field_cold_builds", "count"},
	{"routing.field_evictions", "count"},
	{"routing.field_rebuilds", "count"},
	{"routing.epoch_bumps", "count"},
	{"core.apply_s", "s"},
	{"core.repair_s", "s"},
	{"core.churn_events", "count"},
	{"labeling.relabel_add_nodes", "count"},
	{"labeling.relabel_remove_nodes", "count"},
	{"traffic.dest_busy_s", "s"},
	{"traffic.delivered", "count"},
	{"traffic.stuck", "count"},
	{"simnet.events", "count"},
	{"simnet.self_s", "s"},
	{"simnet.self_ns_per_event", "ns"},
	{"simnet.bucket_peak", "count"},
	{"simnet.heap_events", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes_per_packet", "B"},
	{"server.submit_s_p50", "s"},
	{"server.submit_s_p99", "s"},
	{"server.queue_wait_s_p99", "s"},
	{"server.run_s_p50", "s"},
	{"server.backlog_max", "count"},
	{"server.refused", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.repeat_misses", "count"},
	{"labeling.compute_s", "s"},
	{"region.find_s", "s"},
	{"feasibility.theorem_s", "s"},
	{"feasibility.groundtruth_s", "s"},
	{"routing.route_s", "s"},
	{"routing.route_calls", "count"},
	{"block.build_s", "s"},
	{"client.lag_s_p99", "s"},
	{"trace.overhead", "ratio"},
	{"routing.reconcile_err", "ratio"},
	{"job_s_p50", "s"},
	{"job_s_p99", "s"},
	{"hit_s_p50", "s"},
	{"hit_s_p99", "s"},
	{"max_jobs_per_s", "jobs/s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string // directory for the detail and span files; "" writes none
}

// outcome is what a workload run hands back: operation counts, the raw
// metric values (units are attached from the tables above), the failed
// checks, a detail record for the output file and, when traced, the spans.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	problems          []string
	detail            map[string]any
	spans             *spanLog
}

// fail records one failed check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"steady16": func(rc runConfig) (*outcome, error) { return runSim("steady16", simWorkloads["steady16"], rc) },
	"churn16":  func(rc runConfig) (*outcome, error) { return runSim("churn16", simWorkloads["churn16"], rc) },
	"thrash32": func(rc runConfig) (*outcome, error) { return runSim("thrash32", simWorkloads["thrash32"], rc) },
	"serve-e2": func(rc runConfig) (*outcome, error) { return runServe(serveReference, rc) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced ledger instead of the end-to-end metrics")
	out := fs.String("out", "", "directory for the detail and span files (none when empty)")
	root := fs.String("root", "", "repository root, for the provenance's git commit")
	record := fs.String("record-pins", "", "record pinned statistics for the workload's seeds lo:hi instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if *record != "" {
		if err := recordPins(*name, *record); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	o, err := runner(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	prov := provenance(*root, *name, rc)
	fmt.Printf("provenance: %s\n", compactJSON(prov))
	res, err := finish(o, rc.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if rc.out != "" {
		if err := writeOutputs(rc, *name, prov, o, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	printMetrics(res)
	fmt.Println(compactJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// finish attaches units to the outcome's values and checks that the metric
// set is exactly the one the mode promises.
func finish(o *outcome, traced bool) (*result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(o.values) != len(defs) {
		for k := range o.values {
			if _, ok := res.Metrics[k]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", k)
			}
		}
	}
	return res, nil
}

// printMetrics prints one "name value unit" line per metric, in table order.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// writeOutputs writes the run's detail record (provenance, result and the
// workload's own figures) and, for a traced run, its spans.
func writeOutputs(rc runConfig, name string, prov map[string]any, o *outcome, res *result) error {
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(rc.out, fmt.Sprintf("%s-seed%d-trace%d", name, rc.seed, boolInt(rc.trace)))
	doc := map[string]any{"provenance": prov, "result": res, "detail": o.detail, "problems": o.problems}
	if err := os.WriteFile(base+".json", mustJSON(doc), 0o644); err != nil {
		return err
	}
	if o.spans != nil {
		return o.spans.write(base + ".spans.jsonl")
	}
	return nil
}

// provenance records where and on what the figures were measured.
func provenance(root, name string, rc runConfig) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"trace":      rc.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(root),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the repository's .git directory without
// running git; a checkout without one (an exported tree) reports "unknown".
func gitCommit(root string) string {
	if root == "" {
		return "unknown"
	}
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func compactJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode: %v", err))
	}
	return string(b)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
