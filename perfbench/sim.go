package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/simnet"
	"mccmesh/internal/stats"
	"mccmesh/internal/telemetry"
	"mccmesh/internal/traffic"
)

// simConfig is one simulation workload: a cube mesh with uniform static
// faults, hotspot traffic and the mcc information model, optionally with the
// region-shaped fail/repair timeline.
type simConfig struct {
	Dim     int     `json:"dim"`
	Faults  int     `json:"faults"`
	Rate    float64 `json:"rate"`
	Hotspot float64 `json:"hotspot"`
	Warmup  int     `json:"warmup"`
	Window  int     `json:"window"`
	Churn   bool    `json:"churn"`
}

// simWorkloads are the named simulation workloads.
var simWorkloads = map[string]simConfig{
	"steady16": {Dim: 16, Faults: 120, Rate: 0.02, Hotspot: 0.1, Warmup: 50, Window: 500},
	"churn16":  {Dim: 16, Faults: 120, Rate: 0.02, Hotspot: 0.1, Warmup: 50, Window: 500, Churn: true},
	"thrash32": {Dim: 32, Faults: 400, Rate: 0.02, Hotspot: 0.1, Warmup: 50, Window: 200},
}

// faultSalt keys the static fault placement stream, the same stream the
// repository's own traffic benchmarks use.
const faultSalt = uint64(1) << 48

// setupTimes splits one trial's set-up by layer.
type setupTimes struct{ mesh, fault, model, total time.Duration }

// trial is one built, ready-to-run simulation trial.
type trial struct {
	engine *traffic.Engine
	times  setupTimes
}

// newEngineOptions returns the engine options of cfg.
func newEngineOptions(cfg simConfig) (traffic.Options, error) {
	opts := traffic.Options{
		Rate:      cfg.Rate,
		Warmup:    simnet.Time(cfg.Warmup),
		Window:    simnet.Time(cfg.Window),
		MaxEvents: 200_000_000,
	}
	if cfg.Churn {
		shape, err := fault.Build("region", map[string]any{"size": 3})
		if err != nil {
			return opts, err
		}
		opts.Timeline = &fault.Timeline{Until: int64(cfg.Warmup + cfg.Window), MTTF: 40, MTTR: 100, Shape: shape}
	}
	return opts, nil
}

// trialOpts selects how a trial is built. With led set, the model and
// pattern are wrapped for tracing and telemetry is on; shards > 1 runs the
// trial across slab shards.
type trialOpts struct {
	led       *simLedger
	shards    int
	telemetry bool
}

// buildTrial runs one trial's set-up: mesh, faults, the mcc model with its
// providers for all eight orientations (so labelling and region building
// happen here, not lazily inside the timed run), pattern and engine.
func buildTrial(cfg simConfig, seed uint64, to trialOpts) (*trial, error) {
	t0 := time.Now()
	m := mesh.New3D(cfg.Dim, cfg.Dim, cfg.Dim)
	t1 := time.Now()
	fault.Uniform{Count: cfg.Faults}.Inject(m, rng.New(rng.Derive(seed, faultSalt)))
	t2 := time.Now()
	im, err := newMCC(m)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	pat, err := traffic.PatternByName("hotspot", m, cfg.Hotspot)
	if err != nil {
		return nil, err
	}
	opts, err := newEngineOptions(cfg)
	if err != nil {
		return nil, err
	}
	opts.Telemetry = to.telemetry
	if to.led != nil {
		tm, err := newTracedModel(im, to.led)
		if err != nil {
			return nil, err
		}
		im = tm
		pat = &tracedPattern{inner: pat, led: to.led}
		opts.Telemetry = true
	}
	if to.shards > 1 {
		opts.Shards = to.shards
		opts.ShardModel = func() (traffic.InfoModel, error) { return newMCC(m) }
	}
	e := traffic.NewEngine(m, im, pat, opts)
	t4 := time.Now()
	return &trial{engine: e, times: setupTimes{mesh: t1.Sub(t0), fault: t2.Sub(t1), model: t3.Sub(t2), total: t4.Sub(t0)}}, nil
}

// newMCC builds the mcc information model over m and its eight providers.
func newMCC(m *mesh.Mesh) (traffic.InfoModel, error) {
	im, err := traffic.ModelByName("mcc", core.NewModel(m))
	if err != nil {
		return nil, err
	}
	for _, o := range grid.AllOrientations3D() {
		im.Provider(o)
	}
	return im, nil
}

// trialStats are a trial's simulated statistics: the figures pinned per seed
// and compared between runs.
type trialStats struct {
	Events    int     `json:"events"`
	Injected  int     `json:"injected"`
	Delivered int     `json:"delivered"`
	Stuck     int     `json:"stuck"`
	Lost      int     `json:"lost"`
	Latency   []int64 `json:"latency"`
	Hops      []int64 `json:"hops"`
}

func statsOf(r *traffic.Result) trialStats {
	return trialStats{
		Events: r.Events, Injected: r.Injected, Delivered: r.Delivered, Stuck: r.Stuck, Lost: r.Lost,
		Latency: histCounts(&r.Latency), Hops: histCounts(&r.Hops),
	}
}

// histCounts reads a histogram's per-value counts. stats.Histogram keeps them
// unexported; reflection reads them without widening the program's API.
func histCounts(h *stats.Histogram) []int64 {
	v := reflect.ValueOf(h).Elem().FieldByName("counts")
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.Index(i).Int()
	}
	for len(out) > 0 && out[len(out)-1] == 0 {
		out = out[:len(out)-1]
	}
	return out
}

// checkTrial applies the per-trial output checks: no simulator error, packet
// conservation, and equality with the reference statistics when ref is set.
func checkTrial(o *outcome, label string, r *traffic.Result, st trialStats, ref *trialStats) bool {
	ok := true
	if r.Err != nil {
		o.fail("%s: simulator error: %v", label, r.Err)
		ok = false
	}
	if st.Injected != st.Delivered+st.Stuck+st.Lost {
		o.fail("%s: injected %d != delivered %d + stuck %d + lost %d", label, st.Injected, st.Delivered, st.Stuck, st.Lost)
		ok = false
	}
	if st.Delivered == 0 {
		o.fail("%s: no packet delivered", label)
		ok = false
	}
	if ref != nil && !matchRef(o, label, st, *ref) {
		ok = false
	}
	return ok
}

// matchRef checks a trial's statistics against the reference.
func matchRef(o *outcome, label string, st, ref trialStats) bool {
	if reflect.DeepEqual(st, ref) {
		return true
	}
	o.fail("%s: statistics differ from the reference (events %d vs %d, delivered %d vs %d)",
		label, st.Events, ref.Events, st.Delivered, ref.Delivered)
	return false
}

// refCheck holds the statistics every trial of a run must reproduce. For a
// pinned seed they are the pinned ones. Otherwise they come from a sharded
// run of the same trial (an independent code path that is bit-identical to
// the sequential loop), made by resolve only after the measured trials, so
// its memory and time stay out of their figures; until then the trials that
// passed the other checks wait in pending.
type refCheck struct {
	ref     *trialStats
	pending []pendingTrial
}

type pendingTrial struct {
	label string
	stats trialStats
}

// check applies the per-trial checks to one trial and counts it.
func (c *refCheck) check(o *outcome, label string, r *traffic.Result, st trialStats) {
	o.attempted++
	if !checkTrial(o, label, r, st, c.ref) {
		o.failed++
	} else if c.ref == nil {
		c.pending = append(c.pending, pendingTrial{label, st})
	}
}

// resolve makes the sharded reference of an unpinned seed and checks the
// trials that waited for it.
func (c *refCheck) resolve(o *outcome, cfg simConfig, seed uint64) error {
	if c.ref == nil {
		tr, err := buildTrial(cfg, seed, trialOpts{shards: 2})
		if err != nil {
			return err
		}
		st := statsOf(tr.engine.Run(seed))
		c.ref = &st
	}
	for _, p := range c.pending {
		if !matchRef(o, p.label, p.stats, *c.ref) {
			o.failed++
		}
	}
	c.pending = nil
	return nil
}

// runSim runs one simulation workload: untraced trials for the end-to-end
// metrics, or alternating untraced/traced trials for the per-layer ledger.
// Every trial of a run uses the same seed, so each must reproduce the
// reference statistics.
func runSim(name string, cfg simConfig, rc runConfig) (*outcome, error) {
	o := &outcome{detail: map[string]any{"config": cfg}}
	ref, pinned, err := pinnedStats(name, cfg, rc.seed)
	if err != nil {
		return nil, err
	}
	o.detail["pinned"] = pinned
	chk := &refCheck{ref: ref}
	if rc.trace {
		err = traceSim(o, cfg, rc, chk)
	} else {
		err = measureSim(o, cfg, rc, chk, setupsPerTrial[name])
	}
	if err != nil {
		return nil, err
	}
	if err := chk.resolve(o, cfg, rc.seed); err != nil {
		return nil, err
	}
	if !rc.trace {
		o.values["ok_share"] = float64(o.attempted-o.failed) / float64(o.attempted)
	}
	return o, nil
}

// setupsPerTrial is how many set-ups each untraced trial of a workload times
// for setup_s (the last one is run; one when unlisted). thrash32 fits only a
// few trials in a run, so each of its trials times several set-ups and the
// median is taken over dozens of samples, not a handful.
var setupsPerTrial = map[string]int{"thrash32": 16}

// untracedTrial is the measurement of one untraced trial.
type untracedTrial struct {
	setups             []time.Duration // total set-up times, the run trial's last
	run                time.Duration
	stats              trialStats
	mallocs, allocated uint64
	gcs                uint32
}

// runUntraced builds a trial setups times (at least once), each after a
// collection so every set-up and the run start from the same heap, and runs
// the last one.
func runUntraced(o *outcome, cfg simConfig, seed uint64, label string, chk *refCheck, setups int) (*untracedTrial, error) {
	u := &untracedTrial{}
	var tr *trial
	for k := 0; k < max(setups, 1); k++ {
		tr = nil // the previous set-up is garbage before the collection
		runtime.GC()
		var err error
		tr, err = buildTrial(cfg, seed, trialOpts{})
		if err != nil {
			return nil, err
		}
		u.setups = append(u.setups, tr.times.total)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res := tr.engine.Run(seed)
	u.run = time.Since(t0)
	runtime.ReadMemStats(&m1)
	u.stats = statsOf(res)
	u.mallocs, u.allocated, u.gcs = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	chk.check(o, label, res, u.stats)
	return u, nil
}

// measureSim runs untraced trials for the run's duration.
func measureSim(o *outcome, cfg simConfig, rc runConfig, chk *refCheck, setupsEach int) error {
	var evps, setups []float64
	var mallocs uint64
	var delivered, events int
	var runTime float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < rc.seconds; i++ {
		u, err := runUntraced(o, cfg, rc.seed, fmt.Sprintf("trial %d", i), chk, setupsEach)
		if err != nil {
			return err
		}
		evps = append(evps, float64(u.stats.Events)/u.run.Seconds())
		for _, d := range u.setups {
			setups = append(setups, d.Seconds())
		}
		mallocs += u.mallocs
		delivered += u.stats.Delivered
		events += u.stats.Events
		runTime += u.run.Seconds()
	}
	o.detail["trials"] = len(evps)
	o.detail["events_per_s"] = evps
	o.detail["setups"] = len(setups)
	// The rate is the total over the run's trials, not the median of
	// per-trial rates: a shared host can alternate between a fast and a slow
	// mode for minutes at a time, and a median lands on whichever mode held
	// more trials, while the total weighs each mode by the time it held.
	o.values = map[string]float64{
		"events_per_s":      float64(events) / runTime,
		"setup_s":           median(setups),
		"allocs_per_packet": float64(mallocs) / float64(max(delivered, 1)),
		"rss_peak_mb":       rssPeakMB(), // before an unpinned seed's reference run
	}
	return nil
}

// tracedTrial is the ledger of one traced trial.
type tracedTrial struct {
	led     *simLedger
	setup   setupTimes
	run     time.Duration
	tel     *telemetry.Sink
	stats   trialStats
	churnEv int
}

// traceSim alternates untraced and traced trials of the same seed for the
// run's duration. The untraced side gives the tracing overhead and the
// runtime figures; the traced side gives the layer ledger. Both must
// reproduce the reference statistics, so tracing is shown not to change the
// simulation.
func traceSim(o *outcome, cfg simConfig, rc runConfig, chk *refCheck) error {
	clock := clockCost()
	o.spans = newSpanLog()
	var plain, traced []float64
	var untr []*untracedTrial
	var trs []*tracedTrial
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < rc.seconds; i++ {
		u, err := runUntraced(o, cfg, rc.seed, fmt.Sprintf("untraced trial %d", i), chk, 1)
		if err != nil {
			return err
		}
		untr = append(untr, u)
		plain = append(plain, u.run.Seconds())
		t, err := runTraced(o, cfg, rc.seed, i, clock, chk)
		if err != nil {
			return err
		}
		trs = append(trs, t)
		traced = append(traced, t.run.Seconds())
	}
	v := simLedgerValues(trs, untr)
	v["trace.overhead"] = median(traced) / median(plain)
	fillZeros(v)
	o.values = v
	o.detail["clock_ns"] = clock
	o.detail["pairs"] = len(trs)
	o.detail["self_ns"] = o.spans.selfTimes()
	return nil
}

// runTraced builds and runs one traced trial, recording its spans.
func runTraced(o *outcome, cfg simConfig, seed uint64, i int, clock int64, chk *refCheck) (*tracedTrial, error) {
	runtime.GC()
	sp := o.spans
	id := fmt.Sprintf("trial-%d", i)
	led := &simLedger{clock: clock, spans: sp, id: id}
	root := sp.add("trial", id, -1, sp.now(), 0)
	tr, err := buildTrial(cfg, seed, trialOpts{led: led})
	if err != nil {
		return nil, err
	}
	setup := sp.add("setup", id, root, sp.spans[root].Start, sp.spans[root].Start+int64(tr.times.total))
	s0 := sp.spans[root].Start
	s1 := s0 + int64(tr.times.mesh)
	s2 := s1 + int64(tr.times.fault)
	sp.add("mesh.build", id, setup, s0, s1)
	sp.add("fault.inject", id, setup, s1, s2)
	sp.add("core.model", id, setup, s2, s2+int64(tr.times.model))
	runStart := sp.now()
	led.parent = sp.add("engine.run", id, root, runStart, 0)
	t0 := time.Now()
	res := tr.engine.Run(seed)
	run := time.Since(t0)
	end := sp.now()
	sp.spans[led.parent].End = end
	sp.spans[root].End = end
	sp.addAggregate("routing.candidate_mask", id, led.parent, led.hits+led.builds, led.hitNs+led.buildNs)
	sp.addAggregate("traffic.dest", id, led.parent, led.dests, led.destNs)
	t := &tracedTrial{led: led, setup: tr.times, run: run, tel: res.Telemetry, stats: statsOf(res), churnEv: res.Failures + res.Repairs}
	if res.Telemetry == nil {
		o.attempted++
		o.fail("traced trial %d: no telemetry sink", i)
		o.failed++
	} else {
		chk.check(o, fmt.Sprintf("traced trial %d", i), res, t.stats)
	}
	return t, nil
}

// simLedgerValues reduces the traced trials to the per-layer metrics: times
// are medians over trials, counts are per trial (every trial of a run has the
// same inputs, so its counts repeat exactly).
func simLedgerValues(trs []*tracedTrial, untr []*untracedTrial) map[string]float64 {
	med := func(f func(t *tracedTrial) float64) float64 {
		xs := make([]float64, len(trs))
		for i, t := range trs {
			xs[i] = f(t)
		}
		return median(xs)
	}
	first := trs[0]
	get := func(id telemetry.CounterID) float64 { return float64(first.tel.Get(id)) }
	calls := float64(first.led.hits + first.led.builds)
	busy := med(func(t *tracedTrial) float64 { return float64(t.led.hitNs+t.led.buildNs) / 1e9 })
	hitNs := med(func(t *tracedTrial) float64 { return t.led.hitHist.quantile(0.5) })
	buildNs := med(func(t *tracedTrial) float64 { return t.led.buildHist.quantile(0.5) })
	self := med(func(t *tracedTrial) float64 {
		l := t.led
		return float64(int64(t.run)-l.hitNs-l.buildNs-l.destNs-l.applyNs-l.repairNs) / 1e9
	})
	v := map[string]float64{
		"mesh.build_s":                  med(func(t *tracedTrial) float64 { return t.setup.mesh.Seconds() }),
		"fault.inject_s":                med(func(t *tracedTrial) float64 { return t.setup.fault.Seconds() }),
		"core.model_s":                  med(func(t *tracedTrial) float64 { return t.setup.model.Seconds() }),
		"routing.calls":                 calls,
		"routing.busy_s":                busy,
		"routing.hit_ns":                hitNs,
		"routing.build_ns":              buildNs,
		"routing.hit_ratio":             float64(first.led.hits) / max(calls, 1),
		"routing.field_cold_builds":     get(telemetry.FieldColdBuilds),
		"routing.field_evictions":       get(telemetry.FieldEvictions),
		"routing.field_rebuilds":        get(telemetry.FieldRebuilds),
		"routing.epoch_bumps":           get(telemetry.FieldEpochBumps),
		"core.apply_s":                  med(func(t *tracedTrial) float64 { return float64(t.led.applyNs) / 1e9 }),
		"core.repair_s":                 med(func(t *tracedTrial) float64 { return float64(t.led.repairNs) / 1e9 }),
		"core.churn_events":             float64(first.churnEv),
		"labeling.relabel_add_nodes":    get(telemetry.RelabelAddNodes),
		"labeling.relabel_remove_nodes": get(telemetry.RelabelRemoveNodes),
		"traffic.dest_busy_s":           med(func(t *tracedTrial) float64 { return float64(t.led.destNs) / 1e9 }),
		"traffic.delivered":             float64(first.stats.Delivered),
		"traffic.stuck":                 float64(first.stats.Stuck),
		"simnet.events":                 float64(first.stats.Events),
		"simnet.self_s":                 self,
		"simnet.self_ns_per_event":      self * 1e9 / float64(max(first.stats.Events, 1)),
		"simnet.bucket_peak":            get(telemetry.SimBucketPeak),
		"simnet.heap_events":            get(telemetry.SimHeapEvents),
		"routing.reconcile_err":         reconcileErr(float64(first.led.hits), hitNs, float64(first.led.builds), buildNs, busy),
	}
	var gcs, bytes, delivered float64
	for _, u := range untr {
		gcs += float64(u.gcs)
		bytes += float64(u.allocated)
		delivered += float64(u.stats.Delivered)
	}
	v["runtime.gc_cycles"] = gcs / float64(len(untr))
	v["runtime.alloc_bytes_per_packet"] = bytes / max(delivered, 1)
	return v
}

// reconcileErr is the routing layer's cross-check: how far the two-cost model
// (hits at the typical hit cost plus builds at the typical build cost) is
// from the layer's measured busy time, as a share of that time.
func reconcileErr(hits, hitNs, builds, buildNs, busyS float64) float64 {
	if busyS <= 0 {
		return 0
	}
	d := (hits*hitNs+builds*buildNs)/1e9 - busyS
	if d < 0 {
		d = -d
	}
	return d / busyS
}

// fillZeros sets every ledger figure a workload does not measure to zero:
// the simulations never call the daemon or the E2 loop, and serve-e2 never
// runs the traffic engine.
func fillZeros(v map[string]float64) {
	for _, d := range perLayer {
		if _, ok := v[d.name]; !ok {
			v[d.name] = 0
		}
	}
}
