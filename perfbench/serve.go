package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"time"

	"mccmesh/internal/rng"
	"mccmesh/internal/scenario"
	"mccmesh/internal/server"
)

// serveConfig sizes the serve-e2 workload.
type serveConfig struct {
	// Dim, Faults and Pairs shape each small E2 spec: a Dim³ mesh, a fault
	// count drawn from Faults, Pairs source/destination pairs, one trial.
	Dim    int
	Faults []int
	Pairs  int
	// Workers is the daemon's job-worker count.
	Workers int
	// RefRate is the fixed arrival rate (jobs/s) at which the latency
	// metrics are measured; HitShare of arrivals resubmit a digest the
	// client has already seen complete.
	RefRate  float64
	HitShare float64
	// RefShare is the share of the run's seconds spent at RefRate; the rest
	// climbs the arrival-rate ladder.
	RefShare float64
	// LimitS is the fresh-job p99 latency limit a ladder rung must meet,
	// and RungS the arrival time of one rung.
	LimitS float64
	RungS  float64
	// Setups is the number of server set-ups timed for setup_s.
	Setups int
}

// serveReference is the serve-e2 workload. Pairs is E2's default pair
// count and the fault counts lie inside E2's default density sweep; the mesh
// size, reference rate (a light-load share of the measured max_jobs_per_s),
// resubmission share and latency limit are choices. README.md gives each
// value's basis.
var serveReference = serveConfig{
	Dim: 8, Faults: []int{16, 20, 24}, Pairs: 10, Workers: 2,
	RefRate: 200, HitShare: 0.5, RefShare: 0.6,
	LimitS: 0.1, RungS: 0.75, Setups: 101,
}

// probeSpec is the spec index of the set-up probes, far from the run's specs.
const probeSpec = 1 << 30

// e2Spec returns the k-th spec of a run. Every phase submits the same spec
// sequence to its own fresh server, so phases are comparable and each spec
// needs one in-process reference run.
func e2Spec(cfg serveConfig, seed uint64, k int) scenario.Spec {
	r := rng.New(rng.Derive(seed, uint64(k)))
	return scenario.Spec{
		Name:    "perfbench-e2",
		Mesh:    scenario.Cube(cfg.Dim),
		Faults:  scenario.FaultSpec{Inject: scenario.C("uniform"), Counts: []int{cfg.Faults[r.Intn(len(cfg.Faults))]}},
		Models:  scenario.ComponentsOf("mcc"),
		Measure: scenario.MeasureSpec{Kind: scenario.MeasureSuccess, Pairs: cfg.Pairs},
		Seed:    r.Uint64(),
		Trials:  1,
	}
}

// submission is one job the client submitted.
type submission struct {
	spec   int  // index of the spec it carries
	resub  bool // a resubmission of a digest already seen complete
	status int  // HTTP status of the POST
	id     string
	cached bool // answered from the result cache

	due, sent, accepted, firstEvent, done time.Time
}

func (s *submission) ok() bool { return s.status == http.StatusOK || s.status == http.StatusAccepted }

func (s *submission) latency() float64 { return s.done.Sub(s.due).Seconds() }

// serveBench holds what the phases of one run share: the marshalled specs
// and the in-process reference reports.
type serveBench struct {
	cfg    serveConfig
	seed   uint64
	bodies [][]byte    // marshalled specs, by index
	refs   map[int]any // decoded in-process reports, by spec index
}

// body returns the marshalled k-th spec.
func (b *serveBench) body(k int) ([]byte, error) {
	for len(b.bodies) <= k {
		buf, err := json.Marshal(e2Spec(b.cfg, b.seed, len(b.bodies)))
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, buf)
	}
	return b.bodies[k], nil
}

// phaseRun is one open-loop phase against its own server. The client calls
// the server's http.Handler in process, with no sockets.
type phaseRun struct {
	srv  *server.Server
	subs []*submission
	end  time.Time // when the arrivals ended

	mu          sync.Mutex
	completed   []int // specs the client has seen complete
	outstanding int   // accepted jobs not yet seen terminal
	backlogMax  int
	wg          sync.WaitGroup
	slots       chan struct{} // closed-loop window; nil in an open loop
}

// phase starts a fresh server and runs Poisson arrivals at rate for dur,
// then waits until every accepted job is terminal. The arrival schedule and
// each arrival's kind derive from the seed; which completed digest a
// resubmission picks depends on what has completed by then. The caller
// checks the phase and closes its server.
func (b *serveBench) phase(idx int, rate float64, dur time.Duration) (*phaseRun, error) {
	srv, err := server.New(server.Config{Jobs: b.cfg.Workers, Queue: 1 << 14, CacheSize: 1 << 16})
	if err != nil {
		return nil, err
	}
	p := &phaseRun{srv: srv}
	r := rng.New(rng.Derive(b.seed, 1<<40+uint64(idx)))
	runtime.GC()
	start := time.Now()
	next := 0
	for t := 0.0; ; {
		t += -math.Log1p(-r.Float64()) / rate
		if t >= dur.Seconds() {
			break
		}
		kind, pick := r.Float64(), r.Float64()
		s := &submission{due: start.Add(time.Duration(t * float64(time.Second)))}
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		p.mu.Lock()
		if kind < b.cfg.HitShare && len(p.completed) > 0 {
			s.resub = true
			s.spec = p.completed[int(pick*float64(len(p.completed)))]
		} else {
			s.spec = next
			next++
		}
		p.mu.Unlock()
		body, err := b.body(s.spec)
		if err == nil {
			err = p.submit(s, body)
		}
		if err != nil {
			p.wg.Wait()
			srv.Close()
			return nil, err
		}
		p.subs = append(p.subs, s)
	}
	p.end = start.Add(dur)
	p.wg.Wait()
	return p, nil
}

// saturate runs a closed loop against a fresh server: it keeps twice the
// worker count of fresh jobs outstanding for dur, so the workers never wait
// for work, and returns the E2 pairs the daemon completed per second. The
// caller checks the phase and closes its server.
func (b *serveBench) saturate(dur time.Duration) (*phaseRun, float64, error) {
	srv, err := server.New(server.Config{Jobs: b.cfg.Workers, Queue: 1 << 14, CacheSize: 1 << 16})
	if err != nil {
		return nil, 0, err
	}
	p := &phaseRun{srv: srv, slots: make(chan struct{}, 2*b.cfg.Workers)}
	runtime.GC()
	start := time.Now()
	for k := 0; time.Since(start) < dur; k++ {
		p.slots <- struct{}{}
		s := &submission{spec: k, due: time.Now()}
		body, err := b.body(k)
		if err == nil {
			err = p.submit(s, body)
		}
		if err != nil {
			p.wg.Wait()
			srv.Close()
			return nil, 0, err
		}
		if !s.ok() || s.cached {
			<-p.slots // no follower will free the slot
		}
		p.subs = append(p.subs, s)
	}
	p.wg.Wait()
	elapsed := time.Since(start)
	p.end = start.Add(elapsed)
	done := 0
	for _, s := range p.subs {
		if s.ok() {
			done++
		}
	}
	return p, float64(done*b.cfg.Pairs) / elapsed.Seconds(), nil
}

// submit POSTs one spec. A cache hit is terminal on return; an accepted job
// gets a goroutine that follows its event stream until it is terminal.
func (p *phaseRun) submit(s *submission, body []byte) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	s.sent = time.Now()
	p.srv.ServeHTTP(rec, req)
	s.accepted = time.Now()
	s.status = rec.Code
	if !s.ok() {
		return nil // refused; counted as failed
	}
	var info jobInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return fmt.Errorf("submit: decode job: %w", err)
	}
	s.id, s.cached = info.ID, info.Cached
	if rec.Code == http.StatusOK {
		s.firstEvent, s.done = s.accepted, s.accepted
		return nil
	}
	p.mu.Lock()
	p.outstanding++
	p.backlogMax = max(p.backlogMax, p.outstanding)
	p.mu.Unlock()
	p.wg.Add(1)
	go p.follow(s)
	return nil
}

// follow streams the job's events until the server ends the stream, which
// it does when the job is terminal.
func (p *phaseRun) follow(s *submission) {
	defer p.wg.Done()
	w := &streamWriter{h: make(http.Header)}
	p.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+s.id+"/events", nil))
	s.done = time.Now()
	s.firstEvent = w.first
	if s.firstEvent.IsZero() {
		s.firstEvent = s.done
	}
	p.mu.Lock()
	p.outstanding--
	if !s.resub {
		p.completed = append(p.completed, s.spec)
	}
	p.mu.Unlock()
	if p.slots != nil {
		<-p.slots
	}
}

// streamWriter receives a job's NDJSON event stream and stamps the first
// event the client sees. Only the handler's goroutine writes to it.
type streamWriter struct {
	h     http.Header
	first time.Time
}

func (w *streamWriter) Header() http.Header { return w.h }
func (w *streamWriter) WriteHeader(int)     {}
func (w *streamWriter) Flush()              {}
func (w *streamWriter) Write(b []byte) (int, error) {
	if w.first.IsZero() && len(b) > 0 {
		w.first = time.Now()
	}
	return len(b), nil
}

// jobInfo is the part of the server's job JSON the client reads.
type jobInfo struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Report json.RawMessage `json:"report"`
}

// fetch returns a job's terminal state with its report.
func (p *phaseRun) fetch(id string) (*jobInfo, error) {
	rec := httptest.NewRecorder()
	p.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("job %s: status %d", id, rec.Code)
	}
	var info jobInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	return &info, nil
}

// timeSetup times server.New until its first submission is accepted, then
// closes the server.
func timeSetup(cfg serveConfig, body []byte) (time.Duration, error) {
	t0 := time.Now()
	srv, err := server.New(server.Config{Jobs: cfg.Workers})
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	d := time.Since(t0)
	srv.Close()
	if rec.Code != http.StatusAccepted {
		return 0, fmt.Errorf("set-up submission: status %d: %s", rec.Code, rec.Body.String())
	}
	return d, nil
}

// rung is one ladder step's outcome.
type rung struct {
	Grid    int     `json:"grid"`
	Rate    float64 `json:"rate"`
	Jobs    int     `json:"jobs"`
	P99     float64 `json:"p99_s"`
	Backlog int     `json:"backlog"`
	Pass    bool    `json:"pass"`
}

// runServe runs serve-e2: timed server set-ups, then the reference-rate
// phase. The untraced run follows it with the closed-loop saturation phase
// (events_per_s); the traced run with the arrival-rate ladder and the E2
// replay. Every phase is followed by its output checks.
func runServe(cfg serveConfig, rc runConfig) (*outcome, error) {
	o := &outcome{detail: map[string]any{}}
	b := &serveBench{cfg: cfg, seed: rc.seed, refs: make(map[int]any)}
	probe, err := json.Marshal(e2Spec(cfg, rc.seed, probeSpec))
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < cfg.Setups; i++ {
		// Each set-up starts from a collected heap, as a fresh daemon would;
		// without it the figure swung by half between runs with whatever
		// the previous set-up left warm.
		runtime.GC()
		d, err := timeSetup(cfg, probe)
		o.attempted++
		if err != nil {
			o.fail("server set-up %d: %v", i, err)
			o.failed++
			continue
		}
		setups = append(setups, d.Seconds())
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ref, err := b.phase(0, cfg.RefRate, time.Duration(cfg.RefShare*rc.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	rss := rssPeakMB() // the serving peak, before the checker's own memory
	st := ref.srv.StatsSnapshot()
	b.check(o, ref)
	ref.srv.Close()
	rest := time.Duration((1 - cfg.RefShare) * rc.seconds * float64(time.Second))

	if !rc.trace {
		sat, pairsPerS, err := b.saturate(rest)
		if err != nil {
			return nil, err
		}
		b.check(o, sat)
		sat.srv.Close()
		o.detail["saturation_jobs"] = len(sat.subs)
		o.values = map[string]float64{
			"events_per_s":      pairsPerS,
			"setup_s":           median(setups),
			"allocs_per_packet": float64(m1.Mallocs-m0.Mallocs) / float64(len(ref.subs)),
			"rss_peak_mb":       rss,
			"ok_share":          float64(o.attempted-o.failed) / float64(o.attempted),
		}
		return o, nil
	}

	rungs, maxRate, err := b.ladder(o, rest)
	if err != nil {
		return nil, err
	}
	o.detail["rungs"] = rungs
	var jobs, hits, submitS, queueS, runS, lag []float64
	refused, misses := 0, 0
	for _, s := range ref.subs {
		if !s.ok() {
			refused++
			continue
		}
		lag = append(lag, s.sent.Sub(s.due).Seconds())
		submitS = append(submitS, s.accepted.Sub(s.sent).Seconds())
		if s.resub {
			hits = append(hits, s.latency())
			if !s.cached {
				misses++
			}
			continue
		}
		jobs = append(jobs, s.latency())
		queueS = append(queueS, s.firstEvent.Sub(s.accepted).Seconds())
		runS = append(runS, s.done.Sub(s.firstEvent).Seconds())
	}
	o.detail["reference_jobs"] = len(jobs)
	o.detail["reference_hits"] = len(hits)
	v := map[string]float64{
		"job_s_p50":               quantile(jobs, 0.5),
		"job_s_p99":               quantile(jobs, 0.99),
		"hit_s_p50":               quantile(hits, 0.5),
		"hit_s_p99":               quantile(hits, 0.99),
		"max_jobs_per_s":          maxRate,
		"server.submit_s_p50":     quantile(submitS, 0.5),
		"server.submit_s_p99":     quantile(submitS, 0.99),
		"server.queue_wait_s_p99": quantile(queueS, 0.99),
		"server.run_s_p50":        quantile(runS, 0.5),
		"server.backlog_max":      float64(ref.backlogMax),
		"server.refused":          float64(refused),
		"server.cache_hit_ratio":  float64(st.Cache.Hits) / float64(max(st.Cache.Hits+st.Cache.Misses, 1)),
		"server.repeat_misses":    float64(misses),
		"client.lag_s_p99":        quantile(lag, 0.99),
	}
	if err := b.replay(o, ref, v); err != nil {
		return nil, err
	}
	fillZeros(v)
	o.values = v
	o.detail["self_ns"] = o.spans.selfTimes()
	return o, nil
}

// ladder finds the highest arrival rate of the grid RefRate·2^(g/16) at
// which a rung meets the latency limit without a growing backlog. It climbs
// by doublings from twice RefRate until a rung fails (or halves while the
// first rung fails), then bisects between the last passing and the first
// failing rung to one grid step (about 4.4%), so every rate it reports was
// tested. Each rung runs against a fresh server and is checked like the
// reference phase. The ladder stops early when budget — arrival and drain
// time, checks excluded — is spent. It returns the rungs and the highest
// passing rate (0 when none passed).
func (b *serveBench) ladder(o *outcome, budget time.Duration) ([]rung, float64, error) {
	rate := func(g int) float64 { return b.cfg.RefRate * math.Exp2(float64(g)/16) }
	rungDur := time.Duration(b.cfg.RungS * float64(time.Second))
	var spent time.Duration
	var rungs []rung
	pass := map[int]bool{}
	try := func(g int) error {
		r := rung{Grid: g, Rate: rate(g)}
		t0 := time.Now()
		p, err := b.phase(len(rungs)+1, r.Rate, rungDur)
		if err != nil {
			return err
		}
		spent += time.Since(t0)
		var lat []float64
		refused := false
		for _, s := range p.subs {
			if !s.ok() {
				refused = true // a refusal misses any limit
				continue
			}
			if !s.resub {
				lat = append(lat, s.latency())
			}
			// Jobs sent before the arrivals ended and still unfinished then
			// are the backlog. Below capacity Little's law bounds it by
			// rate × latency, so more than rate × limit means it grew.
			if s.sent.Before(p.end) && s.done.After(p.end) {
				r.Backlog++
			}
		}
		r.Jobs = len(lat)
		r.P99 = quantile(lat, 0.99)
		r.Pass = !refused && len(lat) > 0 && r.P99 <= b.cfg.LimitS && float64(r.Backlog) <= max(2, r.Rate*b.cfg.LimitS)
		rungs = append(rungs, r)
		pass[g] = r.Pass
		b.check(o, p)
		p.srv.Close()
		return nil
	}
	fits := func() bool { return spent+rungDur+rungDur/2 <= budget }

	// Bracket the limit: lo passes, hi fails.
	lo, hi := math.MinInt, math.MaxInt
	for g := 16; fits() && g > -128; {
		if err := try(g); err != nil {
			return nil, 0, err
		}
		if pass[g] {
			lo = g
			if hi != math.MaxInt {
				break
			}
			g += 16
		} else {
			hi = g
			if lo != math.MinInt {
				break
			}
			g -= 16
		}
	}
	for lo != math.MinInt && hi != math.MaxInt && hi-lo > 1 && fits() {
		mid := lo + (hi-lo)/2
		if err := try(mid); err != nil {
			return nil, 0, err
		}
		if pass[mid] {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == math.MinInt {
		return rungs, 0, nil
	}
	return rungs, rate(lo), nil
}

// check fetches every job of a phase in its terminal state and compares its
// report with an in-process scenario.Run of the same spec; a resubmission's
// report is thereby compared with its original's too. Each spec's reference
// runs once per run.
func (b *serveBench) check(o *outcome, p *phaseRun) {
	for _, s := range p.subs {
		o.attempted++
		if !s.ok() {
			o.fail("submission of spec %d refused with status %d", s.spec, s.status)
			o.failed++
			continue
		}
		info, err := p.fetch(s.id)
		if err != nil {
			o.fail("%v", err)
			o.failed++
			continue
		}
		if info.Status != string(server.StatusDone) {
			o.fail("job %s ended %s", s.id, info.Status)
			o.failed++
			continue
		}
		var got any
		if err := json.Unmarshal(info.Report, &got); err != nil {
			o.fail("job %s report: %v", s.id, err)
			o.failed++
			continue
		}
		want, err := b.reference(s.spec)
		if err != nil {
			o.fail("reference run of spec %d: %v", s.spec, err)
			o.failed++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			o.fail("job %s (spec %d, resubmission %v): report differs from the reference", s.id, s.spec, s.resub)
			o.failed++
		}
	}
}

// reference returns the k-th spec's in-process report in decoded JSON form,
// running it on first use.
func (b *serveBench) reference(k int) (any, error) {
	if v, ok := b.refs[k]; ok {
		return v, nil
	}
	spec := e2Spec(b.cfg, b.seed, k)
	sc, err := scenario.New(spec)
	if err != nil {
		return nil, err
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		return nil, err
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(buf, &v); err != nil {
		return nil, err
	}
	b.refs[k] = v
	return v, nil
}

// replay re-runs the E2 loop of every fresh job of the reference phase, once
// bare and once traced, checks the replayed success rates against the served
// report, and fills the E2 layer ledger.
func (b *serveBench) replay(o *outcome, ref *phaseRun, v map[string]float64) error {
	o.spans = newSpanLog()
	var bare, traced time.Duration
	var lab, reg, thm, gt, rt, blk, calls []float64
	for _, s := range ref.subs {
		if s.resub || s.status != http.StatusAccepted {
			continue
		}
		spec := e2Spec(b.cfg, b.seed, s.spec)
		t0 := time.Now()
		if _, err := (&e2Replay{}).run(spec); err != nil {
			return err
		}
		bare += time.Since(t0)
		x := &e2Replay{sp: o.spans, id: "job-" + s.id}
		t1 := time.Now()
		got, err := x.run(spec)
		if err != nil {
			return err
		}
		traced += time.Since(t1)
		o.attempted++
		if want := servedValues(b.refs[s.spec]); !reflect.DeepEqual(got, want) {
			o.fail("replay of job %s: success rates %v differ from the served %v", s.id, got, want)
			o.failed++
		}
		L := x.layers
		lab = append(lab, L.labeling.Seconds())
		reg = append(reg, L.region.Seconds())
		thm = append(thm, L.theorem.Seconds())
		gt = append(gt, L.groundTruth.Seconds())
		rt = append(rt, L.route.Seconds())
		blk = append(blk, L.block.Seconds())
		calls = append(calls, float64(L.routeCalls))
	}
	v["labeling.compute_s"] = median(lab)
	v["region.find_s"] = median(reg)
	v["feasibility.theorem_s"] = median(thm)
	v["feasibility.groundtruth_s"] = median(gt)
	v["routing.route_s"] = median(rt)
	v["routing.route_calls"] = median(calls)
	v["block.build_s"] = median(blk)
	v["trace.overhead"] = traced.Seconds() / max(bare.Seconds(), 1e-9)
	return nil
}

// servedValues extracts the first cell's values from a decoded report.
func servedValues(rep any) map[string]float64 {
	out := map[string]float64{}
	m, _ := rep.(map[string]any)
	cells, _ := m["cells"].([]any)
	if len(cells) == 0 {
		return out
	}
	cell, _ := cells[0].(map[string]any)
	vals, _ := cell["values"].(map[string]any)
	for k, x := range vals {
		if f, ok := x.(float64); ok {
			out[k] = f
		}
	}
	return out
}
