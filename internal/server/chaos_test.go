package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mccmesh/internal/scenario"
)

// slowSpec is a job far too large to finish on its own within a test,
// used to pin a worker or fill the queue.
func slowSpec(seed uint64) scenario.Spec {
	spec := testSpec()
	spec.Mesh = scenario.Cube(9)
	spec.Measure.Window = 200000
	spec.Trials = 64
	spec.Seed = seed
	return spec
}

// TestPanicIsolation proves the tentpole's first claim: a panic inside a job
// seals that job as FAILED with the captured stack and the daemon keeps
// serving — the next submission runs to done on the same process.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	s.InjectFault(ChaosRun, ChaosRule{Panic: true, Times: 1})

	info, _ := submitSpec(t, ts, specJSON(t, testSpec()))
	done := waitTerminal(t, ts, info.ID)
	if done.Status != StatusFailed {
		t.Fatalf("panicked job: status %q (err %q), want failed", done.Status, done.Error)
	}
	if !strings.Contains(done.Error, "panic: chaos: injected panic") {
		t.Errorf("error = %q, want the recovered panic value", done.Error)
	}
	if !strings.Contains(done.Stack, "runScenario") {
		t.Errorf("job detail carries no captured stack:\n%s", done.Stack)
	}

	// The process survived: the same spec (the failed run cached nothing)
	// completes on the next attempt.
	second, _ := submitSpec(t, ts, specJSON(t, testSpec()))
	if got := waitTerminal(t, ts, second.ID); got.Status != StatusDone {
		t.Fatalf("post-panic submission: status %q (err %q), want done", got.Status, got.Error)
	}

	counters := s.Counters()
	if counters["server.panics"] != 1 {
		t.Errorf("server.panics = %d, want 1", counters["server.panics"])
	}
	if counters["server.jobs_failed"] != 1 {
		t.Errorf("server.jobs_failed = %d, want 1", counters["server.jobs_failed"])
	}
}

// deadlineSpec is a two-cell job that finishes in milliseconds unless a
// ChaosCell delay stalls it between the cells.
func deadlineSpec() scenario.Spec {
	spec := testSpec()
	spec.Workers = 1
	return spec
}

// checkTimedOut asserts a job sealed TIMEOUT with its completed prefix: the
// first cell finished, the interrupted last cell marked TIMEOUT.
func checkTimedOut(t *testing.T, done JobInfo) {
	t.Helper()
	if done.Status != StatusTimeout {
		t.Fatalf("status = %q (err %q), want timeout", done.Status, done.Error)
	}
	if !strings.Contains(done.Error, "deadline exceeded") {
		t.Errorf("error = %q, want a deadline message", done.Error)
	}
	if done.Report == nil || len(done.Report.Cells) < 2 {
		t.Fatal("timed-out job lost its completed-prefix report")
	}
	if first := done.Report.Cells[0]; first.Err != "" {
		t.Errorf("first cell did not complete before the deadline: %v", first.Row)
	}
	last := done.Report.Cells[len(done.Report.Cells)-1]
	if !strings.Contains(strings.Join(last.Row, " "), "TIMEOUT") {
		t.Errorf("interrupted cell not marked TIMEOUT: %v", last.Row)
	}
}

// TestJobTimeout pins the deadline path: a spec-level timeout seals the job
// as TIMEOUT, keeps the completed cells in the report, and marks the
// interrupted cell. The deadline is driven from the chaos seam, not raced
// against real work: the job stalls after its first cell for twice its
// timeout, so the deadline lands between the two cells however fast they
// run, and the second cell's trials observe it.
func TestJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	spec := deadlineSpec()
	spec.Timeout = 0.25
	s.InjectFault(ChaosCell, ChaosRule{Delay: 500 * time.Millisecond, Times: 1})

	info, _ := submitSpec(t, ts, specJSON(t, spec))
	checkTimedOut(t, waitTerminal(t, ts, info.ID))
	if got := s.Counters()["server.timeouts"]; got != 1 {
		t.Errorf("server.timeouts = %d, want 1", got)
	}

	// The timeout knob is an execution detail: it must not split the digest
	// (and therefore the result cache) from the untimed spec.
	untimed := spec
	untimed.Timeout = 0
	if spec.Digest() != untimed.Digest() {
		t.Error("timeout changes the spec digest; cache sharing is broken")
	}
}

// TestServerJobTimeoutCapsSpec proves the server-wide -job-timeout bounds
// specs that ask for more (or for no deadline at all).
func TestServerJobTimeoutCapsSpec(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1, JobTimeout: 250 * time.Millisecond})
	spec := deadlineSpec()
	// The spec asks for an hour; the server cap wins.
	spec.Timeout = 3600
	s.InjectFault(ChaosCell, ChaosRule{Delay: 500 * time.Millisecond, Times: 1})

	info, _ := submitSpec(t, ts, specJSON(t, spec))
	checkTimedOut(t, waitTerminal(t, ts, info.ID))
	if got := s.Counters()["server.timeouts"]; got != 1 {
		t.Errorf("server.timeouts = %d, want 1", got)
	}
}

// TestDrainEvictsQueuedJobs pins graceful degradation: after BeginDrain, new
// submissions bounce with a structured 503 + Retry-After, the running job is
// left to finish (here: cancelled to unblock the worker), and the queued job
// is sealed EVICTED rather than silently dropped.
func TestDrainEvictsQueuedJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	blocker, _ := submitSpec(t, ts, specJSON(t, slowSpec(100)))
	waitRunning(t, ts, blocker.ID)
	queued, _ := submitSpec(t, ts, specJSON(t, slowSpec(200)))

	s.BeginDrain()

	// Admission is closed: a structured 503 with both the header and the
	// mirrored body field.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(specJSON(t, slowSpec(300))))
	if err != nil {
		t.Fatal(err)
	}
	var payload apiError
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: status %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if payload.Status != http.StatusServiceUnavailable || payload.RetryAfterSec < 1 {
		t.Errorf("structured 503 body = %+v", payload)
	}
	if !strings.Contains(payload.Error, "draining") {
		t.Errorf("503 body error = %q, want a draining message", payload.Error)
	}

	// Unblock the single worker; it then reaches the queued job and evicts it.
	http.Post(ts.URL+"/v1/jobs/"+blocker.ID+"/cancel", "", nil) //nolint:errcheck
	done := waitTerminal(t, ts, queued.ID)
	if done.Status != StatusEvicted {
		t.Fatalf("queued job after drain: status %q, want evicted", done.Status)
	}
	if got := s.Counters()["server.jobs_evicted"]; got != 1 {
		t.Errorf("server.jobs_evicted = %d, want 1", got)
	}
}

// TestJournalReplayAfterCrash is the kill-and-restart gate, with the crash
// injected at the journal-seal point: server A runs a job but "dies" before
// sealing it durably; server B on the same state dir resubmits it and runs it
// to done; server C sees a clean journal and replays nothing.
func TestJournalReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	specScenario := func() *scenario.Scenario {
		sc, err := scenario.New(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}

	a, err := New(Config{Jobs: 1, StateDir: dir, DrainTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Drop every seal append: the crash lands after admission, before the
	// outcome reaches disk.
	a.InjectFault(ChaosJournalSeal, ChaosRule{Err: errors.New("chaos: crash before seal")})
	jobA, err := a.submit(specScenario(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(jobA); err != nil {
		t.Fatal(err)
	}
	a.Close() // the journal now holds a submit record with no seal

	b, err := New(Config{Jobs: 1, StateDir: dir, DrainTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	replayed := b.list()
	if len(replayed) != 1 {
		t.Fatalf("restart registered %d jobs, want 1 replayed", len(replayed))
	}
	job, _ := b.job(replayed[0].ID)
	if err := waitJob(job); err != nil {
		t.Fatalf("replayed job failed: %v", err)
	}
	if got := b.Counters()["server.jobs_replayed"]; got != 1 {
		t.Errorf("server.jobs_replayed = %d, want 1", got)
	}
	// The replay warmed the cache: a user resubmission of the same spec is a
	// free hit.
	hit, err := b.submit(specScenario(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Info(false).Cached {
		t.Error("resubmission after replay missed the cache")
	}
	b.Close() // seal records land this time

	c, err := New(Config{Jobs: 1, StateDir: dir, DrainTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := len(c.list()); n != 0 {
		t.Errorf("second restart replayed %d jobs, want 0 (replay must not loop)", n)
	}
	if got := c.Counters()["server.jobs_replayed"]; got != 0 {
		t.Errorf("second restart: server.jobs_replayed = %d, want 0", got)
	}
}

// TestSealPublishesLast pins the seal order on the done and the
// cancelled-while-queued paths: the outcome is durable (journal seal), cached
// and counted before the terminal state becomes visible. A ChaosPublish delay
// holds every seal between its persistence steps and its visible transition,
// so a waiter woken by a transition that came first would find the journal
// record, the cache entry or the counter missing for the whole delay.
func TestSealPublishesLast(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Jobs: 1, StateDir: dir, DrainTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.InjectFault(ChaosPublish, ChaosRule{Delay: 200 * time.Millisecond})
	unsealed := func() int {
		t.Helper()
		pending, _, err := readJournal(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		return len(pending)
	}

	sc := mustScenario(t, testSpec())
	job, err := s.submit(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(job); err != nil {
		t.Fatal(err)
	}
	if n := unsealed(); n != 0 {
		t.Errorf("job visible as done with %d unsealed journal records", n)
	}
	if got := s.Counters()["server.jobs_completed"]; got != 1 {
		t.Errorf("job visible as done with server.jobs_completed = %d", got)
	}
	if hit, err := s.submit(sc, false); err != nil || !hit.Info(false).Cached {
		t.Errorf("resubmission of a job visible as done missed the cache (err %v)", err)
	}

	// A queued job cancelled behind a running one: the cancel call returns
	// with the job visibly canceled, and by then its seal is on disk.
	blocker, err := s.submit(mustScenario(t, slowSpec(100)), false)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.submit(mustScenario(t, slowSpec(200)), false)
	if err != nil {
		t.Fatal(err)
	}
	if !s.cancelJob(queued) {
		t.Fatal("cancelling a queued job changed nothing")
	}
	if st := queued.Info(false).Status; st != StatusCanceled {
		t.Fatalf("cancelled queued job: status %q, want canceled", st)
	}
	if n := unsealed(); n != 1 {
		t.Errorf("unsealed journal records = %d, want 1 (just the running blocker)", n)
	}
	s.cancelJob(blocker)
}

func mustScenario(t *testing.T, spec scenario.Spec) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestCancelRacesFinalSeal widens the window between a run completing and its
// seal landing (ChaosSeal delay), lands a DELETE inside it, and demands a
// consistent outcome: the completed run stays done, the API stays responsive,
// nothing deadlocks.
func TestCancelRacesFinalSeal(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	s.InjectFault(ChaosSeal, ChaosRule{Delay: 300 * time.Millisecond, Times: 1})
	info, _ := submitSpec(t, ts, specJSON(t, testSpec()))

	// The run has finished once the final cell's done event is in the log;
	// the seal is now sleeping in the chaos delay.
	deadline := time.Now().Add(30 * time.Second)
	for {
		job, _ := s.job(info.ID)
		if evs, _, _ := job.eventsFrom(0); len(evs) >= 4 { // 2 cells x (start+done)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never produced its events")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE during seal: status %d", resp.StatusCode)
	}

	done := waitTerminal(t, ts, info.ID)
	if done.Status != StatusDone {
		t.Fatalf("completed run lost to a late cancel: status %q", done.Status)
	}
	if done.Report == nil || len(done.Report.Cells) != 2 {
		t.Error("report corrupted by the cancel/seal race")
	}
}

// TestEventsFromPastEnd pins `?from=N` beyond the end of a terminal job's
// log: NDJSON returns an empty 200 body, SSE returns just the done frame.
func TestEventsFromPastEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	info, _ := submitSpec(t, ts, specJSON(t, testSpec()))
	waitTerminal(t, ts, info.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events?from=999")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("from past end: status %d, want 200", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("NDJSON from past end returned %d bytes, want empty: %q", len(body), body)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+info.ID+"/events?from=999", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sse, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(sse), "event: done") {
		t.Errorf("SSE from past end = %q, want only the done frame", sse)
	}
}
