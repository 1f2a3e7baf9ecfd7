package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/config"
	"repro/internal/resultcodec"
	"repro/internal/store"
)

// gatedRunner serves one engine call per token and aborts the in-flight
// call when the job context is cancelled — the same contract the real
// engine honors through rescq.RunContext. Tests use it to freeze a job
// mid-configuration (simulating a long run or a crash point) and to
// observe prompt cancellation.
type gatedRunner struct {
	calls   atomic.Int64
	aborted atomic.Int64
	tokens  chan struct{}
	started chan struct{} // receives one token per call entering the gate
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{tokens: make(chan struct{}, 64), started: make(chan struct{}, 64)}
}

func (r *gatedRunner) admit(ctx context.Context) error {
	r.calls.Add(1)
	select {
	case r.started <- struct{}{}:
	default:
	}
	select {
	case <-r.tokens:
		return nil
	case <-ctx.Done():
		r.aborted.Add(1)
		return fmt.Errorf("engine aborted mid-run: %w", ctx.Err())
	}
}

func (r *gatedRunner) Run(ctx context.Context, bench string, opts rescq.Options) (rescq.Summary, error) {
	if err := r.admit(ctx); err != nil {
		return rescq.Summary{}, err
	}
	return fakeSummary(bench, opts), nil
}

func (r *gatedRunner) RunCircuitText(ctx context.Context, name, text string, opts rescq.Options) (rescq.Summary, error) {
	if err := r.admit(ctx); err != nil {
		return rescq.Summary{}, err
	}
	return fakeSummary(name, opts), nil
}

func (r *gatedRunner) Experiment(ctx context.Context, id string, quick bool) (string, error) {
	if err := r.admit(ctx); err != nil {
		return "", err
	}
	return fmt.Sprintf("report:%s:quick=%t", id, quick), nil
}

// fourConfigSweep is the restart-resume workload: 2 benchmarks x 2
// schedulers, deterministic under the fake runner.
var fourConfigSweep = SweepRequest{
	Benchmarks: []string{"gcm_n13", "qft_n18"},
	Schedulers: []string{"rescq", "greedy"},
	Runs:       1,
	Async:      true,
}

func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRestartResumeAfterCrash is the durability acceptance test at the
// service level: a sweep is interrupted mid-flight (the daemon "crashes"
// with the WAL as a SIGKILL would leave it — no clean close), a second
// server replays the same store dir, re-enqueues the job, resumes at the
// first unfinished configuration, and the completed result set is
// byte-identical to an uninterrupted run.
func TestRestartResumeAfterCrash(t *testing.T) {
	dir := t.TempDir()

	// --- Server A: run 2 of 4 configurations, then "crash". ---
	runnerA := newGatedRunner()
	a := New(config.Daemon{Workers: 1}, runnerA)
	if _, err := a.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	a.Start()
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	submitted := decode[JobView](t, postJSON(t, tsA.URL+"/v1/sweep", fourConfigSweep))
	if submitted.ID == "" {
		t.Fatalf("submit failed: %+v", submitted)
	}
	runnerA.tokens <- struct{}{}
	runnerA.tokens <- struct{}{}
	pollUntil(t, "two configurations to persist", func() bool {
		resp, err := http.Get(tsA.URL + "/v1/jobs/" + submitted.ID)
		if err != nil {
			return false
		}
		return decode[JobView](t, resp).Progress.Done == 2
	})
	// Server A is abandoned mid-flight: its worker stays parked at the
	// gate and no terminal marker is ever written, so the WAL holds the
	// job record, two results, and nothing else — exactly a SIGKILL's
	// leavings. Only the flock must be released by hand (a real process
	// death releases it in the kernel; cmd/rescqd's subprocess test
	// covers that path literally), which closeStore does without adding
	// records for the interrupted job.
	a.closeStore()

	// --- Server B: replay the same store dir and resume. ---
	runnerB := newGatedRunner()
	b := New(config.Daemon{Workers: 1}, runnerB)
	rs, err := b.AttachStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Jobs != 1 || rs.Results != 2 || rs.Reenqueued != 1 || rs.Reseeded != 2 {
		t.Fatalf("replay stats = %+v, want 1 job / 2 results / 1 re-enqueued / 2 re-seeded", rs)
	}
	b.Start()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	runnerB.tokens <- struct{}{}
	runnerB.tokens <- struct{}{}
	final := waitForJob(t, tsB.URL, submitted.ID) // same job id across the restart
	if final.State != JobDone || final.Progress.Done != 4 {
		t.Fatalf("resumed job = %+v", final)
	}
	if got := runnerB.calls.Load(); got != 2 {
		t.Fatalf("restarted daemon ran the engine %d times, want 2 (configs 0-1 must come from the WAL)", got)
	}
	if jobs, results := b.stats.ReplayedJobs.Load(), b.stats.ReplayedResults.Load(); jobs != 1 || results != 2 {
		t.Fatalf("replay counters = %d/%d, want 1/2", jobs, results)
	}

	// --- Server C: the uninterrupted control run. ---
	c := New(config.Daemon{Workers: 1}, &countingRunner{})
	c.Start()
	tsC := httptest.NewServer(c.Handler())
	defer tsC.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	}()
	control := fourConfigSweep
	control.Async = false
	controlView := decode[JobView](t, postJSON(t, tsC.URL+"/v1/sweep", control))
	if controlView.State != JobDone {
		t.Fatalf("control sweep = %+v", controlView)
	}

	resumedView := decode[JobView](t, func() *http.Response {
		resp, err := http.Get(tsB.URL + "/v1/jobs/" + submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}())
	got, _ := json.Marshal(resumedView.Results)
	want, _ := json.Marshal(controlView.Results)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed results differ from uninterrupted run:\nresumed: %s\ncontrol: %s", got, want)
	}

	// /metrics exposes the replayed counters and store gauges.
	resp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rescqd_replayed_jobs_total 1",
		"rescqd_replayed_results_total 2",
		"rescqd_store_records",
		"rescqd_store_bytes",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Tidy shutdown of B; A's abandoned worker is released last (its
	// stale writes land on an unlinked inode or are compacted away).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("B shutdown: %v", err)
	}
	close(runnerA.tokens)
	ashCtx, ashCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ashCancel()
	a.Shutdown(ashCtx)
}

// binaryWALHeader opens every binary store file: the magic and format
// version internal/store stamps, then a newline.
const binaryWALHeader = "RQWAL\x00\x01\n"

// rewriteAsJSONEra rewrites the binary store files in dir as the JSON-era
// files a daemon from before the binary codec would have written for the
// same jobs: one JSON line per job, result and done record, through a
// plain json.Encoder, with result payloads in their JSON form. Auxiliary
// state records are not carried over; the analytics aggregate is
// re-folded from the results on replay.
func rewriteAsJSONEra(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{store.SnapName, store.WALName} {
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs, _, dropped, err := store.Replay(bytes.NewReader(raw))
		if err != nil || dropped != 0 {
			t.Fatalf("replay %s: dropped %d, err %v", name, dropped, err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, j := range jobs {
			if j.Job.Specs, err = resultcodec.JSON(j.Job.Specs); err != nil {
				t.Fatal(err)
			}
			recs := []any{j.Job}
			for _, r := range j.Results {
				if r.Result, err = resultcodec.JSON(r.Result); err != nil {
					t.Fatal(err)
				}
				recs = append(recs, r)
			}
			if j.Terminal() {
				recs = append(recs, store.DoneRecord{Type: "done", JobID: j.Job.ID, State: j.State, Error: j.Error})
			}
			for _, rec := range recs {
				if err := enc.Encode(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkStoreFilesBinary asserts that every store file in dir opens with
// the binary header.
func checkStoreFilesBinary(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{store.SnapName, store.WALName} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !strings.HasPrefix(string(raw), binaryWALHeader) {
			t.Fatalf("%s is not binary (err=%v, head=%q)", name, err, raw[:min(len(raw), 8)])
		}
	}
}

// TestRestartResumeFromJSONSeededStore is the codec-migration acceptance
// test: a daemon is interrupted mid-sweep and its log is rewritten in the
// JSON-era format, then a new daemon reboots on the same store dir. The
// JSON-era records must replay unchanged (same job id, same completed
// prefix), the open must migrate the files to the binary codec, and the
// resumed result set must stay byte-identical to an uninterrupted run.
func TestRestartResumeFromJSONSeededStore(t *testing.T) {
	dir := t.TempDir()

	// --- Server A: runs 2 of 4 configurations, then crashes. ---
	runnerA := newGatedRunner()
	a := New(config.Daemon{Workers: 1}, runnerA)
	if _, err := a.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	a.Start()
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	submitted := decode[JobView](t, postJSON(t, tsA.URL+"/v1/sweep", fourConfigSweep))
	runnerA.tokens <- struct{}{}
	runnerA.tokens <- struct{}{}
	pollUntil(t, "two configurations to persist", func() bool {
		resp, err := http.Get(tsA.URL + "/v1/jobs/" + submitted.ID)
		if err != nil {
			return false
		}
		return decode[JobView](t, resp).Progress.Done == 2
	})
	a.closeStore()
	rewriteAsJSONEra(t, dir)

	// --- Server B: a daemon on the JSON-era store dir. ---
	runnerB := newGatedRunner()
	b := New(config.Daemon{Workers: 1}, runnerB)
	rs, err := b.AttachStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Jobs != 1 || rs.Results != 2 || rs.Reenqueued != 1 {
		t.Fatalf("replay stats = %+v, want 1 job / 2 results / 1 re-enqueued", rs)
	}
	// The first Open migrated the JSON-era files forward.
	checkStoreFilesBinary(t, dir)
	b.Start()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	runnerB.tokens <- struct{}{}
	runnerB.tokens <- struct{}{}
	final := waitForJob(t, tsB.URL, submitted.ID)
	if final.State != JobDone || final.Progress.Done != 4 {
		t.Fatalf("resumed job = %+v", final)
	}
	if got := runnerB.calls.Load(); got != 2 {
		t.Fatalf("engine ran %d times after migration, want 2 (configs 0-1 must replay from the JSON records)", got)
	}

	// Byte-identical to an uninterrupted control run.
	c := New(config.Daemon{Workers: 1}, &countingRunner{})
	c.Start()
	tsC := httptest.NewServer(c.Handler())
	defer tsC.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	}()
	control := fourConfigSweep
	control.Async = false
	controlView := decode[JobView](t, postJSON(t, tsC.URL+"/v1/sweep", control))
	resumedView := decode[JobView](t, get(t, tsB.URL+"/v1/jobs/"+submitted.ID))
	got, _ := json.Marshal(resumedView.Results)
	want, _ := json.Marshal(controlView.Results)
	if !bytes.Equal(got, want) {
		t.Fatalf("migrated+resumed results differ from uninterrupted run:\nresumed: %s\ncontrol: %s", got, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("B shutdown: %v", err)
	}
	close(runnerA.tokens)
	ashCtx, ashCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ashCancel()
	a.Shutdown(ashCtx)

	// The store dir is binary end to end now: a third open replays the
	// migrated snapshot and appends binary without another compaction.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Stats().Compactions; n != 0 {
		t.Fatalf("reopening the migrated store compacted %d times, want 0", n)
	}
	for _, rj := range st.Replayed() {
		if rj.Job.ID == submitted.ID && len(rj.Results) == 4 {
			return
		}
	}
	t.Fatalf("job %s with 4 results not found after migration", submitted.ID)
}

// TestWALHistoryAndCacheReseed: finished jobs replay as inspectable
// history, and their results re-seed the cache under the same canonical
// keys — including the stripped-latency subtlety: a post-restart request
// that wants the latency arrays must recompute instead of serving the
// stripped value.
func TestWALHistoryAndCacheReseed(t *testing.T) {
	dir := t.TempDir()
	req := RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Runs: 2, Seed: 7}}

	a := New(config.Daemon{}, &countingRunner{})
	if _, err := a.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	a.Start()
	tsA := httptest.NewServer(a.Handler())
	first := decode[RunResponse](t, postJSON(t, tsA.URL+"/v1/run", req))
	if first.State != JobDone {
		t.Fatalf("first run = %+v", first)
	}
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	runnerB := &countingRunner{}
	b := New(config.Daemon{}, runnerB)
	if _, err := b.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	b.Start()
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(func() {
		tsB.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.Shutdown(ctx)
	})

	// History listing survives the restart.
	resp, err := http.Get(tsB.URL + "/v1/jobs/" + first.JobID)
	if err != nil {
		t.Fatal(err)
	}
	hist := decode[JobView](t, resp)
	if hist.State != JobDone || len(hist.Results) != 1 || hist.Results[0].Summary == nil {
		t.Fatalf("replayed history = %+v", hist)
	}
	if hist.Results[0].Summary.MeanCycles != first.Summary.MeanCycles {
		t.Fatalf("replayed summary differs: %v vs %v", hist.Results[0].Summary.MeanCycles, first.Summary.MeanCycles)
	}

	// Identical submission: served from the re-seeded cache, engine idle.
	second := decode[RunResponse](t, postJSON(t, tsB.URL+"/v1/run", req))
	if !second.Cached || runnerB.calls.Load() != 0 {
		t.Fatalf("post-restart identical run: cached=%v calls=%d, want cached/0", second.Cached, runnerB.calls.Load())
	}
	sa, _ := json.Marshal(first.Summary)
	sb, _ := json.Marshal(second.Summary)
	if !bytes.Equal(sa, sb) {
		t.Fatalf("re-seeded summary not byte-identical:\n%s\n%s", sa, sb)
	}

	// The WAL stores latencies stripped, so include_latencies must
	// recompute rather than serve the partial value.
	lat := req
	lat.IncludeLatencies = true
	third := decode[RunResponse](t, postJSON(t, tsB.URL+"/v1/run", lat))
	if third.Cached || runnerB.calls.Load() != 1 {
		t.Fatalf("include_latencies after restart: cached=%v calls=%d, want recompute", third.Cached, runnerB.calls.Load())
	}
	if len(third.Summary.Runs) == 0 || len(third.Summary.Runs[0].CNOTLatencies) == 0 {
		t.Fatalf("recomputed summary lost its latencies: %+v", third.Summary.Runs)
	}

	// /metrics reports the WAL's size and what replay recovered.
	prom := scrapeMetrics(t, tsB.URL)
	if v, ok := sampleValue(prom, "rescqd_store_records"); !ok || v == 0 {
		t.Fatalf("rescqd_store_records = %v (present %v), want > 0", v, ok)
	}
	if v, _ := sampleValue(prom, "rescqd_replayed_jobs_total"); v != 1 {
		t.Fatalf("rescqd_replayed_jobs_total = %v, want 1", v)
	}
}

// TestStaleReportNotServed: replay re-seeds the cache from every keyed
// result, so a report persisted under an older report format must not
// answer a new request for the same experiment. The store holds a
// fig14 report under the key daemons wrote before reports were versioned.
func TestStaleReportNotServed(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := json.Marshal([]runSpec{{Spec: resultcodec.Spec{Experiment: "fig14", Quick: true}}})
	for _, err := range []error{
		st.AppendJob(store.JobRecord{ID: "job-000001", Kind: "run", Created: time.Now(), Specs: specs}),
		st.AppendResult(store.ResultRecord{JobID: "job-000001", Key: "exp:fig14:quick=true",
			Result: json.RawMessage(`{"index":0,"cached":false,"report":"stale fig14"}`)}),
		st.AppendDone(store.DoneRecord{JobID: "job-000001", State: "done"}),
		st.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	runner := &countingRunner{}
	s := New(config.Daemon{}, runner)
	rs, err := s.AttachStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Reseeded != 1 {
		t.Fatalf("replay stats = %+v, want the old report re-seeded", rs)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdownServer(t, s)
	})
	resp := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", RunRequest{Experiment: "fig14", Quick: true}))
	if resp.Cached || resp.Report != "report:fig14:quick=true" || runner.calls.Load() != 1 {
		t.Fatalf("fig14 = cached %v, report %q after %d engine calls; want a fresh report",
			resp.Cached, resp.Report, runner.calls.Load())
	}
}

// TestResumeEndpoint: a cancelled sweep resumes as a fresh job that
// inherits the completed prefix verbatim and executes only the rest.
func TestResumeEndpoint(t *testing.T) {
	runner := newGatedRunner()
	s, ts := newTestServer(t, config.Daemon{Workers: 1}, runner)

	req := SweepRequest{Benchmarks: []string{"gcm_n13"}, Schedulers: []string{"rescq", "greedy", "autobraid"}, Runs: 1, Async: true}
	submitted := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", req))

	// While running: resume conflicts.
	<-runner.started
	resp := postJSON(t, ts.URL+"/v1/jobs/"+submitted.ID+"/resume", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume of running job: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Let configuration 0 finish, then cancel mid-configuration 1.
	runner.tokens <- struct{}{}
	pollUntil(t, "first configuration", func() bool {
		j, _ := s.Job(submitted.ID)
		_, _, _, results, _ := j.snapshot()
		return len(results) == 1
	})
	httpDelete(t, ts.URL+"/v1/jobs/"+submitted.ID)
	cancelled := waitForJob(t, ts.URL, submitted.ID)
	if cancelled.State != JobCancelled || cancelled.Progress.Done != 1 {
		t.Fatalf("cancelled job = %+v", cancelled)
	}

	// Resume: a new job continues at configuration 1. (Read the call
	// counter first: the worker may enter configuration 1 the moment the
	// resumed job is queued.)
	callsBefore := runner.calls.Load()
	resp = postJSON(t, ts.URL+"/v1/jobs/"+submitted.ID+"/resume", struct{}{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume status = %d, want 202", resp.StatusCode)
	}
	resumed := decode[JobView](t, resp)
	if resumed.ID == submitted.ID || resumed.ResumedFrom != submitted.ID {
		t.Fatalf("resumed view = %+v", resumed)
	}
	runner.tokens <- struct{}{}
	runner.tokens <- struct{}{}
	final := waitForJob(t, ts.URL, resumed.ID)
	if final.State != JobDone || final.Progress.Done != 3 {
		t.Fatalf("resumed final = %+v", final)
	}
	if got := runner.calls.Load() - callsBefore; got != 2 {
		t.Fatalf("resume ran %d engine calls, want 2 (configuration 0 inherited)", got)
	}

	// The inherited configuration is byte-identical to the original's.
	origJob, _ := s.Job(submitted.ID)
	_, _, _, origResults, _ := origJob.snapshot()
	a, _ := json.Marshal(origResults[0])
	bts, _ := json.Marshal(final.Results[0])
	if !bytes.Equal(a, bts) {
		t.Fatalf("inherited result differs:\n%s\n%s", a, bts)
	}

	// A cleanly completed job has nothing to resume.
	resp = postJSON(t, ts.URL+"/v1/jobs/"+resumed.ID+"/resume", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume of complete job: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// The original job's resume slot is claimed: a second resume cannot
	// duplicate the remaining work, it 409s naming the continuation.
	resp = postJSON(t, ts.URL+"/v1/jobs/"+submitted.ID+"/resume", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second resume: status %d, want 409", resp.StatusCode)
	}
	if body := decode[errorBody](t, resp); !strings.Contains(body.Error, resumed.ID) {
		t.Fatalf("second resume should name the existing continuation: %q", body.Error)
	}
}

func httpDelete(t *testing.T, url string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	resp.Body.Close()
}

// TestAdmissionControl429: beyond MaxQueueDepth pending configurations,
// submissions are shed with 429 + Retry-After instead of queueing.
func TestAdmissionControl429(t *testing.T) {
	runner := newGatedRunner()
	s, ts := newTestServer(t, config.Daemon{Workers: 1, MaxQueueDepth: 2}, runner)
	t.Cleanup(func() { close(runner.tokens) })

	// One running single-config job: backlog 1.
	postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13", Async: true}).Body.Close()
	<-runner.started

	// A 2-configuration sweep would make the backlog 3 > 2: shed.
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmarks: []string{"gcm_n13", "qft_n18"}, Schedulers: []string{"rescq"}, Async: true,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	body := decode[errorBody](t, resp)
	if !strings.Contains(body.Error, "overloaded") {
		t.Fatalf("shed error = %q", body.Error)
	}
	if got := s.stats.JobsShed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// A single-config submission still fits (backlog 2 == limit).
	ok := postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "qft_n18", Async: true})
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("within-limit submit status = %d, want 202", ok.StatusCode)
	}
	ok.Body.Close()

	// Shed visibility: the /metrics counter beside the admission gauges.
	prom := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]float64{
		"rescqd_jobs_shed_total": 1, "rescqd_queue_capacity": 2, "rescqd_pending_configs": 2,
	} {
		if v, ok := sampleValue(prom, series); !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", series, v, ok, want)
		}
	}

	// Draining the backlog restores admission.
	runner.tokens <- struct{}{}
	runner.tokens <- struct{}{}
	pollUntil(t, "backlog to drain", func() bool { return s.sched.Pending() == 0 })
	again := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmarks: []string{"gcm_n13", "qft_n18"}, Schedulers: []string{"rescq"}, Async: true,
	})
	if again.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit status = %d, want 202", again.StatusCode)
	}
	again.Body.Close()
	runner.tokens <- struct{}{}
	runner.tokens <- struct{}{}
}

// TestSweepDedupesIdenticalConfigs: repeated axis values and values that
// canonicalize to the same cache key collapse to one configuration.
func TestSweepDedupesIdenticalConfigs(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, config.Daemon{}, runner)
	view := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmarks: []string{"gcm_n13"},
		Schedulers: []string{"rescq"},
		// distances [7, 7] repeats an axis value; k_values [0, 25] are two
		// spellings of the same canonical configuration (0 -> default 25).
		Distances: []int{7, 7},
		KValues:   []int{0, 25},
		Runs:      1,
	}))
	if view.State != JobDone {
		t.Fatalf("sweep state = %s (%s)", view.State, view.Error)
	}
	if len(view.Results) != 1 {
		t.Fatalf("results = %d, want 1 (4 grid cells, all identical)", len(view.Results))
	}
	if got := runner.calls.Load(); got != 1 {
		t.Fatalf("engine calls = %d, want 1", got)
	}
}

// TestPromptCancellationMidConfiguration: DELETE aborts the in-flight
// configuration through the job context instead of letting it finish.
func TestPromptCancellationMidConfiguration(t *testing.T) {
	runner := newGatedRunner()
	_, ts := newTestServer(t, config.Daemon{Workers: 1}, runner)

	submitted := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmarks: []string{"gcm_n13"}, Schedulers: []string{"rescq", "greedy"}, Async: true,
	}))
	<-runner.started // configuration 0 is inside the engine, gate held
	httpDelete(t, ts.URL+"/v1/jobs/"+submitted.ID)
	final := waitForJob(t, ts.URL, submitted.ID)
	if final.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if final.Progress.Done != 0 {
		t.Fatalf("aborted configuration produced a result: %+v", final)
	}
	if runner.aborted.Load() != 1 {
		t.Fatalf("engine abort count = %d, want 1 (cancellation must reach the run loop)", runner.aborted.Load())
	}
	if runner.calls.Load() != 1 {
		t.Fatalf("engine calls = %d, want 1 (configuration 1 must never start)", runner.calls.Load())
	}
}

// failingWriter is a ResponseWriter whose Write starts failing after
// failAfter successful writes — the broken-pipe shape of a client that
// disconnected mid-stream.
type failingWriter struct {
	hdr       http.Header
	writes    int
	failAfter int
}

func (w *failingWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, fmt.Errorf("write tcp: broken pipe")
	}
	return len(p), nil
}

func (w *failingWriter) WriteHeader(int) {}
func (w *failingWriter) Flush()          {}

// TestStreamWriteFailureCancelsJob: a failed stream write (client gone,
// request context not yet fired) stops the stream, cancels the job, and
// lets the handler goroutine exit instead of streaming to nobody.
func TestStreamWriteFailureCancelsJob(t *testing.T) {
	runner := newGatedRunner()
	s, _ := newTestServer(t, config.Daemon{Workers: 1}, runner)

	specs, err := s.expandSweep(SweepRequest{
		Benchmarks: []string{"gcm_n13"}, Schedulers: []string{"rescq", "greedy", "autobraid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := s.newJob("sweep", "", specs)
	if err := s.submit(j); err != nil {
		t.Fatal(err)
	}

	runner.tokens <- struct{}{} // config 0 completes and streams fine
	runner.tokens <- struct{}{} // config 1 completes; its write fails -> cancel
	// config 2 gets no token: only the cancellation can release it. Attach
	// the stream once config 2 is in the gate, so the failed write always
	// finds it in flight.
	for range 3 {
		<-runner.started
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", nil) // context never fires
	fw := &failingWriter{failAfter: 1}                            // first config line ok, second write breaks
	handlerDone := make(chan struct{})
	go func() {
		s.streamNDJSON(fw, req, j)
		close(handlerDone)
	}()

	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("handler goroutine leaked after the stream write failed")
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job not stopped after the client vanished")
	}
	if st := j.State(); st != JobCancelled {
		t.Fatalf("job state = %s, want cancelled", st)
	}
	if runner.aborted.Load() != 1 {
		t.Fatalf("in-flight configuration not aborted (aborted=%d)", runner.aborted.Load())
	}
}

// TestStreamingDisconnectFreesGoroutines is the leak check: disconnecting
// a streaming client cancels the job and returns the goroutine count to
// its baseline.
func TestStreamingDisconnectFreesGoroutines(t *testing.T) {
	runner := newGatedRunner()
	s, ts := newTestServer(t, config.Daemon{Workers: 1}, runner)
	before := runtime.NumGoroutine()

	body, _ := json.Marshal(SweepRequest{
		Benchmarks: []string{"gcm_n13"}, Schedulers: []string{"rescq", "greedy", "autobraid"},
		Stream: StreamNDJSON,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started // configuration 0 inside the engine
	cancel()         // client disconnects mid-stream
	resp.Body.Close()

	var jobID string
	for _, j := range s.Jobs() {
		jobID = j.ID
	}
	final := waitForJob(t, ts.URL, jobID)
	if final.State != JobCancelled {
		t.Fatalf("state after disconnect = %s, want cancelled", final.State)
	}
	pollUntil(t, "goroutines to return to baseline", func() bool {
		// Drop the test client's own keep-alive read/write loops so only a
		// genuine server-side leak (the abandoned stream handler or a job
		// watcher) can keep the count above baseline.
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestCompactionTimeObservable: the time compactions took is on /metrics
// beside the compaction count, so a latency spike can be attributed to
// compaction from the daemon alone.
func TestCompactionTimeObservable(t *testing.T) {
	s, ts, _ := durableServer(t, config.Daemon{Workers: 1}, &countingRunner{}, t.TempDir())
	decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Runs: 1}}))
	if err := s.store.Compact(); err != nil {
		t.Fatal(err)
	}
	prom := scrapeMetrics(t, ts.URL)
	if secs, ok := sampleValue(prom, "rescqd_store_compaction_seconds_total"); !ok || secs <= 0 {
		t.Fatalf("rescqd_store_compaction_seconds_total = %v (present %v) after a compaction", secs, ok)
	}
	if n, _ := sampleValue(prom, "rescqd_store_compactions_total"); n < 1 {
		t.Fatalf("rescqd_store_compactions_total = %v after a compaction", n)
	}
}

// TestRejectedJobsAfterRestart pins what the WAL keeps of a rejected
// submission. The global max_queue_depth shed is checked before the job
// record is written, so the job is gone after a restart. A tenant-quota
// shed (429) and a full job queue (503) come from the scheduler push after
// the record is written; failFast then appends a failed done record, so
// after a restart the job lists as failed history.
func TestRejectedJobsAfterRestart(t *testing.T) {
	cases := []struct {
		name   string
		cfg    config.Daemon
		tenant string
		status int
		listed bool
	}{
		{"global shed", config.Daemon{Workers: 1, MaxQueueDepth: 1, CacheEntries: -1}, "", http.StatusTooManyRequests, false},
		{"tenant quota", config.Daemon{Workers: 1, CacheEntries: -1, Tenants: config.Tenants{
			Policies: map[string]config.TenantPolicy{"small": {MaxQueuedConfigs: 1}},
		}}, "small", http.StatusTooManyRequests, true},
		{"queue full", config.Daemon{Workers: 1, QueueDepth: 1, CacheEntries: -1}, "", http.StatusServiceUnavailable, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			runner := &countingRunner{block: make(chan struct{}), started: make(chan struct{}, 8)}
			_, ts, stop := durableServer(t, tc.cfg, runner, dir)
			run := func(seed int64) int {
				resp := postTenant(t, ts.URL+"/v1/run", tc.tenant,
					RunRequest{Benchmark: "gcm_n13", Async: true, Options: rescq.Options{Seed: seed}})
				resp.Body.Close()
				return resp.StatusCode
			}
			if got := run(1); got != http.StatusAccepted {
				t.Fatalf("first run status = %d, want 202", got)
			}
			<-runner.started // the one worker is busy from here on
			status := run(2)
			if status == http.StatusAccepted { // the queue-full case queues one first
				status = run(3)
			}
			if status != tc.status {
				t.Fatalf("rejection status = %d, want %d", status, tc.status)
			}
			var rejected string
			for _, v := range decode[[]JobView](t, get(t, ts.URL+"/v1/jobs")) {
				if v.State == JobFailed {
					rejected = v.ID
				}
			}
			if rejected == "" {
				t.Fatal("the rejected job is not listed as failed before the restart")
			}
			close(runner.block)
			stop()

			_, ts2, _ := durableServer(t, tc.cfg, &countingRunner{}, dir)
			var after *JobView
			views := decode[[]JobView](t, get(t, ts2.URL+"/v1/jobs"))
			for i := range views {
				if views[i].ID == rejected {
					after = &views[i]
				}
			}
			switch {
			case !tc.listed && after != nil:
				t.Fatalf("rejected job %s listed after restart as %s, want absent", rejected, after.State)
			case tc.listed && after == nil:
				t.Fatalf("rejected job %s missing after restart, want failed history", rejected)
			case tc.listed && after.State != JobFailed:
				t.Fatalf("rejected job %s after restart = %s, want failed", rejected, after.State)
			}
		})
	}
}
