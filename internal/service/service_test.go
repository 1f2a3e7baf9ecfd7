package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/config"
)

// countingRunner is a Runner that fabricates deterministic summaries and
// counts engine invocations; block (when non-nil) stalls every call until
// closed, and gate (when non-nil) receives one token per call started.
type countingRunner struct {
	calls   atomic.Int64
	block   chan struct{}
	started chan struct{}
}

func (r *countingRunner) note() {
	r.calls.Add(1)
	if r.started != nil {
		r.started <- struct{}{}
	}
	if r.block != nil {
		<-r.block
	}
}

func fakeSummary(bench string, opts rescq.Options) rescq.Summary {
	c := opts.Canonical()
	return rescq.Summary{
		Benchmark:  bench,
		Scheduler:  string(c.Scheduler),
		MeanCycles: float64(100 + c.Distance),
		MinCycles:  100,
		MaxCycles:  101,
		Runs: []rescq.Result{{
			Benchmark:     bench,
			Scheduler:     string(c.Scheduler),
			Seed:          c.Seed,
			TotalCycles:   100 + c.Distance,
			CNOTLatencies: []int{1, 2, 3},
			RzLatencies:   []int{4, 5},
		}},
	}
}

func (r *countingRunner) Run(ctx context.Context, bench string, opts rescq.Options) (rescq.Summary, error) {
	r.note()
	return fakeSummary(bench, opts), nil
}

func (r *countingRunner) RunCircuitText(ctx context.Context, name, text string, opts rescq.Options) (rescq.Summary, error) {
	r.note()
	return fakeSummary(name, opts), nil
}

func (r *countingRunner) Experiment(ctx context.Context, id string, quick bool) (string, error) {
	r.note()
	return fmt.Sprintf("report:%s:quick=%t", id, quick), nil
}

func newTestServer(t *testing.T, cfg config.Daemon, runner Runner) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg, runner)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func waitForJob(t *testing.T, baseURL, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		view := decode[JobView](t, resp)
		switch view.State {
		case JobDone, JobFailed, JobCancelled:
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// TestRunCacheHit is the acceptance-criteria cache proof: identical
// back-to-back /v1/run requests, the second served without invoking the
// engine, asserted via both the runner's own call count and the /metrics
// counters.
func TestRunCacheHit(t *testing.T) {
	runner := &countingRunner{}
	s, ts := newTestServer(t, config.Daemon{}, runner)

	req := RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Runs: 2, Seed: 7}}
	first := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", req))
	if first.State != JobDone || first.Cached {
		t.Fatalf("first run: state=%s cached=%v, want done/uncached", first.State, first.Cached)
	}
	if first.Summary == nil || first.Summary.Benchmark != "gcm_n13" {
		t.Fatalf("first run summary = %+v", first.Summary)
	}
	if len(first.Summary.Runs) == 0 || first.Summary.Runs[0].CNOTLatencies != nil {
		t.Fatalf("latencies should be stripped by default: %+v", first.Summary.Runs)
	}

	second := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", req))
	if second.State != JobDone || !second.Cached {
		t.Fatalf("second run: state=%s cached=%v, want done/cached", second.State, second.Cached)
	}
	if got := runner.calls.Load(); got != 1 {
		t.Fatalf("engine invoked %d times, want 1 (second request must be a cache hit)", got)
	}
	st := s.Stats()
	if st.CacheHits.Load() != 1 || st.CacheMisses.Load() != 1 || st.EngineRuns.Load() != 1 {
		t.Fatalf("metrics hits=%d misses=%d engine=%d, want 1/1/1", st.CacheHits.Load(), st.CacheMisses.Load(), st.EngineRuns.Load())
	}
	if st.JobsDone.Load() != 2 || st.JobsQueued.Load() != 2 {
		t.Fatalf("metrics done=%d queued=%d, want 2/2", st.JobsDone.Load(), st.JobsQueued.Load())
	}

	// A semantically identical request written differently (explicit
	// defaults) still hits: the key is canonical.
	third := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", RunRequest{
		Benchmark: "gcm_n13",
		Options: rescq.Options{
			Scheduler: rescq.RESCQ, Distance: 7, PhysError: 1e-4,
			Runs: 2, Seed: 7,
		},
	}))
	if !third.Cached || runner.calls.Load() != 1 {
		t.Fatalf("canonicalized request missed the cache (cached=%v calls=%d)", third.Cached, runner.calls.Load())
	}

	// A different seed is a different result: must miss.
	fourth := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", RunRequest{
		Benchmark: "gcm_n13", Options: rescq.Options{Runs: 2, Seed: 8},
	}))
	if fourth.Cached || runner.calls.Load() != 2 {
		t.Fatalf("different seed should miss (cached=%v calls=%d)", fourth.Cached, runner.calls.Load())
	}
}

func TestRunIncludeLatencies(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})
	resp := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", RunRequest{
		Benchmark: "gcm_n13", IncludeLatencies: true,
	}))
	if len(resp.Summary.Runs) == 0 || len(resp.Summary.Runs[0].CNOTLatencies) != 3 {
		t.Fatalf("latencies missing with include_latencies: %+v", resp.Summary.Runs)
	}
}

func TestRunExperimentPayload(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, config.Daemon{}, runner)
	req := RunRequest{Experiment: "table3", Quick: true}
	first := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", req))
	if first.Report != "report:table3:quick=true" {
		t.Fatalf("experiment report = %q", first.Report)
	}
	second := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", req))
	if !second.Cached || runner.calls.Load() != 1 {
		t.Fatalf("experiment rerun should hit the cache (cached=%v calls=%d)", second.Cached, runner.calls.Load())
	}
}

func TestRunAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "qft_n18", Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d, want 202", resp.StatusCode)
	}
	view := decode[JobView](t, resp)
	if view.ID == "" || view.Kind != "run" {
		t.Fatalf("async job view = %+v", view)
	}
	final := waitForJob(t, ts.URL, view.ID)
	if final.State != JobDone || final.Progress.Done != 1 || final.Progress.Total != 1 {
		t.Fatalf("final job view = %+v", final)
	}
	if len(final.Results) != 1 || final.Results[0].Summary == nil {
		t.Fatalf("final results = %+v", final.Results)
	}
}

func TestSweepSyncDeterministicOrder(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, config.Daemon{}, runner)
	req := SweepRequest{
		Benchmarks: []string{"gcm_n13", "qft_n18"},
		Schedulers: []string{"rescq", "greedy"},
		Distances:  []int{5, 7},
		Runs:       1,
	}
	view := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", req))
	if view.State != JobDone {
		t.Fatalf("sweep state = %s (%s)", view.State, view.Error)
	}
	if len(view.Results) != 8 {
		t.Fatalf("sweep results = %d, want 8", len(view.Results))
	}
	// Benchmark-major, scheduler, then distance order; indices contiguous.
	want := []string{
		"gcm_n13/rescq/105", "gcm_n13/rescq/107",
		"gcm_n13/greedy/105", "gcm_n13/greedy/107",
		"qft_n18/rescq/105", "qft_n18/rescq/107",
		"qft_n18/greedy/105", "qft_n18/greedy/107",
	}
	for i, res := range view.Results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		got := fmt.Sprintf("%s/%s/%.0f", res.Benchmark, res.Scheduler, res.Summary.MeanCycles)
		if got != want[i] {
			t.Fatalf("result %d = %s, want %s", i, got, want[i])
		}
	}
	if runner.calls.Load() != 8 {
		t.Fatalf("engine calls = %d, want 8", runner.calls.Load())
	}

	// The whole grid re-submitted is served from cache.
	again := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", req))
	if again.State != JobDone || runner.calls.Load() != 8 {
		t.Fatalf("resweep: state=%s calls=%d, want done/8", again.State, runner.calls.Load())
	}
	for _, res := range again.Results {
		if !res.Cached {
			t.Fatalf("resweep result %d not cached", res.Index)
		}
	}
}

func TestSweepSSEStreaming(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})
	body, _ := json.Marshal(SweepRequest{
		Benchmarks: []string{"gcm_n13"},
		Schedulers: []string{"rescq", "greedy", "autobraid"},
		Stream:     StreamSSE,
	})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST sweep: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if resp.Header.Get("X-Job-ID") == "" {
		t.Fatal("missing X-Job-ID header")
	}
	var configs int
	var done bool
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "config":
				var res ConfigResult
				if err := json.Unmarshal([]byte(data), &res); err != nil {
					t.Fatalf("bad config event %q: %v", data, err)
				}
				if res.Index != configs {
					t.Fatalf("config event index %d, want %d (in-order streaming)", res.Index, configs)
				}
				configs++
			case "done":
				var view JobView
				if err := json.Unmarshal([]byte(data), &view); err != nil {
					t.Fatalf("bad done event %q: %v", data, err)
				}
				if view.State != JobDone || view.Progress.Done != 3 {
					t.Fatalf("done event view = %+v", view)
				}
				done = true
			}
		}
	}
	if configs != 3 || !done {
		t.Fatalf("streamed %d config events, done=%v; want 3/true", configs, done)
	}
}

func TestSweepNDJSONStreaming(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})
	body, _ := json.Marshal(SweepRequest{
		Benchmarks: []string{"gcm_n13", "qft_n18"},
		Schedulers: []string{"rescq"},
		Stream:     StreamNDJSON,
	})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST sweep: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			lines = append(lines, sc.Text())
		}
	}
	if len(lines) != 3 {
		t.Fatalf("ndjson lines = %d, want 2 configs + 1 terminal", len(lines))
	}
	var view JobView
	if err := json.Unmarshal([]byte(lines[2]), &view); err != nil || view.State != JobDone {
		t.Fatalf("terminal line %q: %v / %+v", lines[2], err, view)
	}
}

// TestConcurrentMixedTraffic is the acceptance-criteria race exercise:
// concurrent run and sweep submissions (sync, async and streaming) mixed
// with job listing, metrics scrapes and health checks, all against one
// server. Run under -race this proves the queue/cache/registry are
// race-clean.
func TestConcurrentMixedTraffic(t *testing.T) {
	s, ts := newTestServer(t, config.Daemon{QueueDepth: 512}, &countingRunner{})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				bench := []string{"gcm_n13", "qft_n18", "vqe_n13"}[(i+k)%3]
				resp := postJSON(t, ts.URL+"/v1/run", RunRequest{
					Benchmark: bench,
					Options:   rescq.Options{Seed: int64(1 + k%2), Runs: 1},
				})
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("run status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream := []string{"", StreamSSE, StreamNDJSON}[i%3]
			resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
				Benchmarks: []string{"gcm_n13", "qft_n18"},
				Schedulers: []string{"rescq", "greedy"},
				Stream:     stream,
			})
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("sweep status %d", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				for _, path := range []string{"/v1/jobs", "/metrics", "/healthz", "/v1/benchmarks"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						errCh <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := s.Stats()
	if got := st.JobsDone.Load(); got != 48 { // 8*5 runs + 8 sweeps
		t.Fatalf("jobs done = %d, want 48", got)
	}
	if got := st.JobsRunning.Load(); got != 0 {
		t.Fatalf("jobs still running = %d", got)
	}
	if hits, misses, runs := st.CacheHits.Load(), st.CacheMisses.Load(), st.EngineRuns.Load(); hits+misses == 0 || runs != misses {
		t.Fatalf("cache counters inconsistent: hits %d misses %d engine runs %d", hits, misses, runs)
	}
}

// TestDrainOnShutdown is the acceptance-criteria drain proof: a job caught
// in flight when shutdown begins completes, and post-drain submissions are
// rejected.
func TestDrainOnShutdown(t *testing.T) {
	runner := &countingRunner{
		block:   make(chan struct{}),
		started: make(chan struct{}, 16),
	}
	s, ts := newTestServer(t, config.Daemon{}, runner)

	submit := decode[JobView](t, postJSON(t, ts.URL+"/v1/run", RunRequest{
		Benchmark: "gcm_n13", Async: true,
	}))
	<-runner.started // the job is now executing inside a worker

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// Shutdown must be waiting on the in-flight job, not returning early.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before the in-flight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	// New submissions are rejected while draining.
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "qft_n18"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	close(runner.block) // let the in-flight job finish
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	job, ok := s.Job(submit.ID)
	if !ok || job.State() != JobDone {
		t.Fatalf("in-flight job state = %v, want done", job.State())
	}
	if s.Stats().JobsRejected.Load() == 0 {
		t.Fatal("draining rejection not counted")
	}
}

// TestShutdownDeadlineCancelsInFlight: an expired drain budget cancels the
// stuck job instead of hanging forever.
func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	runner := &countingRunner{
		block:   make(chan struct{}),
		started: make(chan struct{}, 16),
	}
	// Not via newTestServer: this test owns shutdown.
	s := New(config.Daemon{}, runner)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One blocked sweep occupying a worker plus one queued behind nothing:
	// the blocked *sweep* has a second configuration it never reaches, so
	// cancellation at the configuration boundary is observable.
	view := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmarks: []string{"gcm_n13", "qft_n18"},
		Schedulers: []string{"rescq"},
		Async:      true,
	}))
	<-runner.started

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- s.Shutdown(ctx) }()
	time.Sleep(150 * time.Millisecond) // let the budget expire
	close(runner.block)                // unblock the stuck configuration
	if err := <-errCh; err == nil {
		t.Fatal("Shutdown should report the expired drain budget")
	}
	job, _ := s.Job(view.ID)
	final := job.State()
	if final != JobCancelled {
		t.Fatalf("in-flight job state = %s, want cancelled at the configuration boundary", final)
	}
}

// TestInflightCoalescing: two concurrent identical configurations run the
// engine once — the follower waits for the leader and is served from the
// cache the leader fills.
func TestInflightCoalescing(t *testing.T) {
	runner := &countingRunner{
		block:   make(chan struct{}),
		started: make(chan struct{}, 16),
	}
	s, ts := newTestServer(t, config.Daemon{Workers: 2}, runner)

	req := RunRequest{Benchmark: "gcm_n13", Async: true, Options: rescq.Options{Seed: 99}}
	a := decode[JobView](t, postJSON(t, ts.URL+"/v1/run", req))
	<-runner.started // the leader is inside the engine
	b := decode[JobView](t, postJSON(t, ts.URL+"/v1/run", req))

	// Give the follower worker a moment to reach its claim, then release.
	time.Sleep(20 * time.Millisecond)
	close(runner.block)

	av := waitForJob(t, ts.URL, a.ID)
	bv := waitForJob(t, ts.URL, b.ID)
	if av.State != JobDone || bv.State != JobDone {
		t.Fatalf("states = %s/%s", av.State, bv.State)
	}
	if got := runner.calls.Load(); got != 1 {
		t.Fatalf("engine ran %d times for concurrent identical requests, want 1", got)
	}
	if !bv.Results[0].Cached {
		t.Fatal("follower result should be served from cache")
	}
	st := s.Stats()
	if st.CacheHits.Load() != 1 || st.CacheMisses.Load() != 1 || st.EngineRuns.Load() != 1 {
		t.Fatalf("metrics hits=%d misses=%d engine=%d, want 1/1/1", st.CacheHits.Load(), st.CacheMisses.Load(), st.EngineRuns.Load())
	}
	if got := st.Coalesced.Load(); got != 1 {
		t.Fatalf("coalesced = %d, want 1 (the follower waited on the leader)", got)
	}
}

// TestFinishedJobEviction: the registry retains at most maxFinishedJobs
// terminal jobs, evicting oldest-first, so a long-running daemon's memory
// stays flat.
func TestFinishedJobEviction(t *testing.T) {
	s := New(config.Daemon{}, &countingRunner{})
	var first *Job
	for i := 0; i < maxFinishedJobs+100; i++ {
		j := s.newJob("run", "", []runSpec{{Benchmark: "gcm_n13", Opts: rescq.Options{Seed: int64(i + 1)}}})
		if first == nil {
			first = j
		}
		s.execute(j)
	}
	if n := len(s.Jobs()); n != maxFinishedJobs {
		t.Fatalf("registry holds %d jobs, want %d", n, maxFinishedJobs)
	}
	if _, ok := s.Job(first.ID); ok {
		t.Fatal("oldest finished job should have been evicted")
	}
	if first.State() != JobDone {
		t.Fatal("eviction must not disturb holders of the *Job itself")
	}
}

// TestSubmitShutdownRace hammers the submit path while Shutdown closes the
// queue: every submission must either enqueue or reject cleanly — never
// panic on a closed channel.
func TestSubmitShutdownRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		s := New(config.Daemon{QueueDepth: 4}, &countingRunner{})
		s.Start()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 10; i++ {
					j := s.newJob("run", "", []runSpec{{Benchmark: "gcm_n13"}})
					if err := s.submit(j); err != nil {
						return // draining: expected
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

func TestCancelQueuedJob(t *testing.T) {
	runner := &countingRunner{
		block:   make(chan struct{}),
		started: make(chan struct{}, 64),
	}
	s, ts := newTestServer(t, config.Daemon{Workers: 2, QueueDepth: 16}, runner)

	// Occupy both workers.
	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13", Async: true,
			Options: rescq.Options{Seed: int64(100 + i)}}).Body.Close()
	}
	<-runner.started
	<-runner.started

	// This one is stuck in the queue; cancel it there.
	queued := decode[JobView](t, postJSON(t, ts.URL+"/v1/run", RunRequest{
		Benchmark: "qft_n18", Async: true,
	}))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	resp.Body.Close()

	calls := runner.calls.Load()
	close(runner.block) // release the workers; the cancelled job is next in line
	final := waitForJob(t, ts.URL, queued.ID)
	if final.State != JobCancelled {
		t.Fatalf("cancelled-in-queue job state = %s", final.State)
	}
	if got := runner.calls.Load(); got != calls {
		t.Fatalf("cancelled job still invoked the engine (%d -> %d calls)", calls, got)
	}
	_ = s
}

func TestQueueFullRejects503(t *testing.T) {
	runner := &countingRunner{
		block:   make(chan struct{}),
		started: make(chan struct{}, 64),
	}
	s, ts := newTestServer(t, config.Daemon{Workers: 2, QueueDepth: 1}, runner)
	defer close(runner.block)

	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13", Async: true,
			Options: rescq.Options{Seed: int64(200 + i)}}).Body.Close()
	}
	<-runner.started
	<-runner.started
	// Fill the queue (depth 1), then overflow it.
	postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "qft_n18", Async: true}).Body.Close()
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "vqe_n13", Async: true})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.Stats().JobsRejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})
	cases := []struct {
		name string
		path string
		body string
	}{
		{"no source", "/v1/run", `{}`},
		{"two sources", "/v1/run", `{"benchmark":"gcm_n13","experiment":"table3"}`},
		{"unknown benchmark", "/v1/run", `{"benchmark":"nope"}`},
		{"unknown experiment", "/v1/run", `{"experiment":"fig99"}`},
		{"bad distance", "/v1/run", `{"benchmark":"gcm_n13","options":{"distance":4}}`},
		{"bad scheduler", "/v1/run", `{"benchmark":"gcm_n13","options":{"scheduler":"magic"}}`},
		{"malformed circuit", "/v1/run", `{"circuit_text":"1\nbadgate 0\n"}`},
		{"unknown field", "/v1/run", `{"benchmark":"gcm_n13","nope":1}`},
		{"not json", "/v1/run", `hello`},
		{"sweep no benchmarks", "/v1/sweep", `{}`},
		{"sweep unknown benchmark", "/v1/sweep", `{"benchmarks":["nope"]}`},
		{"sweep bad option", "/v1/sweep", `{"benchmarks":["gcm_n13"],"distances":[4]}`},
		{"sweep bad stream mode", "/v1/sweep", `{"benchmarks":["gcm_n13"],"stream":"json"}`},
		{"sweep parallel", "/v1/sweep", `{"benchmarks":["gcm_n13"],"parallel":true}`},
		{"run parallel", "/v1/run", `{"benchmark":"gcm_n13","options":{"parallel":true}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			body := decode[errorBody](t, resp)
			if body.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}
}

func TestSweepTooWide(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})
	wide := SweepRequest{Benchmarks: []string{"gcm_n13"}}
	for i := 0; i < 100; i++ {
		wide.Distances = append(wide.Distances, 7)
		wide.KValues = append(wide.KValues, 25)
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", wide) // 1*3*100*1*100*1 = 30000
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	infos := decode[[]rescq.BenchmarkInfo](t, resp)
	if len(infos) == 0 {
		t.Fatal("no benchmarks listed")
	}
	found := false
	for _, b := range infos {
		if b.Name == "gcm_n13" && b.Qubits > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("gcm_n13 missing from %d benchmarks", len(infos))
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	runner := &countingRunner{}
	s, ts := newTestServer(t, config.Daemon{}, runner)
	postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13"}).Body.Close()
	postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13"}).Body.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decode[healthBody](t, resp)
	if health.Status != "ok" || health.Workers < 1 {
		t.Fatalf("health = %+v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		"rescqd_jobs_done_total 2",
		"rescqd_cache_hits_total 1",
		"rescqd_cache_misses_total 1",
		"rescqd_engine_runs_total 1",
		"rescqd_cache_entries 1",
		`rescqd_job_latency_ms{quantile="0.5"}`,
		`rescqd_job_latency_ms{quantile="0.99"}`,
		"rescqd_jobs_running 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	_ = s
}

// TestEndToEndRealEngine exercises the full stack once — real engine, real
// benchmark — and proves the cached replay is byte-identical.
func TestEndToEndRealEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("real engine run in -short mode")
	}
	s, ts := newTestServer(t, config.Daemon{}, nil)
	req := RunRequest{
		Benchmark: "vqe_n13",
		Options:   rescq.Options{Runs: 1, Distance: 5},
	}
	first := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", req))
	if first.State != JobDone || first.Summary == nil || first.Summary.MeanCycles <= 0 {
		t.Fatalf("real run failed: %+v", first)
	}
	second := decode[RunResponse](t, postJSON(t, ts.URL+"/v1/run", req))
	if !second.Cached {
		t.Fatal("identical real run did not hit the cache")
	}
	a, _ := json.Marshal(first.Summary)
	b, _ := json.Marshal(second.Summary)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached summary differs from computed one:\n%s\n%s", a, b)
	}
	if got := s.Stats().EngineRuns.Load(); got != 1 {
		t.Fatalf("engine runs = %d, want 1", got)
	}
}

// TestCapabilitiesEndpoint asserts sweep clients can discover every valid
// axis value — benchmarks plus the live scheduler and layout registries —
// instead of guessing.
func TestCapabilitiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{Layout: "linear"}, &countingRunner{})
	resp, err := http.Get(ts.URL + "/v1/capabilities")
	if err != nil {
		t.Fatalf("GET capabilities: %v", err)
	}
	caps := decode[Capabilities](t, resp)
	if len(caps.Benchmarks) == 0 {
		t.Error("capabilities list no benchmarks")
	}
	for _, want := range []string{"greedy", "autobraid", "rescq"} {
		if !slices.Contains(caps.Schedulers, want) {
			t.Errorf("schedulers %v missing %q", caps.Schedulers, want)
		}
	}
	var layoutNames []string
	for _, l := range caps.Layouts {
		layoutNames = append(layoutNames, l.Name)
		if l.Description == "" {
			t.Errorf("layout %q has no description", l.Name)
		}
	}
	for _, want := range []string{"star", "linear", "compact", "custom"} {
		if !slices.Contains(layoutNames, want) {
			t.Errorf("layouts %v missing %q", layoutNames, want)
		}
	}
	if len(caps.Experiments) == 0 {
		t.Error("capabilities list no experiments")
	}
	if caps.DefaultLayout != "linear" {
		t.Errorf("default layout = %q, want the configured linear", caps.DefaultLayout)
	}
	for _, want := range []string{"/v1/analytics/groupby", "/v1/analytics/pareto", "/v1/analytics/sensitivity"} {
		if !slices.Contains(caps.Analytics, want) {
			t.Errorf("analytics endpoints %v missing %q", caps.Analytics, want)
		}
	}
}

// TestSweepLayoutAxis sweeps the layout dimension with a fake runner and
// asserts the expansion order, the per-configuration layout labels, and
// that distinct layouts produce distinct cache entries.
func TestSweepLayoutAxis(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, config.Daemon{}, runner)
	req := SweepRequest{
		Benchmarks: []string{"gcm_n13"},
		Schedulers: []string{"rescq"},
		Layouts:    []string{"star", "compact", "linear"},
		Runs:       1,
	}
	view := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", req))
	if view.State != JobDone {
		t.Fatalf("sweep state = %s (%s)", view.State, view.Error)
	}
	if len(view.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(view.Results))
	}
	for i, wantLayout := range []string{"star", "compact", "linear"} {
		if view.Results[i].Layout != wantLayout {
			t.Errorf("result %d layout = %q, want %q", i, view.Results[i].Layout, wantLayout)
		}
	}
	if runner.calls.Load() != 3 {
		t.Fatalf("engine calls = %d, want 3 (one per layout; distinct cache keys)", runner.calls.Load())
	}

	// Re-submitting the same grid must hit the cache for every layout.
	again := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", req))
	if again.State != JobDone || runner.calls.Load() != 3 {
		t.Fatalf("resweep: state=%s calls=%d, want done/3", again.State, runner.calls.Load())
	}
	for _, res := range again.Results {
		if !res.Cached {
			t.Fatalf("resweep result %d (layout %s) not cached", res.Index, res.Layout)
		}
	}

	// An unknown layout is a 400 whose message enumerates the registry.
	bad := req
	bad.Layouts = []string{"moebius"}
	resp := postJSON(t, ts.URL+"/v1/sweep", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown layout status = %d, want 400", resp.StatusCode)
	}
	body := decode[errorBody](t, resp)
	for _, want := range []string{"moebius", "star", "linear", "compact", "custom"} {
		if !strings.Contains(body.Error, want) {
			t.Errorf("error %q should enumerate %q", body.Error, want)
		}
	}
}

// TestSweepLayoutsRealEngine is the acceptance-criteria sweep: the full
// {star, compact, linear} x {greedy, autobraid, rescq} grid on the real
// engine, streamed per-configuration over NDJSON.
func TestSweepLayoutsRealEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("real engine sweep in -short mode")
	}
	_, ts := newTestServer(t, config.Daemon{}, nil)
	body, _ := json.Marshal(SweepRequest{
		Benchmarks: []string{"vqe_n13"},
		Schedulers: []string{"greedy", "autobraid", "rescq"},
		Layouts:    []string{"star", "compact", "linear"},
		Distances:  []int{5},
		Runs:       1,
		Stream:     StreamNDJSON,
	})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST sweep: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	type cell struct{ sched, layout string }
	seen := map[cell]float64{}
	var lines int
	var terminal JobView
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		lines++
		if lines <= 9 {
			var res ConfigResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("bad config line %q: %v", line, err)
			}
			if res.Error != "" {
				t.Fatalf("configuration %s/%s failed: %s", res.Scheduler, res.Layout, res.Error)
			}
			if res.Summary == nil || res.Summary.MeanCycles <= 0 {
				t.Fatalf("configuration %s/%s has no usable summary", res.Scheduler, res.Layout)
			}
			seen[cell{res.Scheduler, res.Layout}] = res.Summary.MeanCycles
		} else {
			if err := json.Unmarshal([]byte(line), &terminal); err != nil {
				t.Fatalf("bad terminal line %q: %v", line, err)
			}
		}
	}
	if lines != 10 {
		t.Fatalf("streamed %d lines, want 9 configs + 1 terminal", lines)
	}
	if terminal.State != JobDone || terminal.Progress.Done != 9 {
		t.Fatalf("terminal view = %+v", terminal)
	}
	for _, sched := range []string{"greedy", "autobraid", "rescq"} {
		for _, layout := range []string{"star", "compact", "linear"} {
			if _, ok := seen[cell{sched, layout}]; !ok {
				t.Errorf("missing configuration %s/%s", sched, layout)
			}
		}
	}
}

// TestSweepPerLayoutParams asserts a mixed-layout sweep can parameterize
// just the layouts that take knobs, and that params naming a layout
// outside the axis are rejected up front.
func TestSweepPerLayoutParams(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, config.Daemon{}, runner)
	req := SweepRequest{
		Benchmarks:   []string{"gcm_n13"},
		Schedulers:   []string{"rescq"},
		Layouts:      []string{"star", "compact"},
		LayoutParams: map[string]map[string]string{"compact": {"fraction": "0.5", "seed": "3"}},
		Runs:         1,
	}
	view := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", req))
	if view.State != JobDone {
		t.Fatalf("sweep state = %s (%s)", view.State, view.Error)
	}
	if len(view.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(view.Results))
	}
	star, compact := view.Results[0], view.Results[1]
	if star.Layout != "star" || star.Options.LayoutParams != nil {
		t.Errorf("star config got params: %+v", star.Options)
	}
	if compact.Layout != "compact" || compact.Options.LayoutParams["fraction"] != "0.5" {
		t.Errorf("compact config missing its params: %+v", compact.Options)
	}

	bad := req
	bad.LayoutParams = map[string]map[string]string{"linear": {}}
	resp := postJSON(t, ts.URL+"/v1/sweep", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("params for un-swept layout: status %d, want 400", resp.StatusCode)
	}
	if body := decode[errorBody](t, resp); !strings.Contains(body.Error, "linear") {
		t.Errorf("error should name the offending layout: %s", body.Error)
	}
}
