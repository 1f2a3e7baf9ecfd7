package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/config"
	"repro/internal/store"
)

// latencyRunner fabricates deterministic summaries after a seeded random
// latency per configuration (under 3 ms), so configurations running on
// parallel slots finish out of index order. Configurations matching a hold
// predicate stall until its channel closes or the job is cancelled, and
// announce themselves on started.
type latencyRunner struct {
	countingRunner
	seed    int64
	holds   []hold
	started chan string
}

type hold struct {
	match   func(bench string, opts rescq.Options) bool
	release chan struct{}
}

func (r *latencyRunner) Run(ctx context.Context, bench string, opts rescq.Options) (rescq.Summary, error) {
	r.calls.Add(1)
	for _, h := range r.holds {
		if h.match(bench, opts) {
			r.started <- bench
			select {
			case <-h.release:
			case <-ctx.Done():
				return rescq.Summary{}, ctx.Err()
			}
		}
	}
	key := rescq.CacheKey("bench:"+bench, opts)
	d := time.Duration(rand.New(rand.NewSource(r.seed^int64(keyHash(key)))).Intn(3000)) * time.Microsecond
	select {
	case <-time.After(d):
	case <-ctx.Done():
		return rescq.Summary{}, ctx.Err()
	}
	return fakeSummary(bench, opts), nil
}

// keyHash is FNV-1a over a cache key, so each configuration's jitter
// depends only on the run seed and the configuration.
func keyHash(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}

// determinismSweep is 2 benchmarks x 3 schedulers x 4 distances = 24
// configurations, streamed as NDJSON.
var determinismSweep = SweepRequest{
	Benchmarks: []string{"gcm_n13", "qft_n18"},
	Schedulers: []string{"greedy", "autobraid", "rescq"},
	Distances:  []int{3, 5, 7, 9},
	Runs:       1,
	Stream:     StreamNDJSON,
	Tenant:     "whale",
}

// heldConfig is the sweep configuration the cancel and preemption cases
// stall: index 5 (gcm_n13, autobraid, d=5).
func heldConfig(bench string, opts rescq.Options) bool {
	return bench == "gcm_n13" && opts.Scheduler == rescq.AutoBraid && opts.Distance == 5
}

const heldIndex = 5

// sweepRecord is everything a client or a restart can observe of one
// sweep: its NDJSON configuration lines, its GET /v1/jobs/{id} results
// and its WAL result records.
type sweepRecord struct {
	lines   []string
	results []byte
	wal     []store.ResultRecord
}

// durableServer boots a server over a WAL in dir; stop shuts it down so
// the WAL can be read back.
func durableServer(t *testing.T, cfg config.Daemon, runner Runner, dir string) (*Server, *httptest.Server, func()) {
	t.Helper()
	s := New(cfg, runner)
	if _, err := s.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
	}
	t.Cleanup(stop)
	return s, ts, stop
}

// streamSweep posts the sweep and collects its configuration lines on a
// goroutine; the returned channel yields them once the stream ends.
func streamSweep(t *testing.T, url string, req SweepRequest) <-chan []string {
	t.Helper()
	data, _ := json.Marshal(req)
	out := make(chan []string, 1)
	go func() {
		var lines []string
		defer func() { out <- lines }()
		resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Errorf("POST sweep: %v", err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var probe struct {
				State JobState `json:"state"`
			}
			if json.Unmarshal(sc.Bytes(), &probe) == nil && probe.State != "" {
				return // the terminal job view carries timestamps; not compared
			}
			lines = append(lines, sc.Text())
		}
	}()
	return out
}

// readBack shuts the server down and collects the job's results and WAL
// records.
func readBack(t *testing.T, ts *httptest.Server, stop func(), dir, id string, lines []string) sweepRecord {
	t.Helper()
	view := getJob(t, ts.URL, id)
	results, err := json.Marshal(view.Results)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := sweepRecord{lines: lines, results: results}
	for _, rj := range st.Replayed() {
		if rj.Job.ID == id {
			rec.wal = rj.Results
		}
	}
	return rec
}

func onlyJob(t *testing.T, s *Server, tenant string) *Job {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, j := range s.Jobs() {
			if j.Tenant == tenant {
				return j
			}
		}
	}
	t.Fatalf("no job for tenant %q", tenant)
	return nil
}

func sweepUninterrupted(t *testing.T, workers int) sweepRecord {
	dir := t.TempDir()
	_, ts, stop := durableServer(t, config.Daemon{Workers: workers}, &latencyRunner{seed: 11}, dir)
	lines := <-streamSweep(t, ts.URL, determinismSweep)
	return readBack(t, ts, stop, dir, "job-000001", lines)
}

// sweepCancelled stalls heldIndex, lets every other slot run ahead, then
// cancels: only the contiguous prefix before the stall may surface.
func sweepCancelled(t *testing.T, workers int) sweepRecord {
	dir := t.TempDir()
	runner := &latencyRunner{seed: 11, started: make(chan string, 8),
		holds: []hold{{match: heldConfig, release: make(chan struct{})}}}
	s, ts, stop := durableServer(t, config.Daemon{Workers: workers}, runner, dir)
	out := streamSweep(t, ts.URL, determinismSweep)
	j := onlyJob(t, s, "whale")
	<-runner.started
	pollUntil(t, "prefix before the stalled configuration", func() bool {
		return getJob(t, ts.URL, j.ID).Progress.Done == heldIndex
	})
	if workers > 1 {
		// Let the other slots compute past the stall; none of it may leak.
		pollUntil(t, "every other configuration computed", func() bool {
			return runner.calls.Load() == int64(len(j.specs))
		})
	}
	httpDelete(t, ts.URL+"/v1/jobs/"+j.ID)
	lines := <-out
	if st := waitForJob(t, ts.URL, j.ID).State; st != JobCancelled {
		t.Fatalf("workers=%d: state %s, want cancelled", workers, st)
	}
	return readBack(t, ts, stop, dir, j.ID, lines)
}

// sweepPreempted stalls heldIndex, fills every other pool slot with
// blocker jobs, queues an interactive run, then releases the stall: the
// sweep is preempted at its next boundary and resumes once the run is
// done. The cache is off, so the resume recomputes rather than replaying
// configurations that landed past the checkpoint.
func sweepPreempted(t *testing.T, workers int) sweepRecord {
	dir := t.TempDir()
	stall, blockers := make(chan struct{}), make(chan struct{})
	runner := &latencyRunner{seed: 11, started: make(chan string, 8), holds: []hold{
		{match: heldConfig, release: stall},
		{match: func(bench string, _ rescq.Options) bool { return bench == "wstate_n27" }, release: blockers},
	}}
	s, ts, stop := durableServer(t, config.Daemon{Workers: workers, CacheEntries: -1}, runner, dir)
	out := streamSweep(t, ts.URL, determinismSweep)
	j := onlyJob(t, s, "whale")
	<-runner.started
	for i := 1; i < workers; i++ {
		v := decode[JobView](t, postTenant(t, ts.URL+"/v1/run", "blk",
			RunRequest{Benchmark: "wstate_n27", Async: true, Options: rescq.Options{Seed: int64(i)}}))
		if v.ID == "" {
			t.Fatalf("blocker %d rejected: %+v", i, v)
		}
		<-runner.started
	}
	live := decode[JobView](t, postTenant(t, ts.URL+"/v1/run", "live",
		RunRequest{Benchmark: "vqe_n13", Async: true}))
	pollUntil(t, "interactive run queued behind the sweep", func() bool {
		return getJob(t, ts.URL, live.ID).State == JobQueued
	})
	close(stall)
	if st := waitForJob(t, ts.URL, live.ID).State; st != JobDone {
		t.Fatalf("workers=%d: interactive run %s", workers, st)
	}
	lines := <-out
	close(blockers)
	if got := s.stats.Tenant("whale").Preempted.Load(); got < 1 {
		t.Fatalf("workers=%d: sweep never preempted", workers)
	}
	return readBack(t, ts, stop, dir, j.ID, lines)
}

func sameRecords(t *testing.T, what string, got, want sweepRecord) {
	t.Helper()
	if !slices.Equal(got.lines, want.lines) {
		t.Errorf("%s: NDJSON lines differ:\n got %q\nwant %q", what, got.lines, want.lines)
	}
	if !bytes.Equal(got.results, want.results) {
		t.Errorf("%s: job results differ:\n got %s\nwant %s", what, got.results, want.results)
	}
	if len(got.wal) != len(want.wal) {
		t.Fatalf("%s: %d WAL results, want %d", what, len(got.wal), len(want.wal))
	}
	for i := range got.wal {
		g, w := got.wal[i], want.wal[i]
		if g.Index != w.Index || g.Key != w.Key || !bytes.Equal(g.Result, w.Result) {
			t.Errorf("%s: WAL result %d differs:\n got %d %s %s\nwant %d %s %s", what, i, g.Index, g.Key, g.Result, w.Index, w.Key, w.Result)
		}
	}
}

// prefix is the record of the first n configurations of r.
func (r sweepRecord) prefix(t *testing.T, n int) sweepRecord {
	t.Helper()
	var results []ConfigResult
	if err := json.Unmarshal(r.results, &results); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(results[:n])
	return sweepRecord{lines: r.lines[:n], results: data, wal: r.wal[:n]}
}

// TestSweepDeterministicAcrossSlots is the oracle for the fanned-out
// execution path: a standalone sweep on four slots must be byte-identical
// to the same sweep on one — streamed, listed and persisted — uninterrupted,
// cancelled mid-sweep (the contiguous prefix, no gaps) and preempted then
// resumed.
func TestSweepDeterministicAcrossSlots(t *testing.T) {
	want := sweepUninterrupted(t, 1)
	if n := len(want.lines); n != 24 || len(want.wal) != 24 {
		t.Fatalf("reference sweep: %d lines, %d WAL results, want 24", n, len(want.wal))
	}
	for i, rr := range want.wal {
		if rr.Index != i {
			t.Fatalf("reference WAL result %d has index %d", i, rr.Index)
		}
	}
	t.Run("uninterrupted", func(t *testing.T) {
		sameRecords(t, "workers=4", sweepUninterrupted(t, 4), want)
	})
	t.Run("cancelled", func(t *testing.T) {
		prefix := want.prefix(t, heldIndex)
		sameRecords(t, "workers=1", sweepCancelled(t, 1), prefix)
		sameRecords(t, "workers=4", sweepCancelled(t, 4), prefix)
	})
	t.Run("preempted", func(t *testing.T) {
		sameRecords(t, "workers=1", sweepPreempted(t, 1), want)
		sameRecords(t, "workers=4", sweepPreempted(t, 4), want)
	})
}

// TestLendingYieldsToNewJob pins the lending rule: a sweep fanned out over
// every idle slot gives them back at its next configuration boundary once
// another job arrives, so a second tenant's run starts after at most one
// more of the sweep's configurations completes — never after the whole
// fan-out drains.
func TestLendingYieldsToNewJob(t *testing.T) {
	const workers = 3
	gate := make(chan struct{})
	runner := &latencyRunner{started: make(chan string, 16), holds: []hold{
		{match: func(string, rescq.Options) bool { return true }, release: gate},
	}}
	_, ts := newTestServer(t, config.Daemon{Workers: workers}, runner)
	defer close(gate)

	decode[JobView](t, postTenant(t, ts.URL+"/v1/sweep", "whale", SweepRequest{
		Benchmarks: []string{"gcm_n13"}, Schedulers: []string{"rescq"},
		Distances: oddDistances(8), Async: true,
	}))
	for i := 0; i < workers; i++ {
		select {
		case <-runner.started:
		case <-time.After(10 * time.Second):
			t.Fatalf("the sweep fanned out over %d of %d slots", i, workers)
		}
	}
	postTenant(t, ts.URL+"/v1/run", "live", RunRequest{Benchmark: "qft_n18", Async: true}).Body.Close()
	for completed := 0; ; {
		select {
		case bench := <-runner.started:
			if bench == "qft_n18" {
				return // started after `completed` sweep configurations
			}
		case <-time.After(200 * time.Millisecond):
			if completed == 1 {
				t.Fatal("run still waiting after a sweep configuration completed")
			}
			gate <- struct{}{} // complete one sweep configuration
			completed++
		}
	}
}

// TestIncludeLatenciesAfterPlainRecomputes pins the cache's one fill rule:
// a plain run caches what it returned (latency arrays stripped), so an
// include_latencies request for the same configuration recomputes — and
// returns exactly what a fresh daemon returns — while plain repeats stay
// hits with the first response's bytes.
func TestIncludeLatenciesAfterPlainRecomputes(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, config.Daemon{Workers: 2}, runner)
	post := func(url string, keep bool) RunResponse {
		return decode[RunResponse](t, postJSON(t, url+"/v1/run", RunRequest{Benchmark: "gcm_n13", IncludeLatencies: keep}))
	}
	plain := post(ts.URL, false)
	full := post(ts.URL, true)
	if got := runner.calls.Load(); got != 2 || full.Cached {
		t.Fatalf("include_latencies after a plain run: engine calls %d (cached %t), want a recompute", got, full.Cached)
	}
	_, fresh := newTestServer(t, config.Daemon{Workers: 2}, &countingRunner{})
	want, _ := json.Marshal(post(fresh.URL, true).Summary)
	if got, _ := json.Marshal(full.Summary); !bytes.Equal(got, want) {
		t.Fatalf("recomputed summary differs from a fresh daemon's:\n got %s\nwant %s", got, want)
	}
	again := post(ts.URL, false)
	if !again.Cached || runner.calls.Load() != 2 {
		t.Fatalf("plain repeat: cached %t, engine calls %d", again.Cached, runner.calls.Load())
	}
	first, _ := json.Marshal(plain.Summary)
	if got, _ := json.Marshal(again.Summary); !bytes.Equal(got, first) {
		t.Fatalf("cached plain summary differs:\n got %s\nwant %s", got, first)
	}
}

// TestCoordinatorCoalescesAcrossJobs: an identical configuration in two
// concurrent jobs computes once on a coordinator too. The second job holds
// a free worker slot but waits on the first job's flight instead of
// dispatching a duplicate batch, then is served from the coordinator cache.
func TestCoordinatorCoalescesAcrossJobs(t *testing.T) {
	runner := &countingRunner{block: make(chan struct{}), started: make(chan struct{}, 4)}
	coord := startCoordinator(t, "")
	startWorkerSlots(t, coord.ts.URL, runner, 2)
	waitForWorkers(t, coord, 1)

	req := RunRequest{Benchmark: "gcm_n13", Async: true, Options: rescq.Options{Seed: 7}}
	a := decode[JobView](t, postJSON(t, coord.ts.URL+"/v1/run", req))
	<-runner.started // the first job's batch is on the worker
	b := decode[JobView](t, postJSON(t, coord.ts.URL+"/v1/run", req))
	var release sync.Once
	defer release.Do(func() { close(runner.block) })
	pollUntil(t, "the second job waiting on the first", func() bool {
		return coord.srv.stats.Coalesced.Load() == 1
	})
	release.Do(func() { close(runner.block) })

	av, bv := waitForJob(t, coord.ts.URL, a.ID), waitForJob(t, coord.ts.URL, b.ID)
	if av.State != JobDone || bv.State != JobDone {
		t.Fatalf("states = %s/%s", av.State, bv.State)
	}
	if got := runner.calls.Load(); got != 1 {
		t.Fatalf("engine ran %d times for two concurrent identical jobs, want 1", got)
	}
	if got := coord.srv.stats.BatchesDispatched.Load(); got != 1 {
		t.Fatalf("batches dispatched = %d, want 1 (the duplicate must not reach a worker)", got)
	}
	if !bv.Results[0].Cached {
		t.Fatal("the waiting job's result should be served from the coordinator cache")
	}
	got, _ := json.Marshal(bv.Results[0].Summary)
	want, _ := json.Marshal(av.Results[0].Summary)
	if !bytes.Equal(got, want) {
		t.Fatalf("coalesced summary differs:\n got %s\nwant %s", got, want)
	}
}
