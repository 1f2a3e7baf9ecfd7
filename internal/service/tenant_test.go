package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/config"
	"repro/internal/store"
)

// slowRunner stretches every engine call so scheduling decisions (fairness,
// preemption) are observable: with instant configs the whale would finish
// before the interactive tenant ever contends.
type slowRunner struct {
	countingRunner
	delay time.Duration
}

func (r *slowRunner) Run(ctx context.Context, bench string, opts rescq.Options) (rescq.Summary, error) {
	time.Sleep(r.delay)
	return r.countingRunner.Run(ctx, bench, opts)
}

// postTenant is postJSON with an X-Rescq-Tenant header.
func postTenant(t *testing.T, url, tenant string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func getJob(t *testing.T, baseURL, id string) JobView {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	return decode[JobView](t, resp)
}

// oddDistances returns n valid surface-code distances (3, 5, 7, ...), the
// cheapest way to build an n-configuration sweep of distinct cache keys.
func oddDistances(n int) []int {
	ds := make([]int, n)
	for i := range ds {
		ds[i] = 3 + 2*i
	}
	return ds
}

// TestFairnessWhaleAndInteractive is the acceptance-criteria fairness
// proof. One worker, default WFQ, equal weights: a whale submits a long
// async sweep, then an interactive tenant issues short synchronous runs.
// Under the old FIFO channel a synchronous run could not return before the
// whale's entire job finished; under WFQ every interactive run completes
// while the whale is still mid-flight, via preemption at configuration
// boundaries — and the whale still finishes with every configuration
// exactly once, byte-identical to an uncontended run.
func TestFairnessWhaleAndInteractive(t *testing.T) {
	const whaleConfigs = 40
	runner := &slowRunner{delay: 5 * time.Millisecond}
	s, ts := newTestServer(t, config.Daemon{Workers: 1, CacheEntries: -1}, runner)

	sweep := SweepRequest{
		Benchmarks: []string{"gcm_n13"},
		Schedulers: []string{"rescq"},
		Distances:  oddDistances(whaleConfigs),
		Async:      true,
	}
	whale := decode[JobView](t, postTenant(t, ts.URL+"/v1/sweep", "whale", sweep))
	if whale.ID == "" || whale.Tenant != "whale" {
		t.Fatalf("whale submit = %+v", whale)
	}
	// Let the whale establish itself: at least one configuration done, so
	// its virtual clock is ahead when the interactive tenant arrives.
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts.URL, whale.ID).Progress.Done < 1 {
		if time.Now().After(deadline) {
			t.Fatal("whale never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Interactive traffic: five synchronous runs, each a distinct config.
	for i := 0; i < 5; i++ {
		rr := decode[RunResponse](t, postTenant(t, ts.URL+"/v1/run", "live",
			RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Seed: int64(i + 1)}}))
		if rr.State != JobDone {
			t.Fatalf("interactive run %d = %+v", i, rr)
		}
		if v := getJob(t, ts.URL, whale.ID); v.State == JobDone || v.State == JobFailed {
			t.Fatalf("whale already terminal (%s) after interactive run %d: the scheduler let the whale monopolize the worker", v.State, i)
		}
	}
	if got := s.stats.JobsPreempted.Load(); got < 1 {
		t.Fatalf("jobs preempted = %d, want >= 1 (interactive runs should have preempted the whale)", got)
	}

	// The whale still completes: every configuration exactly once, in
	// order, none lost or duplicated across preemptions.
	final := waitForJob(t, ts.URL, whale.ID)
	if final.State != JobDone || final.Progress.Done != whaleConfigs {
		t.Fatalf("whale final = state %s, %d/%d done", final.State, final.Progress.Done, whaleConfigs)
	}
	if len(final.Results) != whaleConfigs {
		t.Fatalf("whale results = %d, want %d", len(final.Results), whaleConfigs)
	}
	for i, res := range final.Results {
		if res.Index != i || res.Error != "" {
			t.Fatalf("result %d = index %d error %q", i, res.Index, res.Error)
		}
	}

	// Byte-identical to the same sweep on an uncontended server.
	control := sweep
	control.Async = false
	_, cts := newTestServer(t, config.Daemon{Workers: 1, CacheEntries: -1}, &countingRunner{})
	controlView := decode[JobView](t, postJSON(t, cts.URL+"/v1/sweep", control))
	if controlView.State != JobDone {
		t.Fatalf("control sweep = %+v", controlView)
	}
	got, _ := json.Marshal(final.Results)
	want, _ := json.Marshal(controlView.Results)
	if !bytes.Equal(got, want) {
		t.Fatalf("preempted whale results differ from uncontended run:\n got: %s\nwant: %s", got, want)
	}
	if preempted, done := s.stats.Tenant("whale").Preempted.Load(), s.stats.Tenant("live").Done.Load(); preempted < 1 || done != 5 {
		t.Fatalf("tenant counters: whale preempted %d, live done %d", preempted, done)
	}
}

// TestShedRetryAfterPerTenant pins the per-tenant Retry-After fix: when the
// global queue bound sheds a submission, the hint comes from the shedding
// tenant's own backlog, not the global one. A tenant with nothing queued is
// told to retry in the 1s floor; the whale that owns the backlog is told to
// wait out its own work.
func TestShedRetryAfterPerTenant(t *testing.T) {
	runner := &countingRunner{block: make(chan struct{})}
	s, ts := newTestServer(t, config.Daemon{Workers: 1, MaxQueueDepth: 5, CacheEntries: -1}, runner)
	t.Cleanup(func() { close(runner.block) }) // LIFO: unblock before Shutdown

	// Seed the latency histogram with 10s jobs: p50 reads 10.48576s, the
	// upper edge of their bucket, and with one worker a backlog of 5
	// configurations estimates a 52s drain.
	for i := 0; i < 3; i++ {
		s.stats.ObserveLatency(10 * time.Second)
	}

	whaleSweep := SweepRequest{
		Benchmarks: []string{"gcm_n13"},
		Schedulers: []string{"rescq"},
		Distances:  oddDistances(5),
		Async:      true,
	}
	whale := decode[JobView](t, postTenant(t, ts.URL+"/v1/sweep", "whale", whaleSweep))
	if whale.ID == "" {
		t.Fatalf("whale submit failed: %+v", whale)
	}

	// The whale's next submission is shed against its own 5-config backlog.
	resp := postTenant(t, ts.URL+"/v1/run", "whale", RunRequest{Benchmark: "gcm_n13"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("whale resubmit status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "52" {
		t.Fatalf("whale Retry-After = %q, want \"52\" (5 configs x 10.49s / 1 worker)", got)
	}
	resp.Body.Close()

	// A quiet tenant hits the same global bound but owns none of the
	// backlog: it gets the floor, not the whale's sentence.
	resp = postTenant(t, ts.URL+"/v1/run", "quiet", RunRequest{Benchmark: "gcm_n13"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quiet tenant status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("quiet tenant Retry-After = %q, want \"1\" (its own backlog is empty)", got)
	}
	resp.Body.Close()

	if whale, quiet := s.stats.Tenant("whale").Shed.Load(), s.stats.Tenant("quiet").Shed.Load(); whale != 1 || quiet != 1 {
		t.Fatalf("per-tenant shed counters: whale %d, quiet %d", whale, quiet)
	}
}

// TestTenantQuotaShed429: per-tenant quotas shed with 429 + Retry-After
// while other tenants keep submitting freely.
func TestTenantQuotaShed429(t *testing.T) {
	runner := &countingRunner{block: make(chan struct{})}
	cfg := config.Daemon{Workers: 1, CacheEntries: -1, Tenants: config.Tenants{
		Policies: map[string]config.TenantPolicy{
			"small": {MaxQueuedConfigs: 2},
			"solo":  {MaxInflightJobs: 1},
		},
	}}
	_, ts := newTestServer(t, cfg, runner)
	t.Cleanup(func() { close(runner.block) })

	// small fills its 2-config quota...
	sweep := SweepRequest{Benchmarks: []string{"gcm_n13"}, Schedulers: []string{"rescq"},
		Distances: oddDistances(2), Async: true}
	if v := decode[JobView](t, postTenant(t, ts.URL+"/v1/sweep", "small", sweep)); v.ID == "" {
		t.Fatalf("small sweep rejected: %+v", v)
	}
	// ...and its next configuration is shed with the quota's 429.
	resp := postTenant(t, ts.URL+"/v1/run", "small", RunRequest{Benchmark: "gcm_n13"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("small over-quota status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("quota shed Retry-After = %q, want >= 1", resp.Header.Get("Retry-After"))
	}
	body := decode[map[string]string](t, resp)
	if !strings.Contains(body["error"], `"small"`) {
		t.Fatalf("quota error should name the tenant: %q", body["error"])
	}

	// Unlimited tenants are unaffected by small's quota.
	resp = postTenant(t, ts.URL+"/v1/run", "big",
		RunRequest{Benchmark: "gcm_n13", Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("big tenant status = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	// solo can hold one open job; the second is shed even though its
	// config backlog is tiny.
	resp = postTenant(t, ts.URL+"/v1/run", "solo",
		RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Seed: 1}, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solo first job status = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postTenant(t, ts.URL+"/v1/run", "solo",
		RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Seed: 2}, Async: true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("solo second job status = %d, want 429 (max_inflight_jobs=1)", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTenantIdentityResolution: body field over header over the default
// tenant; invalid names are a 400 at the door.
func TestTenantIdentityResolution(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})

	// Header alone.
	v := decode[JobView](t, postTenant(t, ts.URL+"/v1/run", "alice",
		RunRequest{Benchmark: "gcm_n13", Async: true}))
	if v.Tenant != "alice" {
		t.Fatalf("header-tagged job tenant = %q, want alice", v.Tenant)
	}
	if got := getJob(t, ts.URL, v.ID); got.Tenant != "alice" {
		t.Fatalf("job view tenant = %q, want alice", got.Tenant)
	}

	// Body field wins over the header.
	v = decode[JobView](t, postTenant(t, ts.URL+"/v1/run", "alice",
		RunRequest{Benchmark: "gcm_n13", Tenant: "bob", Async: true}))
	if v.Tenant != "bob" {
		t.Fatalf("body-tagged job tenant = %q, want bob (body overrides header)", v.Tenant)
	}

	// Untagged requests land on the default tenant.
	v = decode[JobView](t, postJSON(t, ts.URL+"/v1/run",
		RunRequest{Benchmark: "gcm_n13", Async: true}))
	if v.Tenant != "default" {
		t.Fatalf("untagged job tenant = %q, want default", v.Tenant)
	}

	// Invalid names are rejected before a job exists.
	for _, bad := range []string{"has space", strings.Repeat("x", 65), "semi;colon"} {
		resp := postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13", Tenant: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tenant %q status = %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestJobsTenantFilter: GET /v1/jobs?tenant= narrows the listing to one
// tenant's jobs.
func TestJobsTenantFilter(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{}, &countingRunner{})

	for i, tenant := range []string{"alice", "alice", "bob"} {
		v := decode[JobView](t, postTenant(t, ts.URL+"/v1/run", tenant,
			RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Seed: int64(i + 1)}, Async: true}))
		waitForJob(t, ts.URL, v.ID)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs?tenant=alice")
	if err != nil {
		t.Fatal(err)
	}
	views := decode[[]JobView](t, resp)
	if len(views) != 2 {
		t.Fatalf("tenant=alice listed %d jobs, want 2", len(views))
	}
	for _, v := range views {
		if v.Tenant != "alice" {
			t.Fatalf("filtered listing leaked tenant %q", v.Tenant)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if all := decode[[]JobView](t, resp); len(all) != 3 {
		t.Fatalf("unfiltered listing = %d jobs, want 3", len(all))
	}
}

// TestWALTenantCompat (service layer): default-tenant jobs persist exactly
// as pre-tenancy daemons wrote them — no tenant key at all — and on replay
// untagged records land on the default tenant while tagged ones keep
// their name.
func TestWALTenantCompat(t *testing.T) {
	dir := t.TempDir()

	a := New(config.Daemon{Workers: 1}, &countingRunner{})
	if _, err := a.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	a.Start()
	tsA := httptest.NewServer(a.Handler())

	first := decode[RunResponse](t, postJSON(t, tsA.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13"}))
	second := decode[RunResponse](t, postTenant(t, tsA.URL+"/v1/run", "alice",
		RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Seed: 9}}))
	if first.State != JobDone || second.State != JobDone {
		t.Fatalf("runs = %s / %s, want done", first.State, second.State)
	}
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The default tenant is persisted as the absence of a tag, so
	// default-only traffic writes byte-identical records to older daemons
	// (and their logs replay here symmetrically).
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rj := range st.Replayed() {
		switch rj.Job.ID {
		case first.JobID:
			if rj.Job.Tenant != "" {
				t.Fatalf("default-tenant job record carries tenant tag %q", rj.Job.Tenant)
			}
		case second.JobID:
			if rj.Job.Tenant != "alice" {
				t.Fatalf("tagged job record tenant = %q, want alice", rj.Job.Tenant)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the untagged record replays onto the default tenant, the
	// tagged one keeps its identity.
	b := New(config.Daemon{Workers: 1}, &countingRunner{})
	if _, err := b.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	b.Start()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.Shutdown(ctx)
	}()
	if v := getJob(t, tsB.URL, first.JobID); v.Tenant != "default" {
		t.Fatalf("replayed untagged job tenant = %q, want default", v.Tenant)
	}
	if v := getJob(t, tsB.URL, second.JobID); v.Tenant != "alice" {
		t.Fatalf("replayed tagged job tenant = %q, want alice", v.Tenant)
	}
}

// pendingMatchesBacklogs scrapes /metrics until rescqd_pending_configs
// equals the sum of the rescqd_tenant_backlog_configs series (the two are
// read under separate locks, so one scrape can straddle a completion) and
// returns that value.
func pendingMatchesBacklogs(t *testing.T, baseURL string) float64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		text := scrapeMetrics(t, baseURL)
		pending, ok := sampleValue(text, "rescqd_pending_configs")
		if !ok {
			t.Fatalf("no rescqd_pending_configs sample:\n%s", text)
		}
		var sum float64
		for _, line := range strings.Split(text, "\n") {
			if rest, found := strings.CutPrefix(line, "rescqd_tenant_backlog_configs{"); found {
				v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
				if err != nil {
					t.Fatalf("backlog sample %q: %v", line, err)
				}
				sum += v
			}
		}
		if pending == sum {
			return pending
		}
		if time.Now().After(deadline) {
			t.Fatalf("rescqd_pending_configs %v != tenant backlog sum %v:\n%s", pending, sum, text)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPendingConfigsMatchTenantBacklogs: the admission backlog on
// /metrics is the scheduler's running total, so it equals the per-tenant
// backlogs through completed, cancelled, preempted and tenant-shed jobs
// and returns to 0 once everything is terminal.
func TestPendingConfigsMatchTenantBacklogs(t *testing.T) {
	runner := &slowRunner{delay: 5 * time.Millisecond}
	cfg := config.Daemon{Workers: 1, CacheEntries: -1, Tenants: config.Tenants{
		Policies: map[string]config.TenantPolicy{"small": {MaxQueuedConfigs: 2}},
	}}
	s, ts := newTestServer(t, cfg, runner)
	sweep := func(n int) SweepRequest {
		return SweepRequest{Benchmarks: []string{"gcm_n13"}, Schedulers: []string{"rescq"},
			Distances: oddDistances(n), Async: true}
	}

	// A whale sweep takes the one worker; a second sweep queues behind it.
	whale := decode[JobView](t, postTenant(t, ts.URL+"/v1/sweep", "whale", sweep(20)))
	gone := decode[JobView](t, postTenant(t, ts.URL+"/v1/sweep", "gone", sweep(10)))
	if whale.ID == "" || gone.ID == "" {
		t.Fatalf("sweeps rejected: %+v, %+v", whale, gone)
	}
	if p := pendingMatchesBacklogs(t, ts.URL); p <= 0 || p > 30 {
		t.Fatalf("pending with two sweeps admitted = %v, want in (0, 30]", p)
	}

	// Cancelled: the queued sweep's configurations are abandoned.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+gone.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Tenant-shed: over small's quota, so never admitted.
	resp = postTenant(t, ts.URL+"/v1/sweep", "small", sweep(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("small over-quota status = %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
	pendingMatchesBacklogs(t, ts.URL)

	// Completed, and preempting the whale: synchronous interactive runs.
	for i := 0; i < 3; i++ {
		rr := decode[RunResponse](t, postTenant(t, ts.URL+"/v1/run", "live",
			RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Seed: int64(i + 1)}}))
		if rr.State != JobDone {
			t.Fatalf("interactive run %d = %+v", i, rr)
		}
		pendingMatchesBacklogs(t, ts.URL)
	}

	if v := waitForJob(t, ts.URL, whale.ID); v.State != JobDone {
		t.Fatalf("whale = %s, want done", v.State)
	}
	if v := waitForJob(t, ts.URL, gone.ID); v.State != JobCancelled {
		t.Fatalf("cancelled sweep = %s, want cancelled", v.State)
	}
	if got := s.stats.Tenant("whale").Preempted.Load(); got < 1 {
		t.Fatalf("whale preempted %d times, want >= 1", got)
	}
	if got := s.stats.Tenant("small").Shed.Load(); got != 1 {
		t.Fatalf("small shed %d times, want 1", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for pendingMatchesBacklogs(t, ts.URL) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending configurations never returned to 0:\n%s", scrapeMetrics(t, ts.URL))
		}
		time.Sleep(time.Millisecond)
	}
}
