package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/cluster"
	"repro/internal/config"
)

// The exposition golden: two daemons are driven through a scripted,
// serial set of requests and their /metrics text must match a checked-in
// file byte for byte — every family, its order, HELP, TYPE, labels and
// value. Only the samples that depend on the clock (uptime, compaction
// time, latency quantiles) or on WAL frame sizes are masked. Regenerate
// with `go test ./internal/service -run TestMetricsExpositionGolden -update`.

// maskedSeries are the families whose sample values are masked.
var maskedSeries = map[string]bool{
	"rescqd_uptime_seconds":                 true,
	"rescqd_store_compaction_seconds_total": true,
	"rescqd_job_latency_ms":                 true,
	"rescqd_config_latency_ms":              true,
	"rescqd_store_bytes":                    true,
	"rescqd_store_append_bytes_total":       true,
	"rescqd_go_gc_cpu_seconds_total":        true,
	"rescqd_go_gc_heap_goal_bytes":          true,
	"rescqd_go_sched_latency_seconds":       true,
}

// maskExposition replaces the value of every masked sample with "X".
func maskExposition(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if maskedSeries[name] {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " X"
		}
	}
	return strings.Join(lines, "\n")
}

// scrapeMetrics returns the /metrics body.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sampleValue returns the value of the exposition sample whose series
// (name plus labels, as printed) is exactly series; ok is false when the
// scrape has no such sample.
func sampleValue(text, series string) (v float64, ok bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, found := strings.CutPrefix(line, series+" "); found {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// scrapeQuiescent scrapes /metrics once every finished job has also been
// counted in the latency histogram and no job is running: a synchronous
// reply can reach the client just before the worker's last bookkeeping.
func scrapeQuiescent(t *testing.T, baseURL string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		text := scrapeMetrics(t, baseURL)
		var finished float64
		for _, name := range []string{"rescqd_jobs_done_total", "rescqd_jobs_failed_total", "rescqd_jobs_cancelled_total"} {
			v, _ := sampleValue(text, name)
			finished += v
		}
		observed, _ := sampleValue(text, "rescqd_job_latency_observations_total")
		running, _ := sampleValue(text, "rescqd_jobs_running")
		if observed == finished && running == 0 {
			return text
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon not quiescent:\n%s", text)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func checkExpositionGolden(t *testing.T, name, text string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", "metrics_"+name+".prom")
	got := maskExposition(text)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestMetricsExpositionGolden(t *testing.T) {
	t.Run("standalone", func(t *testing.T) {
		s := New(config.Daemon{Workers: 1}.WithDefaults(), &countingRunner{})
		attachDir(t, s, t.TempDir())
		s.Start()
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			shutdownServer(t, s)
		})
		postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13"}).Body.Close()
		postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13"}).Body.Close()
		postTenant(t, ts.URL+"/v1/run", "alice", RunRequest{Benchmark: "vqe_n13"}).Body.Close()
		postTenant(t, ts.URL+"/v1/sweep", "alice", SweepRequest{
			Benchmarks: []string{"gcm_n13"}, Distances: []int{3, 5, 7}, Runs: 1,
		}).Body.Close()
		get(t, ts.URL+"/v1/analytics/groupby?by=scheduler").Body.Close()
		checkExpositionGolden(t, "standalone", scrapeQuiescent(t, ts.URL))
	})

	t.Run("coordinator", func(t *testing.T) {
		cfg := config.Daemon{
			Workers: 1,
			Cluster: config.Cluster{Mode: config.ModeCoordinator, LivenessExpiryMS: 60_000},
		}.WithDefaults()
		s := New(cfg, nil)
		s.Start()
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		resp := postJSON(t, ts.URL+cluster.RegisterPath,
			cluster.RegisterRequest{ID: "w1", URL: "http://127.0.0.1:1", Capacity: 2})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register: %s", resp.Status)
		}
		checkExpositionGolden(t, "coordinator", scrapeQuiescent(t, ts.URL))
	})
}

// TestMetricsWorkerLabelEscaping: worker IDs arrive unvalidated at
// registration, so /metrics must escape them the way the exposition format
// defines — backslash, double quote and newline — and write every other
// byte (a tab, a control character) raw.
func TestMetricsWorkerLabelEscaping(t *testing.T) {
	cfg := config.Daemon{
		Workers: 1,
		Cluster: config.Cluster{Mode: config.ModeCoordinator, LivenessExpiryMS: 60_000},
	}.WithDefaults()
	_, ts := newTestServer(t, cfg, nil)
	id := "a\"b\\c\nd\te\x01f"
	resp := postJSON(t, ts.URL+cluster.RegisterPath,
		cluster.RegisterRequest{ID: id, URL: "http://127.0.0.1:1", Capacity: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", resp.Status)
	}
	text := scrapeMetrics(t, ts.URL)
	const label = `{worker="a\"b\\c\nd` + "\t" + `e` + "\x01" + `f"}`
	for _, want := range []string{
		"\nrescqd_cluster_worker_inflight" + label + " 0\n",
		"\nrescqd_cluster_worker_capacity" + label + " 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsSubMillisecondLatency: a job faster than a millisecond shows
// up as its (bucketed) fraction of a millisecond, not as 0.
func TestMetricsSubMillisecondLatency(t *testing.T) {
	s, ts := newTestServer(t, config.Daemon{}, &countingRunner{})
	s.stats.ObserveLatency(250 * time.Microsecond)
	text := scrapeMetrics(t, ts.URL)
	// 250µs lands in the [240µs, 256µs) bucket.
	if want := `rescqd_job_latency_ms{quantile="0.5"} 0.256`; !strings.Contains(text, want) {
		t.Fatalf("/metrics missing %q:\n%s", want, text)
	}
}

// TestBucketQuantile: the scheduling-latency quantiles read the upper
// bound of the bucket holding the rank, the lower bound of the open top
// bucket, and 0 for an empty histogram.
func TestBucketQuantile(t *testing.T) {
	inf := math.Inf(1)
	h := &rtmetrics.Float64Histogram{
		Counts:  []uint64{0, 3, 1, 1},
		Buckets: []float64{-inf, 0, 1e-6, 1e-3, inf},
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 1e-6}, {0.8, 1e-3}, {0.99, 1e-3}} {
		if got := bucketQuantile(h, c.q); got != c.want {
			t.Errorf("bucketQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := bucketQuantile(&rtmetrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.5); got != 0 {
		t.Errorf("empty histogram: bucketQuantile = %v, want 0", got)
	}
}

// mixRunner fails every qft_n18 configuration and takes delay over every
// other one, aborting early when the job is cancelled.
type mixRunner struct {
	countingRunner
	delay time.Duration
}

func (r *mixRunner) Run(ctx context.Context, bench string, opts rescq.Options) (rescq.Summary, error) {
	if bench == "qft_n18" {
		return rescq.Summary{}, errors.New("injected engine failure")
	}
	select {
	case <-time.After(r.delay):
		return fakeSummary(bench, opts), nil
	case <-ctx.Done():
		return rescq.Summary{}, ctx.Err()
	}
}

// TestMetricsCountersReconcile drives a mixed workload — runs that
// complete, a run that fails, a cancelled sweep, a sweep preempted by
// another tenant, a 429 shed and a drain rejection — and checks from a
// /metrics scrape at quiescence that the lifecycle counters add up: every
// queued job reached exactly one terminal state, globally and per tenant,
// and nothing is still counted as running.
func TestMetricsCountersReconcile(t *testing.T) {
	cfg := config.Daemon{Workers: 1, CacheEntries: -1, Tenants: config.Tenants{
		Policies: map[string]config.TenantPolicy{"small": {MaxQueuedConfigs: 2}},
	}}
	s, ts := newTestServer(t, cfg, &mixRunner{delay: 2 * time.Millisecond})

	whale := decode[JobView](t, postTenant(t, ts.URL+"/v1/sweep", "whale", SweepRequest{
		Benchmarks: []string{"gcm_n13"}, Distances: oddDistances(20), Runs: 1, Async: true,
	}))
	pollUntil(t, "the whale sweep running", func() bool { return getJob(t, ts.URL, whale.ID).Progress.Done > 0 })
	for i := range 3 {
		resp := postTenant(t, ts.URL+"/v1/run", "live", RunRequest{Benchmark: "vqe_n13", Options: rescq.Options{Seed: int64(i + 1)}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("live run %d: %s", i, resp.Status)
		}
	}
	if v := decode[RunResponse](t, postTenant(t, ts.URL+"/v1/run", "live", RunRequest{Benchmark: "qft_n18"})); v.State != JobFailed {
		t.Fatalf("failing run state = %s, want failed", v.State)
	}
	cancelled := decode[JobView](t, postTenant(t, ts.URL+"/v1/sweep", "canc", SweepRequest{
		Benchmarks: []string{"gcm_n13"}, Distances: oddDistances(40), Runs: 1, Async: true,
	}))
	httpDelete(t, ts.URL+"/v1/jobs/"+cancelled.ID)
	resp := postTenant(t, ts.URL+"/v1/sweep", "small", SweepRequest{
		Benchmarks: []string{"gcm_n13"}, Distances: oddDistances(3), Runs: 1,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota sweep: %s, want 429", resp.Status)
	}
	if v := waitForJob(t, ts.URL, cancelled.ID); v.State != JobCancelled {
		t.Fatalf("cancelled sweep state = %s", v.State)
	}
	if v := waitForJob(t, ts.URL, whale.ID); v.State != JobDone {
		t.Fatalf("whale sweep state = %s", v.State)
	}
	shutdownServer(t, s)
	resp = postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run after drain: %s, want 503", resp.Status)
	}

	text := scrapeQuiescent(t, ts.URL)
	value := func(series string) int64 {
		t.Helper()
		v, ok := sampleValue(text, series)
		if !ok {
			t.Fatalf("/metrics has no %s:\n%s", series, text)
		}
		return int64(v)
	}
	for _, series := range []string{
		"rescqd_jobs_done_total", "rescqd_jobs_failed_total", "rescqd_jobs_cancelled_total",
		"rescqd_jobs_shed_total", "rescqd_jobs_rejected_total", "rescqd_jobs_preempted_total",
	} {
		if value(series) < 1 {
			t.Errorf("%s = 0: the workload did not exercise it", series)
		}
	}
	queued, finished := value("rescqd_jobs_queued_total"),
		value("rescqd_jobs_done_total")+value("rescqd_jobs_failed_total")+value("rescqd_jobs_cancelled_total")
	if queued != finished {
		t.Errorf("jobs queued %d != done + failed + cancelled %d", queued, finished)
	}
	if running := value("rescqd_jobs_running"); running != 0 {
		t.Errorf("jobs running = %d at quiescence", running)
	}
	for _, tenant := range []string{"whale", "live", "canc", "small"} {
		label := `{tenant="` + tenant + `"}`
		q, d := value("rescqd_tenant_jobs_queued_total"+label), value("rescqd_tenant_jobs_done_total"+label)
		if q != d {
			t.Errorf("tenant %s: queued %d != done %d", tenant, q, d)
		}
		if r := value("rescqd_tenant_jobs_running" + label); r != 0 {
			t.Errorf("tenant %s: running = %d at quiescence", tenant, r)
		}
	}
}

// The /healthz golden: the readiness bodies of a standalone daemon with a
// store, a coordinator with one registered worker, and a worker are pinned
// key for key. Only the workers' last-seen ages are masked. Regenerate
// with `go test ./internal/service -run TestHealthzGolden -update`.

// healthzKeys is every key a /healthz body may carry, per object: the
// readiness verdict and nothing else. Counters and sizes live on /metrics.
var healthzKeys = map[string]map[string]bool{
	"":        {"status": true, "draining": true, "durable": true, "failpoints": true, "cluster": true},
	"cluster": {"mode": true, "live_workers": true, "workers": true, "worker_draining": true},
}

// workerAge matches a worker's last-seen age, the one clock-dependent
// value in a /healthz body.
var workerAge = regexp.MustCompile(`"last_seen_age_sec":[^,}]+`)

func checkHealthzGolden(t *testing.T, name, baseURL string) {
	t.Helper()
	resp := get(t, baseURL+"/healthz")
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("/healthz body %q: %v", raw, err)
	}
	cl, _ := body["cluster"].(map[string]any)
	for obj, m := range map[string]map[string]any{"": body, "cluster": cl} {
		for k := range m {
			if !healthzKeys[obj][k] {
				t.Errorf("/healthz %s carries %q, which is not a readiness verdict", obj, k)
			}
		}
	}
	got := workerAge.ReplaceAll(raw, []byte(`"last_seen_age_sec":X`))
	path := filepath.Join("testdata", "golden", "healthz_"+name+".json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("/healthz differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// checkHealthzAgreesWithMetrics: every verdict /healthz keeps reads the
// same value as its /metrics twin, and is present exactly when the twin is.
func checkHealthzAgreesWithMetrics(t *testing.T, baseURL string) {
	t.Helper()
	h := decode[healthBody](t, get(t, baseURL+"/healthz"))
	prom := scrapeMetrics(t, baseURL)
	flag := func(b *bool) (float64, bool) {
		if b == nil {
			return 0, false
		}
		return float64(boolGauge(*b)), true
	}
	type twin struct {
		field, series string
		v             float64
		ok            bool
	}
	durable, durableOK := flag(h.Durable)
	twins := []twin{{"durable", "rescqd_store_durable", durable, durableOK}}
	if c := h.Cluster; c != nil {
		draining, drainingOK := flag(c.WorkerDraining)
		twins = append(twins,
			twin{"cluster.live_workers", "rescqd_cluster_workers", float64(c.LiveWorkers), c.Mode == config.ModeCoordinator},
			twin{"cluster.worker_draining", "rescqd_worker_draining", draining, drainingOK})
	}
	for _, tw := range twins {
		if v, ok := sampleValue(prom, tw.series); v != tw.v || ok != tw.ok {
			t.Errorf("/healthz %s = %v (present: %v) but /metrics %s = %v (present: %v)", tw.field, tw.v, tw.ok, tw.series, v, ok)
		}
	}
}

func TestHealthzGolden(t *testing.T) {
	t.Run("standalone", func(t *testing.T) {
		s := New(config.Daemon{Workers: 1}.WithDefaults(), &countingRunner{})
		s.probeEvery = time.Hour // the lossy flag below must stay raised
		attachDir(t, s, t.TempDir())
		s.Start()
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13"}).Body.Close()
		checkHealthzGolden(t, "standalone", ts.URL)
		checkHealthzAgreesWithMetrics(t, ts.URL)
		s.persistFailed()
		checkHealthzAgreesWithMetrics(t, ts.URL)

		shutdownServer(t, s)
		resp := get(t, ts.URL+"/healthz")
		if h := decode[healthBody](t, resp); resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" || !h.Draining {
			t.Fatalf("draining /healthz = %d %+v, want 503 draining", resp.StatusCode, h)
		}
	})

	t.Run("coordinator", func(t *testing.T) {
		cfg := config.Daemon{
			Workers: 1,
			Cluster: config.Cluster{Mode: config.ModeCoordinator, LivenessExpiryMS: 60_000},
		}.WithDefaults()
		_, ts := newTestServer(t, cfg, nil)
		resp := postJSON(t, ts.URL+cluster.RegisterPath,
			cluster.RegisterRequest{ID: "w1", URL: "http://127.0.0.1:1", Capacity: 2})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register: %s", resp.Status)
		}
		checkHealthzGolden(t, "coordinator", ts.URL)
		checkHealthzAgreesWithMetrics(t, ts.URL)
	})

	t.Run("worker", func(t *testing.T) {
		cfg := config.Daemon{
			Workers: 1,
			Cluster: config.Cluster{Mode: config.ModeWorker, CoordinatorURL: "http://127.0.0.1:1"},
		}.WithDefaults()
		_, ts := newTestServer(t, cfg, &countingRunner{})
		checkHealthzGolden(t, "worker", ts.URL)
		checkHealthzAgreesWithMetrics(t, ts.URL)
		postJSON(t, ts.URL+cluster.DrainPath, struct{}{}).Body.Close()
		checkHealthzAgreesWithMetrics(t, ts.URL)
	})
}
