package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/resultcodec"
	"repro/internal/store"
)

// postBatch POSTs an execute request to a worker the way the coordinator
// does: one binary frame.
func postBatch(t *testing.T, url string, req cluster.ExecuteRequest) *http.Response {
	t.Helper()
	resp, err := http.Post(url+cluster.ExecutePath, cluster.BinaryContentType,
		bytes.NewReader(cluster.EncodeExecuteRequestBinary(req)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// clusterNode is one in-process cluster member: a service.Server behind a
// real HTTP listener, plus (for workers) the heartbeat loop keeping it
// registered with the coordinator.
type clusterNode struct {
	srv  *Server
	ts   *httptest.Server
	stop context.CancelFunc // heartbeater; nil on the coordinator
	// released is closed when the coordinator acks a drain and the
	// heartbeat loop exits (workers only).
	released chan struct{}
}

// startCoordinator boots a coordinator node (optionally durable).
func startCoordinator(t *testing.T, storeDir string) *clusterNode {
	t.Helper()
	cfg := config.Daemon{
		Workers: 2,
		Cluster: config.Cluster{
			Mode:                config.ModeCoordinator,
			HeartbeatIntervalMS: 50,
			LivenessExpiryMS:    200,
		},
	}.WithDefaults()
	s := New(cfg, nil)
	if storeDir != "" {
		if _, err := s.AttachStore(storeDir); err != nil {
			t.Fatalf("AttachStore: %v", err)
		}
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	n := &clusterNode{srv: s, ts: ts}
	t.Cleanup(func() { n.shutdown(t) })
	return n
}

// startWorker boots a one-slot worker node with the given runner and keeps
// it heartbeating against the coordinator.
func startWorker(t *testing.T, coordURL string, runner Runner) *clusterNode {
	t.Helper()
	return startWorkerSlots(t, coordURL, runner, 1)
}

// startWorkerSlots is startWorker advertising the given slot capacity.
func startWorkerSlots(t *testing.T, coordURL string, runner Runner, slots int) *clusterNode {
	t.Helper()
	cfg := config.Daemon{
		Workers: slots,
		Cluster: config.Cluster{
			Mode:                config.ModeWorker,
			CoordinatorURL:      coordURL,
			HeartbeatIntervalMS: 50,
		},
	}.WithDefaults()
	s := New(cfg, runner)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	released := make(chan struct{})
	hb := &cluster.Heartbeater{
		Client:         cluster.NewTunedClient(),
		CoordinatorURL: coordURL,
		Self:           cluster.RegisterRequest{ID: ts.URL, URL: ts.URL, Capacity: slots},
		Interval:       cfg.Cluster.HeartbeatInterval(),
		Draining:       s.WorkerDraining,
		OnReleased:     func() { close(released) },
	}
	go hb.Run(ctx)
	n := &clusterNode{srv: s, ts: ts, stop: cancel, released: released}
	t.Cleanup(func() { n.shutdown(t) })
	return n
}

func (n *clusterNode) shutdown(t *testing.T) {
	if n.stop != nil {
		n.stop()
		n.stop = nil
	}
	n.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
}

// kill hard-kills a worker node, in-process style: heartbeats stop and
// every open connection is severed mid-flight, exactly what the
// coordinator observes when the worker process is SIGKILLed.
func (n *clusterNode) kill() {
	if n.stop != nil {
		n.stop()
		n.stop = nil
	}
	n.ts.CloseClientConnections()
}

func waitForWorkers(t *testing.T, coord *clusterNode, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ws, _ := coord.srv.ClusterWorkers(); len(ws) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	ws, _ := coord.srv.ClusterWorkers()
	t.Fatalf("coordinator sees %d workers, want %d", len(ws), want)
}

// chaosSweep is the kill-mid-sweep workload: 2 benchmarks x 3 schedulers
// x 2 distances x 2 physical error rates = 24 distinct configurations.
var chaosSweep = SweepRequest{
	Benchmarks: []string{"vqe_n13", "qft_n18"},
	Schedulers: []string{"greedy", "autobraid", "rescq"},
	Distances:  []int{3, 5},
	PhysErrors: []float64{1e-4, 1e-3},
	Runs:       1,
	Async:      true,
}

// victimRunner never completes a configuration: it signals the first call
// and then blocks until the request context dies (which is what a real
// engine run does when its worker process is killed mid-simulation).
type victimRunner struct {
	once    sync.Once
	started chan struct{}
}

func (v *victimRunner) stall(ctx context.Context) error {
	v.once.Do(func() { close(v.started) })
	<-ctx.Done()
	return fmt.Errorf("worker killed mid-run: %w", ctx.Err())
}

func (v *victimRunner) Run(ctx context.Context, bench string, opts rescq.Options) (rescq.Summary, error) {
	return rescq.Summary{}, v.stall(ctx)
}

func (v *victimRunner) RunCircuitText(ctx context.Context, name, text string, opts rescq.Options) (rescq.Summary, error) {
	return rescq.Summary{}, v.stall(ctx)
}

func (v *victimRunner) Experiment(ctx context.Context, id string, quick bool) (string, error) {
	return "", v.stall(ctx)
}

// normalizeResults strips the volatile fields (cached) so cluster and
// standalone result sets can be compared byte-for-byte.
func normalizeResults(t *testing.T, results []ConfigResult) []byte {
	t.Helper()
	out := make([]ConfigResult, len(results))
	copy(out, results)
	for i := range out {
		out[i].Cached = false
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClusterKillWorkerMidSweep is the scale-out acceptance test: one
// coordinator, three workers, a 24-configuration sweep, and one worker
// hard-killed while it holds a batch. The sweep must complete with every
// configuration byte-identical to a standalone run (modulo the cached
// flag), the dead worker's batch must observably re-dispatch to a
// survivor, and the coordinator's WAL must hold the full result sequence
// in index order.
func TestClusterKillWorkerMidSweep(t *testing.T) {
	storeDir := t.TempDir()
	coord := startCoordinator(t, storeDir)

	victim := &victimRunner{started: make(chan struct{})}
	w1 := startWorker(t, coord.ts.URL, nil) // real engine
	w2 := startWorker(t, coord.ts.URL, victim)
	w3 := startWorker(t, coord.ts.URL, nil) // real engine
	_, _ = w1, w3
	waitForWorkers(t, coord, 3)

	// Submit the sweep; the victim stalls the first batch it receives.
	resp := postJSON(t, coord.ts.URL+"/v1/sweep", chaosSweep)
	accepted := decode[JobView](t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d", resp.StatusCode)
	}

	select {
	case <-victim.started:
	case <-time.After(10 * time.Second):
		t.Fatal("victim worker never received a batch")
	}
	w2.kill() // SIGKILL-equivalent: heartbeats stop, connections sever

	view := waitForJob(t, coord.ts.URL, accepted.ID)
	if view.State != JobDone {
		t.Fatalf("sweep finished %s (%s), want done", view.State, view.Error)
	}
	if view.Progress.Done != 24 || view.Progress.Total != 24 {
		t.Fatalf("progress = %+v, want 24/24", view.Progress)
	}
	if n := coord.srv.stats.BatchesRedispatched.Load(); n == 0 {
		t.Fatal("dead worker's batch was never re-dispatched (counter is 0)")
	}
	if n := coord.srv.stats.RemoteConfigs.Load(); n == 0 {
		t.Fatal("no configuration was executed remotely")
	}
	if n := coord.srv.stats.WireBinaryBatches.Load(); n == 0 {
		t.Fatal("workers advertised the binary codec but no batch went over the binary wire")
	}
	if n := coord.srv.stats.WireBinaryBytesOut.Load(); n == 0 {
		t.Fatal("binary batches were counted but no outbound wire bytes were")
	}

	// Fetch the completed results from the coordinator.
	full := decode[JobView](t, get(t, coord.ts.URL+"/v1/jobs/"+accepted.ID))
	gotJSON := normalizeResults(t, full.Results)

	// The same sweep on a standalone daemon must produce byte-identical
	// results.
	standalone, ts := newTestServer(t, config.Daemon{Workers: 2}, nil)
	_ = standalone
	req := chaosSweep
	req.Async = false
	sView := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", req))
	wantJSON := normalizeResults(t, sView.Results)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("cluster sweep differs from standalone run:\ncluster:\n%s\nstandalone:\n%s", gotJSON, wantJSON)
	}

	// Re-submitting the sweep hits the coordinator cache for every
	// configuration: no new dispatches, every result flagged cached.
	dispatchedBefore := coord.srv.stats.BatchesDispatched.Load()
	req2 := chaosSweep
	req2.Async = false
	second := decode[JobView](t, postJSON(t, coord.ts.URL+"/v1/sweep", req2))
	if len(second.Results) != 24 {
		t.Fatalf("second sweep returned %d results", len(second.Results))
	}
	for _, r := range second.Results {
		if !r.Cached {
			t.Fatalf("second sweep config %d not served from cache", r.Index)
		}
	}
	if after := coord.srv.stats.BatchesDispatched.Load(); after != dispatchedBefore {
		t.Fatalf("cached sweep dispatched %d new batches", after-dispatchedBefore)
	}

	// The WAL holds the job with all 24 results in index order, so a
	// kill-restart of the coordinator would resume/replay it byte-identically.
	coord.shutdown(t)
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st.Close()
	var found bool
	for _, rj := range st.Replayed() {
		if rj.Job.ID != accepted.ID {
			continue
		}
		found = true
		if rj.State != string(JobDone) {
			t.Fatalf("WAL state = %q, want done", rj.State)
		}
		if len(rj.Results) != 24 {
			t.Fatalf("WAL holds %d results, want 24", len(rj.Results))
		}
		for i, rr := range rj.Results {
			if rr.Index != i {
				t.Fatalf("WAL result %d has index %d (not in order)", i, rr.Index)
			}
		}
	}
	if !found {
		t.Fatalf("job %s not found in WAL", accepted.ID)
	}
}

// TestClusterFallbackWithoutWorkers: a coordinator with no registered
// workers behaves exactly like a standalone daemon (local pool fallback).
func TestClusterFallbackWithoutWorkers(t *testing.T) {
	coord := startCoordinator(t, "")
	req := chaosSweep
	req.Benchmarks = []string{"vqe_n13"}
	req.Async = false
	view := decode[JobView](t, postJSON(t, coord.ts.URL+"/v1/sweep", req))
	if view.State != JobDone || len(view.Results) != 12 {
		t.Fatalf("fallback sweep: state=%s results=%d, want done/12", view.State, len(view.Results))
	}
	if n := coord.srv.stats.BatchesDispatched.Load(); n != 0 {
		t.Fatalf("workerless coordinator dispatched %d batches", n)
	}
	if n := coord.srv.stats.EngineRuns.Load(); n == 0 {
		t.Fatal("fallback never ran the local engine")
	}
}

// TestClusterWorkerExpiry: a worker that stops heartbeating is expired by
// the liveness sweeper and disappears from /healthz.
func TestClusterWorkerExpiry(t *testing.T) {
	coord := startCoordinator(t, "")
	client := cluster.NewTunedClient()
	resp, err := client.Register(context.Background(), coord.ts.URL,
		cluster.RegisterRequest{ID: "w-ghost", URL: "http://127.0.0.1:1", Capacity: 1})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if resp.Workers != 1 || resp.ExpiresInMS != 200 {
		t.Fatalf("register response = %+v", resp)
	}
	waitForWorkers(t, coord, 1)
	waitForWorkers(t, coord, 0) // never heartbeats again: expired
	if n := coord.srv.stats.WorkerExpiries.Load(); n == 0 {
		t.Fatal("expiry counter is 0 after a worker was expired")
	}
	health := decode[healthBody](t, get(t, coord.ts.URL+"/healthz"))
	if health.Cluster == nil || health.Cluster.Mode != config.ModeCoordinator {
		t.Fatalf("healthz cluster section = %+v", health.Cluster)
	}
	if health.Cluster.LiveWorkers != 0 {
		t.Fatalf("healthz live_workers = %d, want 0", health.Cluster.LiveWorkers)
	}
	if v, _ := sampleValue(scrapeMetrics(t, coord.ts.URL), "rescqd_cluster_worker_expiries_total"); v == 0 {
		t.Fatal("rescqd_cluster_worker_expiries_total = 0 after a worker was expired")
	}
}

// TestWorkerExecuteEndpoint covers the worker-side dispatch surface
// directly: a valid batch executes in order, malformed batches are 400s,
// and a body in any format but the plain binary frame (a gzip-encoded
// frame included) is a 415.
func TestWorkerExecuteEndpoint(t *testing.T) {
	runner := &countingRunner{}
	cfg := config.Daemon{
		Workers: 1,
		Cluster: config.Cluster{Mode: config.ModeWorker, CoordinatorURL: "http://unused:1"},
	}.WithDefaults()
	s := New(cfg, runner)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	specs := []resultcodec.Spec{
		{Benchmark: "gcm_n13", Opts: rescq.Options{Runs: 1}},
		{Benchmark: "qft_n18", Opts: rescq.Options{Runs: 1}},
	}
	req := cluster.ExecuteRequest{JobID: "job-000001", Configs: make([]cluster.ExecuteConfig, len(specs))}
	for i := range specs {
		data, err := resultcodec.AppendSpecs(nil, &specs[i])
		if err != nil {
			t.Fatal(err)
		}
		req.Configs[i] = cluster.ExecuteConfig{Index: i + 5, Spec: data}
	}
	resp := postBatch(t, ts.URL, req)
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d, %v", resp.StatusCode, err)
	}
	out, err := cluster.DecodeExecuteResponseBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("execute returned %d results", len(out.Results))
	}
	for i, raw := range out.Results {
		var res ConfigResult
		if err := resultcodec.Decode(raw, &res); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Index != i+5 || res.Summary == nil || res.Benchmark != specs[i].Benchmark {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
	if runner.calls.Load() != 2 {
		t.Fatalf("runner ran %d times, want 2", runner.calls.Load())
	}

	// Malformed batches never reach the engine. A spec in JSON, as a
	// coordinator of an older build sends it, is one of them: the 400
	// makes that coordinator run the batch locally.
	jsonSpec, err := json.Marshal(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	twoSpecs, err := resultcodec.AppendSpecs(nil, &specs[0], &specs[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range [][]byte{[]byte(`"not-a-spec"`), jsonSpec, twoSpecs} {
		body := cluster.EncodeExecuteRequestBinary(cluster.ExecuteRequest{JobID: "j",
			Configs: []cluster.ExecuteConfig{{Index: 0, Spec: spec}}})
		r, err := http.Post(ts.URL+cluster.ExecutePath, cluster.BinaryContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %d, want 400", spec, r.StatusCode)
		}
	}
	for _, body := range [][]byte{
		nil, []byte(`{`),
		cluster.EncodeExecuteRequestBinary(cluster.ExecuteRequest{JobID: "j"}),
	} {
		r, err := http.Post(ts.URL+cluster.ExecutePath, cluster.BinaryContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, r.StatusCode)
		}
	}
	// A batch as JSON is a format this build does not speak.
	r := postJSON(t, ts.URL+cluster.ExecutePath, cluster.ExecuteRequest{JobID: "job-000001",
		Configs: []cluster.ExecuteConfig{{Index: 5, Spec: jsonSpec}}})
	r.Body.Close()
	if r.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON batch: status %d, want 415", r.StatusCode)
	}
	// So is the same frame gzipped, as a coordinator of an older build
	// would send it.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(cluster.EncodeExecuteRequestBinary(req))
	zw.Close()
	gzReq, err := http.NewRequest(http.MethodPost, ts.URL+cluster.ExecutePath, &gz)
	if err != nil {
		t.Fatal(err)
	}
	gzReq.Header.Set("Content-Type", cluster.BinaryContentType)
	gzReq.Header.Set("Content-Encoding", "gzip")
	if r, err = http.DefaultClient.Do(gzReq); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("gzip-encoded batch: status %d, want 415", r.StatusCode)
	}
	if runner.calls.Load() != 2 {
		t.Fatalf("rejected batches reached the runner: %d runs", runner.calls.Load())
	}

	// A standalone daemon does not expose the internal endpoints at all.
	sa, tsa := newTestServer(t, config.Daemon{}, &countingRunner{})
	_ = sa
	r = postBatch(t, tsa.URL, req)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("standalone execute endpoint: %d, want 404", r.StatusCode)
	}
}

// TestWorkerResultsTypedOnTheWire: a worker encodes each result with the
// WAL's typed codec, and the payload decodes to exactly the result the same
// configuration gives when run locally.
func TestWorkerResultsTypedOnTheWire(t *testing.T) {
	cfg := config.Daemon{
		Workers:      1,
		CacheEntries: -1, // the local run below must compute again
		Cluster:      config.Cluster{Mode: config.ModeWorker, CoordinatorURL: "http://unused:1"},
	}.WithDefaults()
	s, ts := newTestServer(t, cfg, EngineRunner{})
	spec := runSpec{Spec: resultcodec.Spec{Benchmark: "gcm_n13", Opts: rescq.Options{Runs: 1}}}
	data, err := resultcodec.AppendSpecs(nil, &spec.Spec)
	if err != nil {
		t.Fatal(err)
	}
	resp := postBatch(t, ts.URL, cluster.ExecuteRequest{JobID: "job-000001",
		Configs: []cluster.ExecuteConfig{{Index: 3, Spec: data}}})
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d, %v", resp.StatusCode, err)
	}
	out, err := cluster.DecodeExecuteResponseBinary(raw)
	if err != nil || len(out.Results) != 1 {
		t.Fatalf("execute response: %d results, %v", len(out.Results), err)
	}
	payload := out.Results[0]
	if len(payload) == 0 || payload[0] != 0x01 {
		t.Fatalf("result payload starts %q, want the typed tag 0x01", payload[:min(len(payload), 8)])
	}
	var remote ConfigResult
	if err := resultcodec.Decode(payload, &remote); err != nil {
		t.Fatal(err)
	}
	local := s.runOne(context.Background(), spec)
	local.Index = 3
	got, _ := json.Marshal(remote)
	want, _ := json.Marshal(local)
	if remote.Summary == nil || !bytes.Equal(got, want) {
		t.Fatalf("worker result differs from a local run:\n got %s\nwant %s", got, want)
	}
}

// TestUndecodableResultChargesBreaker: a worker whose result payloads do not
// decode is charged like a failed dispatch, so its breaker opens and the
// coordinator finishes the job on its local pool.
func TestUndecodableResultChargesBreaker(t *testing.T) {
	var calls atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		req, err := cluster.DecodeExecuteRequestAuto(r.Body, r.Header.Get("Content-Type"), r.Header.Get("Content-Encoding"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var resp cluster.ExecuteResponse
		for range req.Configs {
			resp.Results = append(resp.Results, []byte{0x01, 0xff}) // typed tag, unknown flags
		}
		w.Header().Set("Content-Type", cluster.BinaryContentType)
		w.Write(cluster.EncodeExecuteResponseBinary(resp))
	}))
	t.Cleanup(bad.Close)
	cfg := config.Daemon{
		Workers: 1,
		Cluster: config.Cluster{Mode: config.ModeCoordinator, LivenessExpiryMS: 60_000},
	}.WithDefaults()
	_, ts := newTestServer(t, cfg, &countingRunner{})
	resp := postJSON(t, ts.URL+cluster.RegisterPath, cluster.RegisterRequest{ID: "w-bad", URL: bad.URL, Capacity: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", resp.Status)
	}
	view := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Benchmarks: []string{"gcm_n13"}, Runs: 1}))
	if view.State != JobDone || len(view.Results) == 0 || view.Results[0].Summary == nil {
		t.Fatalf("sweep over an undecodable worker = %+v", view)
	}
	prom := scrapeMetrics(t, ts.URL)
	if v, _ := sampleValue(prom, "rescqd_cluster_breaker_opens_total"); v < 1 || calls.Load() < 3 {
		t.Fatalf("breaker opens = %v after %d undecodable batches, want >= 1 after >= 3", v, calls.Load())
	}
	if v, _ := sampleValue(prom, "rescqd_cluster_remote_configs_total"); v != 0 {
		t.Fatalf("rescqd_cluster_remote_configs_total = %v, want 0: nothing decoded", v)
	}
}

// TestRegisterRejectsCodecNegotiation: a heartbeat from a build that
// still negotiated wire codecs is refused by the strict register decoder,
// since coordinator and workers must run the same build.
func TestRegisterRejectsCodecNegotiation(t *testing.T) {
	coord := startCoordinator(t, "")
	resp, err := http.Post(coord.ts.URL+cluster.RegisterPath, "application/json",
		strings.NewReader(`{"id":"w-old","url":"http://127.0.0.1:1","capacity":1,"codecs":["binary","json"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register with codecs answered %d, want 400", resp.StatusCode)
	}
	if n := coord.srv.clust.registry.Len(); n != 0 {
		t.Fatalf("registry holds %d workers after a refused register", n)
	}
}

// TestWorkerExecuteCancelReturns503: when the coordinator hangs up
// mid-batch, the worker must answer with an explicit 503, not the empty
// 200 it used to write — a coordinator whose cancel came from a proxy
// hiccup rather than its own dispatcher would misread the empty 200 as a
// zero-result success.
func TestWorkerExecuteCancelReturns503(t *testing.T) {
	victim := &victimRunner{started: make(chan struct{})}
	cfg := config.Daemon{
		Workers: 1,
		Cluster: config.Cluster{Mode: config.ModeWorker, CoordinatorURL: "http://unused:1"},
	}.WithDefaults()
	s := New(cfg, victim)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	spec, err := resultcodec.AppendSpecs(nil, &resultcodec.Spec{Benchmark: "vqe_n13", Opts: rescq.Options{Runs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	req := cluster.ExecuteRequest{JobID: "job-000001", Configs: []cluster.ExecuteConfig{
		{Index: 0, Spec: spec}, {Index: 1, Spec: spec},
	}}
	body := cluster.EncodeExecuteRequestBinary(req)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hr := httptest.NewRequest(http.MethodPost, cluster.ExecutePath, bytes.NewReader(body)).WithContext(ctx)
	hr.Header.Set("Content-Type", cluster.BinaryContentType)
	rec := httptest.NewRecorder()

	done := make(chan struct{})
	go func() {
		s.handleExecute(rec, hr)
		close(done)
	}()
	select {
	case <-victim.started: // config 0 is on the engine
	case <-time.After(10 * time.Second):
		t.Fatal("batch never reached the runner")
	}
	cancel() // the coordinator hangs up mid-batch
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after cancellation")
	}

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled batch answered %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "batch abandoned") {
		t.Fatalf("503 body = %q, want an explicit abandonment error", rec.Body.String())
	}
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

// TestBatchSizerProgression pins the adaptive sizer's three regimes: a
// doubling ramp-up while the latency histogram is cold, target/p50-sized
// batches once it is warm (clamped to the fixed maxBatch cap), and the
// tail-split rule spreading a small backlog across every free slot.
func TestBatchSizerProgression(t *testing.T) {
	cfg := config.Daemon{
		Workers: 1,
		Cluster: config.Cluster{
			Mode:                config.ModeCoordinator,
			HeartbeatIntervalMS: 50,
			LivenessExpiryMS:    200,
			BatchTargetMS:       100,
		},
	}
	s := New(cfg, nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	z := newBatchSizer(s)
	// Cold histogram: ramp-up batches double regardless of a deep backlog.
	for _, want := range []int{1, 2, 4, 8} {
		if got := z.next(1000, 1); got != want {
			t.Fatalf("cold sizer ramp = %d, want %d", got, want)
		}
	}

	// Warm histogram of 20ms samples: p50 reads 20.48ms, the upper edge of
	// their bucket, so a 100ms target packs 4 per batch.
	for i := 0; i < 2*minLatencySamples; i++ {
		s.stats.ObserveConfigLatency(20 * time.Millisecond)
	}
	if got := z.next(1000, 1); got != 4 {
		t.Fatalf("steady-state size = %d, want 100ms/20.48ms = 4", got)
	}

	// Tail split: 10 configs over 4 free slots is ceil(10/4) = 3 per batch,
	// smaller than steady state, so the tail fans out.
	if got := z.next(10, 4); got != 3 {
		t.Fatalf("tail-split size = %d, want 3", got)
	}
	// The split never undercuts 1, and a deep backlog ignores it.
	if got := z.next(1, 8); got != 1 {
		t.Fatalf("tail-split floor = %d, want 1", got)
	}
	if got := z.next(1000, 4); got != 4 {
		t.Fatalf("deep-backlog size = %d, want steady-state 4", got)
	}

	// The cap always wins: instant configurations read a p50 of 1µs and
	// would otherwise ask for 100ms/1µs per batch.
	fast := New(cfg, nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fast.Shutdown(ctx)
	})
	for i := 0; i < 2*minLatencySamples; i++ {
		fast.stats.ObserveConfigLatency(0)
	}
	if got := newBatchSizer(fast).next(1000, 1); got != 8 {
		t.Fatalf("sub-ms size = %d, want the cap 8", got)
	}
	// Workers reject batches beyond their decode limit as poison, so the
	// cap must stay within it.
	if maxBatch > cluster.MaxBatchConfigs {
		t.Fatalf("batch cap %d exceeds the wire limit %d", maxBatch, cluster.MaxBatchConfigs)
	}
}

// TestClusterDrainWorkerMidSweep is the elasticity acceptance test: drain
// one of three workers while a sweep is in flight. The sweep must finish
// with results byte-identical to a standalone run (zero lost or duplicated
// configurations), the drained worker must deregister cleanly (released by
// the coordinator, heartbeat loop exited) and refuse new batches with 503.
func TestClusterDrainWorkerMidSweep(t *testing.T) {
	runner := skewRunner{fast: 15 * time.Millisecond, slow: 15 * time.Millisecond}
	coord := startCoordinator(t, "")
	w1 := startWorker(t, coord.ts.URL, runner)
	victim := startWorker(t, coord.ts.URL, runner)
	w2 := startWorker(t, coord.ts.URL, runner)
	_, _ = w1, w2
	waitForWorkers(t, coord, 3)

	resp := postJSON(t, coord.ts.URL+"/v1/sweep", chaosSweep)
	accepted := decode[JobView](t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d", resp.StatusCode)
	}

	// Wait until dispatch is genuinely under way, then drain the victim.
	deadline := time.Now().Add(10 * time.Second)
	for coord.srv.stats.BatchesDispatched.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no batch dispatched within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	dr := decode[cluster.DrainResponse](t, postJSON(t, victim.ts.URL+cluster.DrainPath, struct{}{}))
	if !dr.Draining {
		t.Fatal("drain not acknowledged")
	}
	// Draining is idempotent: a second POST re-acknowledges.
	dr = decode[cluster.DrainResponse](t, postJSON(t, victim.ts.URL+cluster.DrainPath, struct{}{}))
	if !dr.Draining {
		t.Fatal("second drain not acknowledged")
	}

	view := waitForJob(t, coord.ts.URL, accepted.ID)
	if view.State != JobDone {
		t.Fatalf("sweep finished %s (%s), want done", view.State, view.Error)
	}
	if view.Progress.Done != 24 || view.Progress.Total != 24 {
		t.Fatalf("progress = %+v, want 24/24", view.Progress)
	}

	// Clean deregistration: the registry drops to two workers, the
	// coordinator counts the drain, and the worker's heartbeat loop exits
	// on the released ack.
	waitForWorkers(t, coord, 2)
	if n := coord.srv.stats.WorkersDrained.Load(); n != 1 {
		t.Fatalf("WorkersDrained = %d, want 1", n)
	}
	select {
	case <-victim.released:
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker's heartbeater never observed the release")
	}

	// The drained worker refuses new batches.
	execReq := cluster.ExecuteRequest{JobID: "job-x", Configs: []cluster.ExecuteConfig{{Index: 0, Spec: json.RawMessage(`{}`)}}}
	execResp := postBatch(t, victim.ts.URL, execReq)
	execResp.Body.Close()
	if execResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining worker answered execute with %d, want 503", execResp.StatusCode)
	}

	// Byte-identical to a standalone run over the same stub engine: no
	// configuration was lost to the retiring worker, none was duplicated.
	full := decode[JobView](t, get(t, coord.ts.URL+"/v1/jobs/"+accepted.ID))
	gotJSON := normalizeResults(t, full.Results)
	_, ts := newTestServer(t, config.Daemon{Workers: 2}, runner)
	req := chaosSweep
	req.Async = false
	sView := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", req))
	wantJSON := normalizeResults(t, sView.Results)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("drained cluster sweep differs from standalone run:\ncluster:\n%s\nstandalone:\n%s", gotJSON, wantJSON)
	}
}
