package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/schedq"
	"repro/internal/store"
)

// skewRunner is the stub engine behind BenchmarkCoordinatorDispatch: it
// fabricates deterministic summaries like countingRunner, but sleeps a
// per-configuration latency first. Most configurations are fast; the
// distance-5 stripe is a contiguous run of stragglers — exactly the
// workload a static shard assignment handles worst, because the whole
// stripe packs into one batch and rides a single worker while the other
// slots go idle.
type skewRunner struct {
	fast, slow time.Duration
}

func (r skewRunner) delay(opts rescq.Options) time.Duration {
	if opts.Distance == 5 {
		return r.slow
	}
	return r.fast
}

func (r skewRunner) Run(ctx context.Context, bench string, opts rescq.Options) (rescq.Summary, error) {
	t := time.NewTimer(r.delay(opts))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return rescq.Summary{}, ctx.Err()
	}
	return fakeSummary(bench, opts), nil
}

func (r skewRunner) RunCircuitText(ctx context.Context, name, text string, opts rescq.Options) (rescq.Summary, error) {
	return r.Run(ctx, name, opts)
}

func (r skewRunner) Experiment(ctx context.Context, id string, quick bool) (string, error) {
	return fmt.Sprintf("report:%s:quick=%t", id, quick), nil
}

// benchCluster boots an in-process 1-coordinator/N-worker cluster over the
// given stub runner, with caches disabled so every sweep re-executes.
func benchCluster(b *testing.B, runner Runner, workers, capacity int) (*Server, *httptest.Server) {
	b.Helper()
	coordCfg := config.Daemon{
		Workers:      2,
		CacheEntries: -1,
		Cluster: config.Cluster{
			Mode:                config.ModeCoordinator,
			HeartbeatIntervalMS: 50,
			LivenessExpiryMS:    60_000, // never expire a worker mid-measurement
			// A small work target makes the adaptive sizer's behavior visible
			// at bench latencies (5-40ms per config): the straggler stripe
			// splits across slots instead of riding one worker as a full
			// 8-config batch.
			BatchTargetMS: 25,
		},
	}.WithDefaults()
	coord := New(coordCfg, runner)
	coord.Start()
	coordTS := httptest.NewServer(coord.Handler())

	var stops []func()
	for i := 0; i < workers; i++ {
		wCfg := config.Daemon{
			Workers:      capacity,
			CacheEntries: -1,
			Cluster: config.Cluster{
				Mode:                config.ModeWorker,
				CoordinatorURL:      coordTS.URL,
				HeartbeatIntervalMS: 50,
			},
		}.WithDefaults()
		ws := New(wCfg, runner)
		ws.Start()
		wts := httptest.NewServer(ws.Handler())
		ctx, cancel := context.WithCancel(context.Background())
		hb := &cluster.Heartbeater{
			Client:         cluster.NewTunedClient(),
			CoordinatorURL: coordTS.URL,
			Self:           cluster.RegisterRequest{ID: wts.URL, URL: wts.URL, Capacity: capacity},
			Interval:       wCfg.Cluster.HeartbeatInterval(),
		}
		go hb.Run(ctx)
		stops = append(stops, func() {
			cancel()
			wts.Close()
			sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
			ws.Shutdown(sctx)
			scancel()
		})
	}
	b.Cleanup(func() {
		for _, stop := range stops {
			stop()
		}
		coordTS.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		coord.Shutdown(sctx)
		scancel()
	})

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ws, _ := coord.ClusterWorkers(); len(ws) == workers {
			return coord, coordTS
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Fatalf("workers never registered")
	return nil, nil
}

// BenchmarkCoordinatorDispatch measures scheduler throughput (configs/sec)
// through a 1-coordinator/3-worker in-process cluster on a skewed-latency
// stub engine: 48 configurations, 40 fast and a contiguous stripe of 8
// stragglers 8x slower. The engine cost per sweep is fixed, so ns/op
// isolates how well the dispatch policy keeps all six worker slots busy.
func BenchmarkCoordinatorDispatch(b *testing.B) {
	runner := skewRunner{fast: 5 * time.Millisecond, slow: 40 * time.Millisecond}
	coord, coordTS := benchCluster(b, runner, 3, 2)

	sweep := SweepRequest{
		Benchmarks: []string{"vqe_n13"},
		Schedulers: []string{"greedy"},
		Distances:  []int{3, 5, 7, 9, 11, 13},
		PhysErrors: []float64{1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4, 7e-4, 8e-4},
		Runs:       1,
		Async:      true,
	}
	body, err := json.Marshal(sweep)
	if err != nil {
		b.Fatal(err)
	}
	const configs = 48

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(coordTS.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		j, ok := coord.Job(view.ID)
		if !ok {
			b.Fatalf("job %s not found", view.ID)
		}
		<-j.Done()
		if st := j.State(); st != JobDone {
			b.Fatalf("sweep finished %s", st)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(configs*b.N)/b.Elapsed().Seconds(), "configs/sec")
}

// BenchmarkAttachStore measures crash recovery: AttachStore on a crashed
// store holding 42 finished sweeps of the same 384 configurations, the
// shape of the store the benchmark harness's warm-restart workload
// recovers (8 benchmarks x 3 schedulers x 4 distances x 4 error rates).
// The store is written through the daemon's own persist path, and each
// iteration recovers a fresh copy of it: a recovery ends with an
// analytics checkpoint that a second recovery of the same directory
// would restore instead of re-folding the log.
func BenchmarkAttachStore(b *testing.B) {
	const jobs = 42
	crashed := b.TempDir()
	w := New(config.Daemon{Workers: 1}, newGatedRunner())
	if _, err := w.AttachStore(crashed); err != nil {
		b.Fatal(err)
	}
	specs, err := w.expandSweep(SweepRequest{
		Benchmarks: []string{"vqe_n13", "hamsim_n25", "ising_n34", "qaoa_n15", "wstate_n27", "qaoafswap_n15", "qft_n18", "gcm_n13"},
		Schedulers: []string{"rescq", "greedy", "autobraid"},
		Distances:  []int{5, 7, 9, 11},
		PhysErrors: []float64{1e-4, 2e-4, 5e-4, 1e-3},
		Runs:       1, Seed: 7,
	})
	if err != nil || len(specs) != 384 {
		b.Fatalf("%d specs, %v", len(specs), err)
	}
	for i := 0; i < jobs; i++ {
		j := w.buildJob("sweep", schedq.DefaultTenant, specs)
		w.persistJob(j)
		for k := range specs {
			res := newConfigResult(specs[k])
			res.Index = k
			opts := specs[k].Opts.Canonical()
			sum := fakeSummary(specs[k].Benchmark, opts)
			res.Options, res.Summary = &opts, &sum
			w.persistResult(j, specKey(specs[k]), res)
		}
		w.persistDone(j, JobDone, nil)
	}
	if w.Lossy() {
		b.Fatal("the store went lossy while it was written")
	}
	files := map[string][]byte{}
	for _, name := range []string{store.SnapName, store.WALName} {
		if raw, err := os.ReadFile(filepath.Join(crashed, name)); err == nil {
			files[name] = raw
		}
	}
	shutdownBench(b, w)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		for name, raw := range files {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		s := New(config.Daemon{Workers: 1}, newGatedRunner())
		b.StartTimer()
		rs, err := s.AttachStore(dir)
		b.StopTimer()
		if err != nil || rs.Jobs != jobs || rs.Results != jobs*len(specs) {
			b.Fatalf("replayed %+v, %v", rs, err)
		}
		shutdownBench(b, s)
		b.StartTimer()
	}
}

func shutdownBench(b *testing.B, s *Server) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
}
