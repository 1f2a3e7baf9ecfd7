// Command rescqd serves the rescq simulation engine over HTTP: a job queue
// with a bounded worker pool, an LRU result cache, streaming sweep
// execution, and an optional durable job+result store that lets queued
// jobs and sweep progress survive restarts. See internal/service for the
// endpoint and job-lifecycle documentation, internal/store for the WAL
// format, and README.md in this directory for usage examples.
//
// Usage:
//
//	rescqd                            # listen on :8321, one worker per CPU
//	rescqd -addr :9000 -workers 4 -cache 2048
//	rescqd -store-dir /var/lib/rescqd # durable: jobs + results survive restarts
//	rescqd -config daemon.json        # JSON config (see internal/config.Daemon)
//
// Scale-out (see internal/cluster and the README's "Scaling out" section);
// a coordinator and its workers must run the same build:
//
//	rescqd -mode coordinator -addr :8321
//	rescqd -mode worker -addr :8322 -coordinator http://coord-host:8321
//
// The WAL is binary; rescq-walcat prints its records as JSON lines.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/service"
)

// deriveAdvertiseURL turns a bound listen address into a dialable base URL
// for the local-machine quickstart case: a wildcard or unspecified host
// becomes 127.0.0.1. Multi-host deployments set -advertise explicitly.
func deriveAdvertiseURL(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return "http://" + bound
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable main: it parses flags, serves until the listener
// fails or a SIGINT/SIGTERM arrives, then drains. A non-nil ready channel
// receives the bound address once the daemon is listening (used by tests to
// avoid port races).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("rescqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfgPath  = fs.String("config", "", "JSON daemon config file (overrides the other flags)")
		addr     = fs.String("addr", ":8321", "listen address")
		workers  = fs.Int("workers", 0, "worker pool size (0 = one per CPU)")
		queue    = fs.Int("queue", 256, "pending-job queue depth")
		cache    = fs.Int("cache", 1024, "LRU result-cache entries (negative disables)")
		drain    = fs.Int("drain", 30, "graceful-shutdown drain budget in seconds")
		layout   = fs.String("layout", "", "default lattice layout for requests that name none (default star; see GET /v1/capabilities)")
		storeDir = fs.String("store-dir", "", "durable job+result store directory (WAL); empty disables persistence")
		maxDepth = fs.Int("max-queue-depth", 0, "admission-control bound on unfinished run configurations; beyond it submissions get 429 (0 = default 4096, negative disables)")

		analyticsOn  = fs.Bool("analytics", true, "maintain sweep analytics aggregates and serve GET /v1/analytics/* (false also keeps the WAL free of analytics state records)")
		analyticsCap = fs.Int("analytics-max-groups", 0, "cardinality cap on analytics aggregate cells, one per distinct sweep-axis tuple (0 = default 8192)")

		tenantWeights = fs.String("tenant-weights", "", "per-tenant WFQ weights, e.g. \"alice=3,bob=1\" (\"default\" sets the weight for unlisted tenants)")
		tenantQuota   = fs.String("tenant-quota", "", "per-tenant quotas name=maxQueuedConfigs[:maxInflightJobs], e.g. \"alice=1000:4,bob=200\" (0 = unlimited; \"default\" applies to unlisted tenants)")

		mode        = fs.String("mode", "", "cluster mode: standalone (default), coordinator, or worker")
		coordURL    = fs.String("coordinator", "", "coordinator base URL (worker mode only)")
		advertise   = fs.String("advertise", "", "base URL the coordinator dials back for this worker; empty derives http://127.0.0.1:<bound port>")
		heartbeat   = fs.Duration("heartbeat-interval", 0, "worker heartbeat / coordinator sweep cadence (0 = default 2s; cluster modes only)")
		expiry      = fs.Duration("liveness-expiry", 0, "how long a worker may miss heartbeats before the coordinator expires it (0 = default 3x heartbeat)")
		batchSize   = fs.Int("batch-size", 0, "hard cap on sweep configurations per dispatch batch (0 = default 8; coordinator only)")
		batchTarget = fs.Duration("batch-target", 0, "estimated work the adaptive sizer packs per batch (0 = default 500ms; coordinator only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rescqd: unexpected arguments %v\n", fs.Args())
		return 2
	}

	var tenants config.Tenants
	if err := tenants.ApplyWeightFlag(*tenantWeights); err != nil {
		fmt.Fprintln(stderr, "rescqd:", err)
		return 2
	}
	if err := tenants.ApplyQuotaFlag(*tenantQuota); err != nil {
		fmt.Fprintln(stderr, "rescqd:", err)
		return 2
	}

	cfg := config.Daemon{
		Addr: *addr, Workers: *workers, QueueDepth: *queue,
		CacheEntries: *cache, DrainTimeoutSec: *drain, Layout: *layout,
		StoreDir: *storeDir, MaxQueueDepth: *maxDepth,
		Analytics: analyticsOn, AnalyticsMaxGroups: *analyticsCap,
		Tenants: tenants,
		Cluster: config.Cluster{
			Mode:                *mode,
			CoordinatorURL:      *coordURL,
			AdvertiseURL:        *advertise,
			HeartbeatIntervalMS: int(heartbeat.Milliseconds()),
			LivenessExpiryMS:    int(expiry.Milliseconds()),
			BatchSize:           *batchSize,
			BatchTargetMS:       int(batchTarget.Milliseconds()),
		},
	}.WithDefaults()
	if *cfgPath != "" {
		loaded, err := config.LoadDaemon(*cfgPath)
		if err != nil {
			fmt.Fprintln(stderr, "rescqd:", err)
			return 1
		}
		cfg = loaded
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "rescqd:", err)
		return 1
	}

	// Fault injection: the environment variable wins over the config file
	// (chaos harnesses arm whole process trees through the environment);
	// with neither set every failpoint stays dormant — one atomic load per
	// site. The banner makes an armed daemon impossible to mistake for a
	// production one.
	if spec, err := fault.FromEnv(); err != nil {
		fmt.Fprintln(stderr, "rescqd:", err)
		return 1
	} else if spec == "" && cfg.Failpoints != "" {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = 1
		}
		if err := fault.Configure(cfg.Failpoints, seed); err != nil {
			fmt.Fprintln(stderr, "rescqd:", err)
			return 1
		}
	}
	if spec := fault.Active(); spec != "" {
		fmt.Fprintf(stdout, "rescqd: FAULT INJECTION ARMED: %s\n", spec)
	}

	svc := service.New(cfg, nil)
	if cfg.StoreDir != "" {
		// Replay the WAL before the worker pool starts: finished jobs come
		// back as history, the result cache is warm, and interrupted jobs
		// are already queued when the first worker wakes.
		rs, err := svc.AttachStore(cfg.StoreDir)
		if err != nil {
			fmt.Fprintln(stderr, "rescqd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "rescqd: store %s replayed %d jobs / %d results (%d cache entries re-seeded, %d interrupted jobs re-enqueued)\n",
			cfg.StoreDir, rs.Jobs, rs.Results, rs.Reseeded, rs.Reenqueued)
		if rs.Dropped > 0 {
			fmt.Fprintf(stderr, "rescqd: %d interrupted jobs could not be re-enqueued (queue full); they remain resumable on disk\n", rs.Dropped)
		}
	}
	svc.Start()
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Catch SIGINT/SIGTERM before announcing readiness: a signal sent the
	// moment the daemon reports it is listening must drain it, not kill it.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		fmt.Fprintln(stderr, "rescqd:", err)
		return 1
	}
	modeNote := ""
	if cfg.Cluster.Clustered() {
		modeNote = " mode=" + cfg.Cluster.Mode
	}
	fmt.Fprintf(stdout, "rescqd: listening on %s (workers=%d queue=%d cache=%d%s)\n",
		ln.Addr(), svc.Workers(), cfg.QueueDepth, cfg.CacheEntries, modeNote)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// A worker keeps itself registered with the coordinator: one heartbeat
	// immediately, then one per interval, until shutdown begins. Transient
	// failures (the coordinator not up yet, a coordinator restart) are
	// retried at the heartbeat cadence, logged but not fatal.
	hbCtx, hbStop := context.WithCancel(context.Background())
	defer hbStop()
	if cfg.Cluster.Mode == config.ModeWorker {
		self := cfg.Cluster.AdvertiseURL
		if self == "" {
			self = deriveAdvertiseURL(ln.Addr().String())
		}
		fmt.Fprintf(stdout, "rescqd: worker %s heartbeating to %s every %s\n",
			self, cfg.Cluster.CoordinatorURL, cfg.Cluster.HeartbeatInterval())
		hb := &cluster.Heartbeater{
			Client: cluster.NewTunedClient(cluster.ClientOptions{
				DialTimeout:     cfg.Cluster.DialTimeout(),
				IdleConnTimeout: cfg.Cluster.IdleConnTimeout(),
			}),
			CoordinatorURL: cfg.Cluster.CoordinatorURL,
			Self:           cluster.RegisterRequest{ID: self, URL: self, Capacity: svc.Workers()},
			Interval:       cfg.Cluster.HeartbeatInterval(),
			Jitter:         cfg.Cluster.HeartbeatJitter,
			Retries:        cfg.Cluster.DispatchRetries,
			OnError:        func(err error) { fmt.Fprintln(stderr, "rescqd: heartbeat:", err) },
			Draining:       svc.WorkerDraining,
			OnReleased: func() {
				fmt.Fprintln(stdout, "rescqd: drained and released by coordinator; heartbeating stopped (safe to terminate)")
			},
		}
		go hb.Run(hbCtx)
	}

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "rescqd: %v, draining (budget %s)\n", sig, cfg.DrainTimeout())
	case err := <-serveErr:
		fmt.Fprintln(stderr, "rescqd:", err)
		return 1
	}

	hbStop() // deregistration is implicit: missed heartbeats expire the worker
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout())
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "rescqd: drain budget expired, in-flight jobs cancelled:", err)
		return 1
	}
	fmt.Fprintln(stdout, "rescqd: drained cleanly")
	return 0
}
