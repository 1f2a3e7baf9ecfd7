package metrics

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ServiceStats is the rescqd daemon's counter set: job lifecycle counts,
// result-cache effectiveness, and job and per-configuration latency
// histograms. All methods are safe for concurrent use; the counters and
// histograms are atomics, so the serving hot path never takes a lock (only
// the tenant table's first touch of a tenant does). The zero value is ready
// to use.
type ServiceStats struct {
	JobsQueued    atomic.Int64 // jobs accepted and enqueued, lifetime total
	JobsRunning   atomic.Int64 // jobs currently executing (gauge)
	JobsDone      atomic.Int64 // jobs finished successfully
	JobsFailed    atomic.Int64 // jobs finished with an error
	JobsCancelled atomic.Int64 // jobs cancelled before completion
	JobsRejected  atomic.Int64 // jobs refused because the queue was full or draining
	JobsShed      atomic.Int64 // submissions shed by admission control (429 + Retry-After)
	JobsPreempted atomic.Int64 // running jobs checkpointed and requeued by the scheduler
	CacheHits     atomic.Int64 // run configurations served from the result cache
	CacheMisses   atomic.Int64 // run configurations that had to simulate
	EngineRuns    atomic.Int64 // actual engine invocations (miss + uncacheable)
	Coalesced     atomic.Int64 // configurations that waited on an identical in-flight run

	ReplayedJobs    atomic.Int64 // jobs reconstructed from the WAL at startup
	ReplayedResults atomic.Int64 // completed configurations replayed from the WAL
	StoreErrors     atomic.Int64 // WAL append/close failures (durability degraded)

	// Degraded-durability counters: a WAL failure flips the daemon into a
	// non-durable "lossy" mode instead of failing submissions; a periodic
	// probe re-attaches the store when the disk heals.
	DurabilityLost     atomic.Int64 // times the daemon entered lossy mode
	DurabilityRestored atomic.Int64 // times the probe restored durable mode
	LossyWrites        atomic.Int64 // WAL records skipped while lossy

	// Cluster counters (coordinator side; zero in standalone mode).
	BatchesDispatched   atomic.Int64 // batches POSTed to workers
	BatchesRedispatched atomic.Int64 // batches re-dispatched after a worker died or errored
	BatchesHedged       atomic.Int64 // hedge batches raced against stragglers
	DispatchRetries     atomic.Int64 // dispatch attempts retried after a failure
	BreakerOpens        atomic.Int64 // per-worker circuit breakers opened
	RemoteConfigs       atomic.Int64 // configurations whose results came back from a worker
	HeartbeatsReceived  atomic.Int64 // register/heartbeat POSTs accepted
	WorkerExpiries      atomic.Int64 // workers expired by the liveness sweeper
	WorkersDrained      atomic.Int64 // draining workers released after their last in-flight batch

	// Wire counters (coordinator side): batches that went out in the
	// binary wire format, and their bytes as framed, per direction.
	// Frames are not compressed, so the HELP text's "post-compression"
	// (pinned by the /metrics goldens) reads the same bytes.
	WireBinaryBatches  atomic.Int64 // batches put on the wire
	WireBinaryBytesOut atomic.Int64 // dispatch request bytes on the wire
	WireBinaryBytesIn  atomic.Int64 // dispatch response bytes on the wire

	jobLatency    LatencyHistogram // completed-job latency
	configLatency LatencyHistogram // per-configuration execution latency

	tenantMu sync.Mutex
	tenants  map[string]*TenantCounters
}

// TenantCounters is one tenant's slice of the job-lifecycle counters, fed
// by the service alongside the global set and rendered as labeled
// rescqd_tenant_* series. The struct is created on first touch and lives
// for the daemon's lifetime — tenant cardinality is bounded by the
// scheduler's own tenant-table cap.
type TenantCounters struct {
	Queued    atomic.Int64 // jobs accepted for this tenant, lifetime total
	Running   atomic.Int64 // this tenant's jobs currently executing (gauge)
	Done      atomic.Int64 // this tenant's jobs reaching a terminal state
	Shed      atomic.Int64 // submissions shed by this tenant's quota (429)
	Preempted atomic.Int64 // times this tenant's running jobs were preempted
}

// Tenant returns (creating if needed) the named tenant's counter set.
func (s *ServiceStats) Tenant(name string) *TenantCounters {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if s.tenants == nil {
		s.tenants = make(map[string]*TenantCounters)
	}
	tc, ok := s.tenants[name]
	if !ok {
		tc = &TenantCounters{}
		s.tenants[name] = tc
	}
	return tc
}

// Tenants returns every touched tenant's counter set, keyed by name.
func (s *ServiceStats) Tenants() map[string]*TenantCounters {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	return maps.Clone(s.tenants)
}

// ObserveLatency records one completed job's wall-clock latency.
func (s *ServiceStats) ObserveLatency(d time.Duration) { s.jobLatency.Observe(d) }

// JobLatency returns the completed-job latency sample count and its p50
// and p99 (0, 0, 0 before any job completes).
func (s *ServiceStats) JobLatency() (n int64, p50, p99 time.Duration) {
	return s.jobLatency.Count(), s.jobLatency.Quantile(0.50), s.jobLatency.Quantile(0.99)
}

// ObserveConfigLatency records one configuration's execution latency —
// local engine runs directly, remote batches as round-trip ÷ batch size.
// This is the distribution batch deadlines and hedge delays are derived
// from.
func (s *ServiceStats) ObserveConfigLatency(d time.Duration) { s.configLatency.Observe(d) }

// ConfigLatency returns the per-configuration latency sample count and its
// p50 and p99. The p50 sizes adaptive dispatch batches, the p99 derives
// batch deadlines and hedge delays. Callers must check n themselves:
// percentiles from a handful of samples are noise, not a distribution.
func (s *ServiceStats) ConfigLatency() (n int64, p50, p99 time.Duration) {
	return s.configLatency.Count(), s.configLatency.Quantile(0.50), s.configLatency.Quantile(0.99)
}

// WriteProm writes every counter as a rescqd_* family, reading the atomics
// directly; per-tenant families follow, sorted by tenant name, once any
// tenant has been touched.
func (s *ServiceStats) WriteProm(p *PromWriter) {
	p.Counter("rescqd_jobs_queued_total", "Jobs accepted and enqueued.", s.JobsQueued.Load())
	p.Gauge("rescqd_jobs_running", "Jobs currently executing.", s.JobsRunning.Load())
	p.Counter("rescqd_jobs_done_total", "Jobs finished successfully.", s.JobsDone.Load())
	p.Counter("rescqd_jobs_failed_total", "Jobs finished with an error.", s.JobsFailed.Load())
	p.Counter("rescqd_jobs_cancelled_total", "Jobs cancelled before completion.", s.JobsCancelled.Load())
	p.Counter("rescqd_jobs_rejected_total", "Jobs refused (queue full or draining).", s.JobsRejected.Load())
	p.Counter("rescqd_jobs_shed_total", "Submissions shed by admission control (429).", s.JobsShed.Load())
	p.Counter("rescqd_jobs_preempted_total", "Running jobs checkpointed and requeued by the scheduler.", s.JobsPreempted.Load())
	p.Counter("rescqd_cache_hits_total", "Run configurations served from the result cache.", s.CacheHits.Load())
	p.Counter("rescqd_cache_misses_total", "Run configurations that had to simulate.", s.CacheMisses.Load())
	p.Counter("rescqd_engine_runs_total", "Engine invocations.", s.EngineRuns.Load())
	p.Counter("rescqd_coalesced_total", "Configurations that waited on an identical in-flight run.", s.Coalesced.Load())
	p.Counter("rescqd_replayed_jobs_total", "Jobs reconstructed from the WAL at startup.", s.ReplayedJobs.Load())
	p.Counter("rescqd_replayed_results_total", "Completed configurations replayed from the WAL.", s.ReplayedResults.Load())
	p.Counter("rescqd_store_errors_total", "WAL append/close failures.", s.StoreErrors.Load())
	p.Counter("rescqd_durability_lost_total", "Times the daemon degraded to non-durable (lossy) mode.", s.DurabilityLost.Load())
	p.Counter("rescqd_durability_restored_total", "Times the durability probe restored the WAL.", s.DurabilityRestored.Load())
	p.Counter("rescqd_lossy_writes_total", "WAL records skipped while in lossy mode.", s.LossyWrites.Load())
	p.Counter("rescqd_cluster_batches_dispatched_total", "Batches dispatched to cluster workers.", s.BatchesDispatched.Load())
	p.Counter("rescqd_cluster_batches_redispatched_total", "Batches re-dispatched after a worker died or errored.", s.BatchesRedispatched.Load())
	p.Counter("rescqd_cluster_batches_hedged_total", "Hedge batches raced against straggling workers.", s.BatchesHedged.Load())
	p.Counter("rescqd_cluster_dispatch_retries_total", "Dispatch attempts retried after a failure.", s.DispatchRetries.Load())
	p.Counter("rescqd_cluster_breaker_opens_total", "Per-worker circuit breakers opened.", s.BreakerOpens.Load())
	p.Counter("rescqd_cluster_remote_configs_total", "Configurations executed by cluster workers.", s.RemoteConfigs.Load())
	p.Counter("rescqd_cluster_heartbeats_total", "Worker register/heartbeat requests accepted.", s.HeartbeatsReceived.Load())
	p.Counter("rescqd_cluster_worker_expiries_total", "Workers expired by the liveness sweeper.", s.WorkerExpiries.Load())
	p.Counter("rescqd_cluster_workers_drained_total", "Draining workers released after their last in-flight batch.", s.WorkersDrained.Load())
	p.Counter("rescqd_cluster_wire_batches_total", "Batches put on the wire to cluster workers.", s.WireBinaryBatches.Load())
	p.Counter("rescqd_cluster_wire_bytes_out_total", "Dispatch request bytes on the wire (post-compression).", s.WireBinaryBytesOut.Load())
	p.Counter("rescqd_cluster_wire_bytes_in_total", "Dispatch response bytes on the wire (post-compression).", s.WireBinaryBytesIn.Load())
	p.Counter("rescqd_job_latency_observations_total", "Completed jobs with recorded latency.", s.jobLatency.Count())
	p.Summary("rescqd_job_latency_ms", "Completed-job latency quantiles in milliseconds.", &s.jobLatency, 0.5, 0.99)
	p.Counter("rescqd_config_latency_observations_total", "Configurations with recorded execution latency.", s.configLatency.Count())
	p.Summary("rescqd_config_latency_ms", "Per-configuration latency quantiles in milliseconds.", &s.configLatency, 0.5, 0.99)

	tenants := s.Tenants()
	names := slices.Sorted(maps.Keys(tenants))
	perTenant := func(name, kind, help string, v func(*TenantCounters) *atomic.Int64) {
		if len(names) == 0 {
			return
		}
		p.Header(name, kind, help)
		for _, tn := range names {
			p.Int(name, v(tenants[tn]).Load(), "tenant", tn)
		}
	}
	perTenant("rescqd_tenant_jobs_queued_total", "counter", "Jobs accepted, by tenant.",
		func(t *TenantCounters) *atomic.Int64 { return &t.Queued })
	perTenant("rescqd_tenant_jobs_running", "gauge", "Jobs currently executing, by tenant.",
		func(t *TenantCounters) *atomic.Int64 { return &t.Running })
	perTenant("rescqd_tenant_jobs_done_total", "counter", "Jobs reaching a terminal state, by tenant.",
		func(t *TenantCounters) *atomic.Int64 { return &t.Done })
	perTenant("rescqd_tenant_jobs_shed_total", "counter", "Submissions shed by tenant quota (429), by tenant.",
		func(t *TenantCounters) *atomic.Int64 { return &t.Shed })
	perTenant("rescqd_tenant_jobs_preempted_total", "counter", "Preemptions of running jobs, by tenant.",
		func(t *TenantCounters) *atomic.Int64 { return &t.Preempted })
}
