package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ServiceStats is the rescqd daemon's counter set: job lifecycle counts,
// result-cache effectiveness, and a latency histogram from which the p50 and
// p99 job latencies are derived. All methods are safe for concurrent use;
// the counters are atomics so the serving hot path never takes a lock, and
// only latency observation/rendering shares a mutex.
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
	// binary wire format, and the bytes that actually crossed the wire
	// (post-compression), per direction.
	WireBinaryBatches  atomic.Int64 // batches put on the wire
	WireBinaryBytesOut atomic.Int64 // dispatch request bytes on the wire
	WireBinaryBytesIn  atomic.Int64 // dispatch response bytes on the wire

	mu            sync.Mutex
	latency       *Histogram // completed-job latency in milliseconds
	configLatency *Histogram // per-configuration execution latency in milliseconds

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

// TenantSnapshot is a point-in-time copy of one tenant's counters.
type TenantSnapshot struct {
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Shed      int64 `json:"shed"`
	Preempted int64 `json:"preempted"`
}

// TenantSnapshots captures every tenant's counters, keyed by tenant name.
// Returns nil when no tenant has been touched (a daemon serving only
// untagged traffic still counts it all under the default tenant).
func (s *ServiceStats) TenantSnapshots() map[string]TenantSnapshot {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if len(s.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantSnapshot, len(s.tenants))
	for name, tc := range s.tenants {
		out[name] = TenantSnapshot{
			Queued:    tc.Queued.Load(),
			Running:   tc.Running.Load(),
			Done:      tc.Done.Load(),
			Shed:      tc.Shed.Load(),
			Preempted: tc.Preempted.Load(),
		}
	}
	return out
}

// NewServiceStats returns a zeroed counter set.
func NewServiceStats() *ServiceStats {
	return &ServiceStats{latency: NewHistogram(), configLatency: NewHistogram()}
}

// ObserveLatency records one completed job's wall-clock latency.
func (s *ServiceStats) ObserveLatency(d time.Duration) {
	ms := int(d.Milliseconds())
	if ms < 0 {
		ms = 0
	}
	s.mu.Lock()
	s.latency.Add(ms)
	s.mu.Unlock()
}

// LatencyPercentiles returns the p50 and p99 completed-job latencies in
// milliseconds (0, 0 before any job completes).
func (s *ServiceStats) LatencyPercentiles() (p50, p99 int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latency.N() == 0 {
		return 0, 0
	}
	return s.latency.Percentile(0.50), s.latency.Percentile(0.99)
}

// ObserveConfigLatency records one configuration's execution latency —
// local engine runs directly, remote batches as round-trip ÷ batch size.
// This is the distribution batch deadlines and hedge delays are derived
// from.
func (s *ServiceStats) ObserveConfigLatency(d time.Duration) {
	ms := int(d.Milliseconds())
	if ms < 0 {
		ms = 0
	}
	s.mu.Lock()
	s.configLatency.Add(ms)
	s.mu.Unlock()
}

// ConfigLatency returns the per-configuration latency sample count and its
// p50 and p99 in milliseconds. The p50 sizes adaptive dispatch batches, the
// p99 derives batch deadlines and hedge delays. Callers must check n
// themselves: percentiles from a handful of samples are noise, not a
// distribution.
func (s *ServiceStats) ConfigLatency() (n, p50ms, p99ms int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n = s.configLatency.N()
	if n == 0 {
		return 0, 0, 0
	}
	return n, s.configLatency.Percentile(0.50), s.configLatency.Percentile(0.99)
}

// Snapshot is a point-in-time copy of every counter, used by the /metrics
// endpoint and by tests asserting cache behavior.
type Snapshot struct {
	JobsQueued      int64 `json:"jobs_queued"`
	JobsRunning     int64 `json:"jobs_running"`
	JobsDone        int64 `json:"jobs_done"`
	JobsFailed      int64 `json:"jobs_failed"`
	JobsCancelled   int64 `json:"jobs_cancelled"`
	JobsRejected    int64 `json:"jobs_rejected"`
	JobsShed        int64 `json:"jobs_shed"`
	JobsPreempted   int64 `json:"jobs_preempted"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	EngineRuns      int64 `json:"engine_runs"`
	Coalesced       int64 `json:"coalesced"`
	ReplayedJobs    int64 `json:"replayed_jobs"`
	ReplayedResults int64 `json:"replayed_results"`
	StoreErrors     int64 `json:"store_errors"`

	DurabilityLost     int64 `json:"durability_lost"`
	DurabilityRestored int64 `json:"durability_restored"`
	LossyWrites        int64 `json:"lossy_writes"`

	BatchesDispatched   int64 `json:"batches_dispatched"`
	BatchesRedispatched int64 `json:"batches_redispatched"`
	BatchesHedged       int64 `json:"batches_hedged"`
	DispatchRetries     int64 `json:"dispatch_retries"`
	BreakerOpens        int64 `json:"breaker_opens"`
	RemoteConfigs       int64 `json:"remote_configs"`
	HeartbeatsReceived  int64 `json:"heartbeats_received"`
	WorkerExpiries      int64 `json:"worker_expiries"`
	WorkersDrained      int64 `json:"workers_drained"`

	WireBinaryBatches  int64 `json:"wire_binary_batches"`
	WireBinaryBytesOut int64 `json:"wire_binary_bytes_out"`
	WireBinaryBytesIn  int64 `json:"wire_binary_bytes_in"`

	LatencyCount int64 `json:"latency_count"`
	LatencyP50ms int64 `json:"latency_p50_ms"`
	LatencyP99ms int64 `json:"latency_p99_ms"`

	ConfigLatencyCount int64 `json:"config_latency_count"`
	ConfigLatencyP50ms int64 `json:"config_latency_p50_ms"`
	ConfigLatencyP99ms int64 `json:"config_latency_p99_ms"`

	// Tenants holds per-tenant lifecycle counters, keyed by tenant name
	// (nil when no tenant has been touched).
	Tenants map[string]TenantSnapshot `json:"tenants,omitempty"`
}

// Snapshot captures the current counter values.
func (s *ServiceStats) Snapshot() Snapshot {
	p50, p99 := s.LatencyPercentiles()
	cfgN, cfgP50, cfgP99 := s.ConfigLatency()
	s.mu.Lock()
	n := s.latency.N()
	s.mu.Unlock()
	return Snapshot{
		JobsQueued:      s.JobsQueued.Load(),
		JobsRunning:     s.JobsRunning.Load(),
		JobsDone:        s.JobsDone.Load(),
		JobsFailed:      s.JobsFailed.Load(),
		JobsCancelled:   s.JobsCancelled.Load(),
		JobsRejected:    s.JobsRejected.Load(),
		JobsShed:        s.JobsShed.Load(),
		JobsPreempted:   s.JobsPreempted.Load(),
		CacheHits:       s.CacheHits.Load(),
		CacheMisses:     s.CacheMisses.Load(),
		EngineRuns:      s.EngineRuns.Load(),
		Coalesced:       s.Coalesced.Load(),
		ReplayedJobs:    s.ReplayedJobs.Load(),
		ReplayedResults: s.ReplayedResults.Load(),
		StoreErrors:     s.StoreErrors.Load(),

		DurabilityLost:     s.DurabilityLost.Load(),
		DurabilityRestored: s.DurabilityRestored.Load(),
		LossyWrites:        s.LossyWrites.Load(),

		BatchesDispatched:   s.BatchesDispatched.Load(),
		BatchesRedispatched: s.BatchesRedispatched.Load(),
		BatchesHedged:       s.BatchesHedged.Load(),
		DispatchRetries:     s.DispatchRetries.Load(),
		BreakerOpens:        s.BreakerOpens.Load(),
		RemoteConfigs:       s.RemoteConfigs.Load(),
		HeartbeatsReceived:  s.HeartbeatsReceived.Load(),
		WorkerExpiries:      s.WorkerExpiries.Load(),
		WorkersDrained:      s.WorkersDrained.Load(),

		WireBinaryBatches:  s.WireBinaryBatches.Load(),
		WireBinaryBytesOut: s.WireBinaryBytesOut.Load(),
		WireBinaryBytesIn:  s.WireBinaryBytesIn.Load(),

		LatencyCount: int64(n),
		LatencyP50ms: int64(p50),
		LatencyP99ms: int64(p99),

		ConfigLatencyCount: int64(cfgN),
		ConfigLatencyP50ms: int64(cfgP50),
		ConfigLatencyP99ms: int64(cfgP99),

		Tenants: s.TenantSnapshots(),
	}
}

// RenderProm renders the snapshot in the Prometheus text exposition format
// under the given metric-name prefix (e.g. "rescqd").
func (s Snapshot) RenderProm(prefix string) string {
	var sb strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&sb, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			prefix, name, help, prefix, name, prefix, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&sb, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n%s_%s %d\n",
			prefix, name, help, prefix, name, prefix, name, v)
	}
	counter("jobs_queued_total", "Jobs accepted and enqueued.", s.JobsQueued)
	gauge("jobs_running", "Jobs currently executing.", s.JobsRunning)
	counter("jobs_done_total", "Jobs finished successfully.", s.JobsDone)
	counter("jobs_failed_total", "Jobs finished with an error.", s.JobsFailed)
	counter("jobs_cancelled_total", "Jobs cancelled before completion.", s.JobsCancelled)
	counter("jobs_rejected_total", "Jobs refused (queue full or draining).", s.JobsRejected)
	counter("jobs_shed_total", "Submissions shed by admission control (429).", s.JobsShed)
	counter("jobs_preempted_total", "Running jobs checkpointed and requeued by the scheduler.", s.JobsPreempted)
	counter("cache_hits_total", "Run configurations served from the result cache.", s.CacheHits)
	counter("cache_misses_total", "Run configurations that had to simulate.", s.CacheMisses)
	counter("engine_runs_total", "Engine invocations.", s.EngineRuns)
	counter("coalesced_total", "Configurations that waited on an identical in-flight run.", s.Coalesced)
	counter("replayed_jobs_total", "Jobs reconstructed from the WAL at startup.", s.ReplayedJobs)
	counter("replayed_results_total", "Completed configurations replayed from the WAL.", s.ReplayedResults)
	counter("store_errors_total", "WAL append/close failures.", s.StoreErrors)
	counter("durability_lost_total", "Times the daemon degraded to non-durable (lossy) mode.", s.DurabilityLost)
	counter("durability_restored_total", "Times the durability probe restored the WAL.", s.DurabilityRestored)
	counter("lossy_writes_total", "WAL records skipped while in lossy mode.", s.LossyWrites)
	counter("cluster_batches_dispatched_total", "Batches dispatched to cluster workers.", s.BatchesDispatched)
	counter("cluster_batches_redispatched_total", "Batches re-dispatched after a worker died or errored.", s.BatchesRedispatched)
	counter("cluster_batches_hedged_total", "Hedge batches raced against straggling workers.", s.BatchesHedged)
	counter("cluster_dispatch_retries_total", "Dispatch attempts retried after a failure.", s.DispatchRetries)
	counter("cluster_breaker_opens_total", "Per-worker circuit breakers opened.", s.BreakerOpens)
	counter("cluster_remote_configs_total", "Configurations executed by cluster workers.", s.RemoteConfigs)
	counter("cluster_heartbeats_total", "Worker register/heartbeat requests accepted.", s.HeartbeatsReceived)
	counter("cluster_worker_expiries_total", "Workers expired by the liveness sweeper.", s.WorkerExpiries)
	counter("cluster_workers_drained_total", "Draining workers released after their last in-flight batch.", s.WorkersDrained)
	counter("cluster_wire_batches_total", "Batches put on the wire to cluster workers.", s.WireBinaryBatches)
	counter("cluster_wire_bytes_out_total", "Dispatch request bytes on the wire (post-compression).", s.WireBinaryBytesOut)
	counter("cluster_wire_bytes_in_total", "Dispatch response bytes on the wire (post-compression).", s.WireBinaryBytesIn)
	counter("job_latency_observations_total", "Completed jobs with recorded latency.", s.LatencyCount)
	fmt.Fprintf(&sb, "# HELP %s_job_latency_ms Completed-job latency quantiles in milliseconds.\n# TYPE %s_job_latency_ms summary\n", prefix, prefix)
	fmt.Fprintf(&sb, "%s_job_latency_ms{quantile=\"0.5\"} %d\n", prefix, s.LatencyP50ms)
	fmt.Fprintf(&sb, "%s_job_latency_ms{quantile=\"0.99\"} %d\n", prefix, s.LatencyP99ms)
	counter("config_latency_observations_total", "Configurations with recorded execution latency.", s.ConfigLatencyCount)
	fmt.Fprintf(&sb, "# HELP %s_config_latency_ms Per-configuration latency quantiles in milliseconds.\n# TYPE %s_config_latency_ms summary\n", prefix, prefix)
	fmt.Fprintf(&sb, "%s_config_latency_ms{quantile=\"0.5\"} %d\n", prefix, s.ConfigLatencyP50ms)
	fmt.Fprintf(&sb, "%s_config_latency_ms{quantile=\"0.99\"} %d\n", prefix, s.ConfigLatencyP99ms)
	if len(s.Tenants) > 0 {
		names := make([]string, 0, len(s.Tenants))
		for name := range s.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		perTenant := func(name, kind, help string, v func(TenantSnapshot) int64) {
			fmt.Fprintf(&sb, "# HELP %s_%s %s\n# TYPE %s_%s %s\n", prefix, name, help, prefix, name, kind)
			for _, tn := range names {
				fmt.Fprintf(&sb, "%s_%s{tenant=%q} %d\n", prefix, name, tn, v(s.Tenants[tn]))
			}
		}
		perTenant("tenant_jobs_queued_total", "counter", "Jobs accepted, by tenant.",
			func(t TenantSnapshot) int64 { return t.Queued })
		perTenant("tenant_jobs_running", "gauge", "Jobs currently executing, by tenant.",
			func(t TenantSnapshot) int64 { return t.Running })
		perTenant("tenant_jobs_done_total", "counter", "Jobs reaching a terminal state, by tenant.",
			func(t TenantSnapshot) int64 { return t.Done })
		perTenant("tenant_jobs_shed_total", "counter", "Submissions shed by tenant quota (429), by tenant.",
			func(t TenantSnapshot) int64 { return t.Shed })
		perTenant("tenant_jobs_preempted_total", "counter", "Preemptions of running jobs, by tenant.",
			func(t TenantSnapshot) int64 { return t.Preempted })
	}
	return sb.String()
}
