package metrics

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServiceStatsCountersAndPercentiles(t *testing.T) {
	var s ServiceStats
	if n, p50, p99 := s.JobLatency(); n != 0 || p50 != 0 || p99 != 0 {
		t.Fatalf("empty latency = %d %v/%v", n, p50, p99)
	}
	s.JobsQueued.Add(3)
	s.JobsDone.Add(2)
	s.CacheHits.Add(1)
	s.CacheMisses.Add(1)
	for ms := 1; ms <= 100; ms++ {
		s.ObserveLatency(time.Duration(ms) * time.Millisecond)
	}
	s.ObserveLatency(-time.Second) // clock weirdness counts as 0

	if s.JobsQueued.Load() != 3 || s.JobsDone.Load() != 2 || s.CacheHits.Load() != 1 {
		t.Fatalf("counters = %d/%d/%d", s.JobsQueued.Load(), s.JobsDone.Load(), s.CacheHits.Load())
	}
	n, p50, p99 := s.JobLatency()
	if n != 101 {
		t.Fatalf("latency count = %d, want 101", n)
	}
	// A quantile reads its bucket's upper edge: at most 12.5% high.
	if p50 < 50*time.Millisecond || p50 > 50*time.Millisecond*9/8 {
		t.Fatalf("p50 = %v, want 50ms..56.25ms", p50)
	}
	if p99 < 99*time.Millisecond || p99 > 99*time.Millisecond*9/8 {
		t.Fatalf("p99 = %v, want 99ms..111.375ms", p99)
	}
}

func TestServiceStatsConcurrent(t *testing.T) {
	var s ServiceStats
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.JobsQueued.Add(1)
				s.Tenant("t").Queued.Add(1)
				s.ObserveLatency(time.Millisecond)
				s.ObserveConfigLatency(time.Microsecond)
				s.JobLatency()
				s.WriteProm(&PromWriter{})
			}
		}()
	}
	wg.Wait()
	n, _, _ := s.JobLatency()
	cn, _, _ := s.ConfigLatency()
	if s.JobsQueued.Load() != 800 || n != 800 || cn != 800 || s.Tenant("t").Queued.Load() != 800 {
		t.Fatalf("after concurrent updates: queued %d, latency %d, config latency %d, tenant %d",
			s.JobsQueued.Load(), n, cn, s.Tenant("t").Queued.Load())
	}
}

func TestServiceStatsWriteProm(t *testing.T) {
	var s ServiceStats
	s.JobsDone.Add(5)
	s.CacheHits.Add(2)
	s.JobsShed.Add(3)
	s.Coalesced.Add(4)
	s.ReplayedJobs.Add(1)
	s.ReplayedResults.Add(7)
	s.BatchesDispatched.Add(6)
	s.BatchesRedispatched.Add(2)
	s.RemoteConfigs.Add(24)
	s.HeartbeatsReceived.Add(9)
	s.WorkerExpiries.Add(1)
	s.Tenant("whale").Preempted.Add(2)
	s.ObserveLatency(40 * time.Millisecond)
	var p PromWriter
	s.WriteProm(&p)
	text := string(p.Bytes())
	for _, want := range []string{
		"rescqd_cluster_batches_dispatched_total 6",
		"rescqd_cluster_batches_redispatched_total 2",
		"rescqd_cluster_remote_configs_total 24",
		"rescqd_cluster_heartbeats_total 9",
		"rescqd_cluster_worker_expiries_total 1",
		"# TYPE rescqd_jobs_done_total counter",
		"rescqd_jobs_done_total 5",
		"rescqd_cache_hits_total 2",
		"rescqd_jobs_shed_total 3",
		"rescqd_coalesced_total 4",
		"rescqd_replayed_jobs_total 1",
		"rescqd_replayed_results_total 7",
		"rescqd_store_errors_total 0",
		"# TYPE rescqd_jobs_running gauge",
		"# TYPE rescqd_job_latency_ms summary",
		// 40ms lands in the [36.864ms, 40.96ms) bucket.
		`rescqd_job_latency_ms{quantile="0.5"} 40.96`,
		`rescqd_job_latency_ms{quantile="0.99"} 40.96`,
		`rescqd_config_latency_ms{quantile="0.5"} 0`,
		`rescqd_tenant_jobs_preempted_total{tenant="whale"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered metrics missing %q:\n%s", want, text)
		}
	}
}

// TestLatencyHistogramSubMillisecond: samples far below a millisecond keep
// their magnitude instead of recording as 0.
func TestLatencyHistogramSubMillisecond(t *testing.T) {
	var s ServiceStats
	for range 100 {
		s.ObserveConfigLatency(300 * time.Microsecond)
	}
	n, p50, p99 := s.ConfigLatency()
	if n != 100 || p50 < 300*time.Microsecond || p50 > 338*time.Microsecond || p99 != p50 {
		t.Fatalf("ConfigLatency = %d %v %v, want 100 samples with p50 = p99 in 300µs..338µs", n, p50, p99)
	}
	var h LatencyHistogram
	h.Observe(0)
	if q := h.Quantile(0.5); q != time.Microsecond {
		t.Fatalf("a 0 sample reads %v, want its bucket's upper edge 1µs", q)
	}
}

// TestLatencyBucketBounds checks the bucket layout against its contract
// over random magnitudes: every value lies below its bucket's upper edge,
// and that edge is at most 12.5% (or, below 8µs, 1µs) above it.
func TestLatencyBucketBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(us int64) {
		i := latencyBucket(us)
		if i < 0 || i >= latencyBuckets {
			t.Fatalf("latencyBucket(%d) = %d out of range", us, i)
		}
		hi := latencyUpperEdge(i)
		if hi <= us || (us >= 8 && hi-us > us/8) || (us < 8 && hi != us+1) {
			t.Fatalf("%dµs in bucket %d with upper edge %dµs", us, i, hi)
		}
		if i > 0 && latencyUpperEdge(i-1) > us {
			t.Fatalf("%dµs below bucket %d's lower edge %dµs", us, i, latencyUpperEdge(i-1))
		}
	}
	for us := int64(0); us < 4096; us++ {
		check(us)
	}
	for range 100000 {
		check(rng.Int63n(maxLatencyMicros + 1))
	}
	check(maxLatencyMicros)
	var h LatencyHistogram
	h.Observe(time.Duration(1<<63 - 1))
	if q := h.Quantile(1); q != time.Duration(maxLatencyMicros+1)*time.Microsecond {
		t.Fatalf("the longest duration reads %v, want the top bucket's upper edge", q)
	}
}

func TestPromWriterEscapesLabelValues(t *testing.T) {
	var p PromWriter
	p.Header("x_total", "counter", `help with \ and`+"\n"+`"quotes"`)
	p.Int("x_total", 3, "worker", "a\"b\\c\nd\te\x01f")
	p.Float("y", 0.25, "a", "1", "b", "2")
	p.Int("z", -1)
	want := "# HELP x_total help with \\\\ and\\n\"quotes\"\n" +
		"# TYPE x_total counter\n" +
		"x_total{worker=\"a\\\"b\\\\c\\nd\te\x01f\"} 3\n" +
		"y{a=\"1\",b=\"2\"} 0.25\n" +
		"z -1\n"
	if got := string(p.Bytes()); got != want {
		t.Fatalf("got\n%q\nwant\n%q", got, want)
	}
}
