package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// maxLatencyMicros is the largest microsecond count the buckets cover
// (about 285 years); longer durations count in the top bucket, whose upper
// edge, 2^53 µs, still fits a time.Duration.
const maxLatencyMicros = 1<<53 - 1

// latencyBuckets covers 0..maxLatencyMicros: eight exact buckets for
// 0-7 µs, then eight for each leading-bit position 3..52.
const latencyBuckets = 51 * 8

// LatencyHistogram is a fixed-bucket, lock-free histogram of durations at
// microsecond resolution. Buckets are log-linear: 0-7 µs get one bucket
// per microsecond, and every power of two above is split into 8 equal
// buckets, so a quantile (the upper edge of the bucket it falls in) reads
// at most 12.5% high, or 1 µs high below 8 µs. Every bucket is an atomic
// counter, so observing never allocates or locks; the zero value is ready
// to use. It is separate from Histogram, whose exact integer counts the
// paper's figures need.
type LatencyHistogram struct {
	counts [latencyBuckets]atomic.Int64
	n      atomic.Int64
}

// Observe records one duration; negative durations count as 0.
func (h *LatencyHistogram) Observe(d time.Duration) {
	h.counts[latencyBucket(min(max(d.Microseconds(), 0), maxLatencyMicros))].Add(1)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *LatencyHistogram) Count() int64 { return h.n.Load() }

// Quantile returns the upper edge of the bucket holding the q-quantile
// (0 < q <= 1) of the observations: the smallest edge at or below which
// at least q of them lie. It is never 0 once a sample exists, and 0 while
// the histogram is empty.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	// Observe bumps a bucket before n, so the buckets read below hold at
	// least n samples even while observations race this read.
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := max(int64(math.Ceil(q*float64(n))), 1)
	var acc int64
	i := 0
	for ; i < latencyBuckets-1; i++ {
		if acc += h.counts[i].Load(); acc >= target {
			break
		}
	}
	return time.Duration(latencyUpperEdge(i)) * time.Microsecond
}

// latencyBucket maps 0..maxLatencyMicros to a bucket index.
func latencyBucket(us int64) int {
	u := uint64(us)
	if u < 8 {
		return int(u)
	}
	e := bits.Len64(u) - 1 // u's leading bit; e >= 3
	return (e-2)*8 + int(u>>(e-3)&7)
}

// latencyUpperEdge returns bucket i's exclusive upper edge in microseconds.
func latencyUpperEdge(i int) int64 {
	if i < 8 {
		return int64(i) + 1
	}
	e, m := i/8+2, int64(i%8)
	return (9 + m) << (e - 3)
}
