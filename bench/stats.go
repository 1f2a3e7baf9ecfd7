package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first. It stops at p99 so that a faster run, which collects
// more samples, is never judged at a higher percentile than a slower one.
var tailLadder = []float64{99, 95, 90, 50}

// tailPercentile picks the highest percentile on the ladder that has at
// least ten of n samples beyond it, so a tail figure is never read off one
// or two outliers. With fewer than 20 samples only the median qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// pct returns the nearest-rank p-th percentile (0 for an empty sample).
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(d))/100)) - 1
	return d[min(max(i, 0), len(d)-1)]
}

func (d dist) median() float64 { return d.pct(50) }

// tail returns the percentile tailPercentile picks for this sample size
// and its value.
func (d dist) tail() (p, v float64) {
	p = tailPercentile(len(d))
	return p, d.pct(p)
}

// quartiles returns the three quartiles by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), which is how
// the benchmark's run-to-run spread is judged; q2 is the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := newDist(xs)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a metric's regression bound must exceed.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// suggestBound is the regression bound a spread calls for: three times
// it, rounded up to a multiple of 0.05 (with slack for float error, so
// 3×0.05 stays 0.15), at least 0.05 and at most 0.25, the largest a
// benchmark may set.
func suggestBound(spread float64) float64 {
	b := math.Ceil(3*spread*20-1e-9) / 20
	return math.Min(0.25, math.Max(0.05, b))
}

// digest fingerprints the simulated statistics of a fixed set of results,
// so two runs with the same seed can be checked to have computed the same
// thing without comparing every byte.
type digest struct {
	h hash.Hash
	n int
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(summary []byte) {
	d.h.Write(summary)
	d.h.Write([]byte{'\n'})
	d.n++
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
