package rescq

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/lattice"
)

// referenceCacheKey is CacheKey as it was first written, with fmt. Every
// result record in a WAL carries its key, so CacheKey must hash exactly
// these bytes for every input.
func referenceCacheKey(circuit string, o Options) string {
	c := o.Canonical()
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s\x00sched=%s d=%d p=%.17g k=%d tau=%d comp=%.17g runs=%d seed=%d",
		len(circuit), circuit, c.Scheduler, c.Distance, c.PhysError, c.K, c.TauMST,
		c.Compression, c.Runs, c.Seed)
	if c.Layout != "" {
		fmt.Fprintf(h, "\x00layout=%s params=%s", c.Layout, lattice.Params(c.LayoutParams).Canonical())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keyFloats covers every spelling %.17g can take: signed zero, the
// subnormal range, extreme exponents, values that need all 17 digits,
// integers, and the non-finite values Validate rejects but CacheKey
// still hashes.
var keyFloats = []float64{
	0, math.Copysign(0, -1), 1e-4, 2e-4, 5e-4, 1e-3, 0.5, 1, 0.1, 1.0 / 3,
	0.30000000000000004, 0.12345678901234567, 123456789012345678,
	1e-300, -1e-300, 1e300, 5e-324, math.SmallestNonzeroFloat64 * 3,
	2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64, 1e21, 1e20,
	1e-5, 1e-7, 100000, 1e16, 1e17, -2.5,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

func TestCacheKeyMatchesReference(t *testing.T) {
	circuits := []string{"bench:gcm_n13", "", "text:c\x00H 0\nCX 0 1\n", "bench:ünïcode"}
	layouts := []struct {
		name   string
		params map[string]string
	}{
		{"", nil},
		{"star", nil},
		{"linear", nil},
		{"compact", map[string]string{"fraction": "0.5"}},
		{"compact", map[string]string{"fraction": "0.25", "seed": "3"}},
		{"", map[string]string{"fraction": "0.5"}},
		{"custom", map[string]string{"weird \"key\"": "a=b,c", "": ""}},
	}
	schedulers := []SchedulerKind{"", Greedy, AutoBraid, RESCQ, "unregistered"}
	ints := []int{0, -1, 1, 7, 25, math.MaxInt32, math.MinInt64}
	n := 0
	check := func(circuit string, o Options) {
		t.Helper()
		n++
		if got, want := CacheKey(circuit, o), referenceCacheKey(circuit, o); got != want {
			t.Fatalf("CacheKey(%q, %+v) = %s, reference %s", circuit, o, got, want)
		}
	}
	for _, c := range circuits {
		for _, l := range layouts {
			for _, s := range schedulers {
				check(c, Options{Scheduler: s, Layout: l.name, LayoutParams: l.params})
			}
		}
	}
	for _, f := range keyFloats {
		check("bench:vqe_n13", Options{PhysError: f})
		check("bench:vqe_n13", Options{Compression: f})
		check("bench:vqe_n13", Options{Layout: "compact", LayoutParams: map[string]string{"fraction": "1"}, PhysError: f, Compression: f})
	}
	for _, v := range ints {
		check("bench:qft_n18", Options{Distance: v, K: v, TauMST: v, Runs: v, Seed: int64(v)})
		check("bench:qft_n18", Options{Scheduler: Greedy, Distance: v, K: v, TauMST: v, Runs: v, Seed: int64(v)})
	}
	check("bench:qft_n18", Options{Seed: math.MaxInt64})
	t.Logf("%d inputs match the reference", n)
}

func FuzzCacheKey(f *testing.F) {
	for i, x := range keyFloats {
		f.Add("bench:gcm_n13", "rescq", "", "", "", 7, x, 25, 100, keyFloats[len(keyFloats)-1-i], 3, int64(i))
	}
	f.Add("text:c\x00H 0", "greedy", "compact", "fraction", "0.5", 5, 1e-3, 0, 0, 0.0, 1, int64(-1))
	f.Add("", "", "star", "", "", 0, 0.0, -3, -1, -0.0, 0, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, circuit, sched, layout, pk, pv string, d int, p float64, k, tau int, comp float64, runs int, seed int64) {
		o := Options{
			Scheduler: SchedulerKind(sched), Layout: layout,
			Distance: d, PhysError: p, K: k, TauMST: tau, Compression: comp, Runs: runs, Seed: seed,
		}
		if pk != "" || pv != "" {
			o.LayoutParams = map[string]string{pk: pv}
		}
		if got, want := CacheKey(circuit, o), referenceCacheKey(circuit, o); got != want {
			t.Fatalf("CacheKey(%q, %+v) = %s, reference %s", circuit, o, got, want)
		}
	})
}

func BenchmarkCacheKey(b *testing.B) {
	o := Options{Scheduler: RESCQ, Distance: 9, PhysError: 5e-4, Runs: 3, Seed: 12345}
	b.ReportAllocs()
	for b.Loop() {
		CacheKey("bench:hamsim_n25", o)
	}
}
