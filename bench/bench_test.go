package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestWorkloadsTiny runs all four workloads end to end at a tiny scale
// with the traced replay, and checks that each reports every metric
// BENCHMARK.json names, with its unit, and passes its output checks.
func TestWorkloadsTiny(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e, err := newEnv("")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	digests := map[string]string{}
	for _, w := range workloadNames {
		rep, err := runWorkload(e, tiny, w, 7, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			printHuman(os.Stderr, rep)
			t.Fatalf("%s: correct=%t failed=%d attempted=%d", w, rep.Correct, rep.Failed, rep.Attempted)
		}
		units := map[string]string{}
		for _, m := range append(rep.E2E, rep.Layers...) {
			units[m.Name] = m.Unit
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if got, ok := units[m.Name]; !ok || got != m.Unit {
				t.Errorf("%s: metric %s reported with unit %q (present %t), BENCHMARK.json says %q", w, m.Name, got, ok, m.Unit)
			}
		}
		if len(units) != len(spec.EndToEnd)+len(spec.PerLayer) {
			t.Errorf("%s: reports %d metrics, BENCHMARK.json names %d", w, len(units), len(spec.EndToEnd)+len(spec.PerLayer))
		}
		digests[w] = rep.Digest
	}
	if digests["cold-sweep"] != digests["cluster-sweep"] {
		t.Errorf("cluster-sweep digest %s differs from cold-sweep %s", digests["cluster-sweep"], digests["cold-sweep"])
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("tiny workloads took %s, want <= 20s", d)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {400, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {20, 50}, {3, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 1000 samples 1..1000: p99 is the 990th value, with 10 beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if p, v := newDist(xs).tail(); p != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = p%v %v, want p99 990", p, v)
	}
	if p, v := newDist(xs[:400]).tail(); p != 95 || v != 980 {
		t.Errorf("tail of 601..1000 = p%v %v, want p95 980", p, v)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.95, 1.02, 1.07, 0.99, 1.01, 1.2}, 0.98, 1.015, 1.125},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v, want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{0.9, 1.1, 1.0, 1.3, 0.95, 1.02, 1.07, 0.99, 1.01, 1.2}); math.Abs(s-0.145/1.015) > 1e-9 {
		t.Errorf("spread = %v, want %v", s, 0.145/1.015)
	}
	for _, c := range []struct{ spread, want float64 }{
		{0, 0.05}, {0.01, 0.05}, {0.02, 0.1}, {0.05, 0.15}, {0.051, 0.2}, {0.0667, 0.25}, {0.3, 0.25},
	} {
		if got := suggestBound(c.spread); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("suggestBound(%v) = %v, want %v", c.spread, got, c.want)
		}
	}
}

// TestOpenLoopDueTime checks the open loop's accounting: when a slow
// reply holds the only connection, the generator still issues every
// request on time, later requests wait for the connection, and their
// latency counts from when they were due, not from when they were sent.
func TestOpenLoopDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	slowFirst := func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	}
	// 100 requests/s: request i is due 10ms*i after the start.
	tm := openLoop(time.Now(), 100, 4, 1, slowFirst)
	for i := range tm {
		if late := tm[i].late(); late > 5*time.Millisecond {
			t.Errorf("request %d issued %s late behind a busy connection", i, late)
		}
	}
	for i := 1; i < 4; i++ {
		wantWait := stall - time.Duration(i)*10*time.Millisecond
		if wait := tm[i].wait(); wait < wantWait-5*time.Millisecond {
			t.Errorf("request %d waited %s for the connection, want about %s", i, wait, wantWait)
		}
		if tm[i].latency() < tm[i].wait()+tm[i].done.Sub(tm[i].sent) {
			t.Errorf("request %d latency %s excludes its wait %s for the connection", i, tm[i].latency(), tm[i].wait())
		}
	}
	// With a connection per request nothing waits, and only the stalled
	// request is slow.
	tm = openLoop(time.Now(), 100, 4, 4, slowFirst)
	for i := range tm {
		if wait := tm[i].wait(); wait > 5*time.Millisecond {
			t.Errorf("request %d waited %s with free connections", i, wait)
		}
	}
	if tm[0].latency() < stall || tm[1].latency() > stall/2 {
		t.Errorf("latencies %s and %s, want the first >= %s and the second small", tm[0].latency(), tm[1].latency(), stall)
	}
}
