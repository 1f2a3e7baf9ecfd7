package experiments

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/sched"
	"repro/internal/sim"
)

// randomProgram builds a random but valid Clifford+Rz program.
func randomProgram(r *rand.Rand) *circuit.Circuit {
	n := 4 + r.Intn(10)
	c := circuit.New("fuzz", n)
	gates := 10 + r.Intn(60)
	for i := 0; i < gates; i++ {
		switch r.Intn(5) {
		case 0, 1:
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				b = (a + 1) % n
			}
			c.CNOT(a, b)
		case 2:
			// Mix dyadic and non-dyadic angles.
			if r.Intn(2) == 0 {
				c.Rz(r.Intn(n), circuit.NewAngle(int64(1+2*r.Intn(8)), 1<<uint(2+r.Intn(5))))
			} else {
				c.Rz(r.Intn(n), circuit.NewAngle(int64(1+2*r.Intn(20)), 96))
			}
		case 3:
			c.H(r.Intn(n))
		case 4:
			c.T(r.Intn(n))
		}
	}
	return c
}

// TestAllSchedulersCompleteRandomPrograms is the system-level fuzz test:
// random programs, random compression, all three schedulers — every run
// must complete every gate with no deadlock and no validation failure.
func TestAllSchedulersCompleteRandomPrograms(t *testing.T) {
	mk := map[string]func() sim.Scheduler{
		"greedy":    func() sim.Scheduler { return sched.NewGreedy() },
		"autobraid": func() sim.Scheduler { return sched.NewAutoBraid() },
		"rescq":     func() sim.Scheduler { return core.New(core.DefaultConfig()) },
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomProgram(r)
		comp := float64(r.Intn(3)) / 2 // 0, 0.5, 1.0
		want := circuit.NewDAG(c).Len()
		for name, make := range mk {
			g := lattice.MustBuild("star", c.NumQubits, nil)
			g.Compress(comp, rand.New(rand.NewSource(seed+1)))
			res, err := sim.RunDAGContext(context.Background(), g, circuit.NewDAG(c), sim.Config{Distance: 7, PhysError: 1e-4}, seed, make())
			if err != nil {
				t.Logf("seed %d %s (compression %v): %v", seed, name, comp, err)
				return false
			}
			if got := len(res.CNOTLatencies) + len(res.RzLatencies); got > want {
				t.Logf("seed %d %s: more latencies than gates", seed, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSchedulersAgreeOnDeterministicCircuits checks that a pure-Clifford +
// CNOT circuit (no stochastic Rz) takes identical time across seeds for
// each scheduler: the only randomness in the engine comes from RUS.
func TestSchedulersAgreeOnDeterministicCircuits(t *testing.T) {
	c := circuit.New("det", 9)
	for i := 0; i < 8; i++ {
		c.CNOT(i, i+1)
	}
	for i := 0; i < 9; i++ {
		c.H(i)
	}
	for _, mk := range []func() sim.Scheduler{
		func() sim.Scheduler { return sched.NewGreedy() },
		func() sim.Scheduler { return sched.NewAutoBraid() },
		func() sim.Scheduler { return core.New(core.DefaultConfig()) },
	} {
		var first int
		for seed := int64(1); seed <= 4; seed++ {
			g := lattice.MustBuild("star", c.NumQubits, nil)
			res, err := sim.RunDAGContext(context.Background(), g, circuit.NewDAG(c), sim.Config{Distance: 7, PhysError: 1e-4}, seed, mk())
			if err != nil {
				t.Fatal(err)
			}
			if seed == 1 {
				first = res.TotalCycles
			} else if res.TotalCycles != first {
				t.Errorf("%s: deterministic circuit varied across seeds: %d vs %d",
					mk().Name(), res.TotalCycles, first)
				break
			}
		}
	}
}

// TestAblationShowsEachMechanismMatters runs the ablation in quick mode
// and checks the full configuration is never slower than the worst ablated
// variant (each mechanism should help or at least not hurt on the
// representative set).
func TestAblationShowsEachMechanismMatters(t *testing.T) {
	r, err := Ablation(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for bench, byVariant := range r.Cycles {
		full := byVariant["full"]
		worst := full
		for _, v := range byVariant {
			if v > worst {
				worst = v
			}
		}
		if full > 1.15*worst {
			t.Errorf("%s: full RESCQ (%v) slower than every ablation (worst %v)", bench, full, worst)
		}
		// The single-prep, no-eager variant bundle should cost something
		// on an Rz-heavy benchmark.
		if bench == "gcm_n13" && byVariant["no-parallel-prep"] < full*0.95 {
			t.Errorf("%s: disabling parallel prep made RESCQ faster (%v < %v)?",
				bench, byVariant["no-parallel-prep"], full)
		}
	}
}
