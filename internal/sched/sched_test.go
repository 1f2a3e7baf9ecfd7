package sched

import (
	"context"
	mathrand "math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sim"
)

func cfg() sim.Config { return sim.Config{Distance: 7, PhysError: 1e-4} }

func runOn(t *testing.T, c *circuit.Circuit, s sim.Scheduler, seed int64) *sim.Result {
	t.Helper()
	g := lattice.MustBuild("star", c.NumQubits, nil)
	res, err := sim.RunDAGContext(context.Background(), g, circuit.NewDAG(c), cfg(), seed, s)
	if err != nil {
		t.Fatalf("%s on %s: %v", s.Name(), c.Name, err)
	}
	return res
}

func TestGreedySingleCNOT(t *testing.T) {
	c := circuit.New("one-cnot", 4)
	c.CNOT(0, 1)
	res := runOn(t, c, NewGreedy(), 1)
	// The static baseline routes through the single shared ancilla, whose
	// placement exposes the control's X edge: one 3-cycle edge rotation
	// plus the 2-cycle CNOT (the paper's Figure 5 "5-cycle" mode).
	if res.TotalCycles != 5 {
		t.Errorf("single CNOT took %d cycles, want 5 (rotation + surgery)", res.TotalCycles)
	}
	if res.EdgeRotations != 1 {
		t.Errorf("edge rotations = %d, want 1", res.EdgeRotations)
	}
}

func TestAutoBraidSingleCNOT(t *testing.T) {
	c := circuit.New("one-cnot", 4)
	c.CNOT(0, 1)
	res := runOn(t, c, NewAutoBraid(), 1)
	if res.TotalCycles != 5 {
		t.Errorf("single CNOT took %d cycles, want 5 (rotation + surgery)", res.TotalCycles)
	}
}

func TestSingleRzCompletes(t *testing.T) {
	c := circuit.New("one-rz", 4)
	c.Rz(0, circuit.NewAngle(5, 96))
	res := runOn(t, c, NewGreedy(), 3)
	if res.InjectionsStarted < 1 {
		t.Error("Rz should require at least one injection")
	}
	if len(res.RzLatencies) != 1 {
		t.Fatalf("RzLatencies = %v", res.RzLatencies)
	}
	// Minimum: 1 prep cycle + 1 ZZ injection cycle.
	if res.RzLatencies[0] < 2 {
		t.Errorf("Rz latency %d implausibly small", res.RzLatencies[0])
	}
}

func TestSingleHadamard(t *testing.T) {
	c := circuit.New("one-h", 4)
	c.H(0)
	res := runOn(t, c, NewGreedy(), 1)
	if res.TotalCycles != sim.HadamardCycles {
		t.Errorf("H took %d cycles, want %d", res.TotalCycles, sim.HadamardCycles)
	}
}

func TestLayerBarrier(t *testing.T) {
	// Two independent CNOTs (layer 0) then one dependent CNOT (layer 1).
	// The static scheduler must not start layer 1 before layer 0 is fully
	// done, so total >= 4 cycles.
	c := circuit.New("layers", 6)
	c.CNOT(0, 1)
	c.CNOT(2, 3)
	c.CNOT(1, 2) // depends on both
	res := runOn(t, c, NewGreedy(), 1)
	if res.TotalCycles < 4 {
		t.Errorf("layered run took %d cycles, want >= 4", res.TotalCycles)
	}
}

func TestBothBaselinesRunSmallSuite(t *testing.T) {
	for _, name := range []string{"vqe_n13", "wstate_n27", "qaoa_n15"} {
		spec, ok := qbench.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for _, mk := range []func() sim.Scheduler{NewGreedy, NewAutoBraid} {
			s := mk()
			res := runOn(t, spec.Circuit(), s, 7)
			if res.TotalCycles <= 0 {
				t.Errorf("%s on %s: nonpositive cycles", s.Name(), name)
			}
			want := spec.Circuit().Stats()
			if len(res.CNOTLatencies) != want.CNOT {
				t.Errorf("%s on %s: %d CNOT latencies, want %d", s.Name(), name, len(res.CNOTLatencies), want.CNOT)
			}
			if len(res.RzLatencies) != want.Rz {
				t.Errorf("%s on %s: %d Rz latencies, want %d (non-Clifford)", s.Name(), name, len(res.RzLatencies), want.Rz)
			}
		}
	}
}

func TestRunsOnCompressedGrid(t *testing.T) {
	spec, _ := qbench.ByName("vqe_n13")
	c := spec.Circuit()
	for _, frac := range []float64{0.5, 1.0} {
		g := lattice.MustBuild("star", c.NumQubits, nil)
		g.Compress(frac, newRand(11))
		res, err := sim.RunDAGContext(context.Background(), g, circuit.NewDAG(c), cfg(), 5, NewGreedy())
		if err != nil {
			t.Fatalf("compression %v: %v", frac, err)
		}
		if res.TotalCycles <= 0 {
			t.Errorf("compression %v: nonpositive cycles", frac)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	spec, _ := qbench.ByName("vqe_n13")
	a := runOn(t, spec.Circuit(), NewGreedy(), 9)
	b := runOn(t, spec.Circuit(), NewGreedy(), 9)
	if a.TotalCycles != b.TotalCycles {
		t.Errorf("same seed diverged: %d vs %d", a.TotalCycles, b.TotalCycles)
	}
}

func TestInjectionCountMatchesEquationOne(t *testing.T) {
	// Over many non-dyadic Rz gates the mean injections per gate is ~2.
	c := circuit.New("many-rz", 16)
	for q := 0; q < 16; q++ {
		for i := 0; i < 8; i++ {
			c.Rz(q, circuit.NewAngle(5, 96))
		}
	}
	var inj, gates int
	for seed := int64(0); seed < 5; seed++ {
		res := runOn(t, c, NewGreedy(), seed)
		inj += res.InjectionsStarted
		gates += len(res.RzLatencies)
	}
	perGate := float64(inj) / float64(gates)
	if perGate < 1.6 || perGate > 2.5 {
		t.Errorf("injections per Rz = %v, want ~2 (Equation 1)", perGate)
	}
}

// newRand is a tiny helper for tests needing a seeded source.
func newRand(seed int64) *mathrand.Rand { return mathrand.New(mathrand.NewSource(seed)) }
