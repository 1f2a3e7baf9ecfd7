package core

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

func runOn(t *testing.T, c *circuit.Circuit, seed int64) *sim.Result {
	t.Helper()
	g := lattice.NewSTARGrid(c.NumQubits)
	res, err := sim.RunDAGContext(context.Background(), g, circuit.NewDAG(c), cfg(), seed, New(DefaultConfig()))
	if err != nil {
		t.Fatalf("rescq on %s: %v", c.Name, err)
	}
	return res
}

func TestSingleCNOT(t *testing.T) {
	c := circuit.New("one-cnot", 4)
	c.CNOT(0, 1)
	res := runOn(t, c, 1)
	if res.TotalCycles != 2 {
		t.Errorf("single CNOT took %d cycles, want 2", res.TotalCycles)
	}
}

func TestSingleRz(t *testing.T) {
	c := circuit.New("one-rz", 4)
	c.Rz(0, circuit.NewAngle(5, 96))
	res := runOn(t, c, 3)
	if len(res.RzLatencies) != 1 {
		t.Fatalf("RzLatencies = %v", res.RzLatencies)
	}
	if res.PrepsStarted < 1 {
		t.Error("expected at least one preparation")
	}
}

func TestParallelPreparationUsesMultipleAncillas(t *testing.T) {
	// A single Rz on an interior qubit has several candidates; RESCQ
	// should start preparations on more than one of them in cycle 1.
	c := circuit.New("one-rz", 9)
	c.Rz(4, circuit.NewAngle(5, 96)) // interior qubit of a 3x3 block grid
	var maxSimultaneous int
	for seed := int64(0); seed < 10; seed++ {
		res := runOn(t, c, seed)
		if res.PrepsStarted > maxSimultaneous {
			maxSimultaneous = res.PrepsStarted
		}
	}
	if maxSimultaneous < 2 {
		t.Errorf("parallel preparation never used more than %d ancillas", maxSimultaneous)
	}
}

func TestChainCompletes(t *testing.T) {
	c := circuit.New("chain", 6)
	c.H(0)
	c.CNOT(0, 1)
	c.Rz(1, circuit.NewAngle(5, 96))
	c.CNOT(1, 2)
	c.CNOT(2, 5)
	c.Rz(5, circuit.NewAngle(7, 96))
	res := runOn(t, c, 11)
	if res.TotalCycles <= 0 {
		t.Fatal("nonpositive cycles")
	}
	if len(res.CNOTLatencies) != 3 || len(res.RzLatencies) != 2 {
		t.Errorf("latency counts CNOT=%d Rz=%d", len(res.CNOTLatencies), len(res.RzLatencies))
	}
}

func TestRunsSmallSuite(t *testing.T) {
	for _, name := range []string{"vqe_n13", "qaoa_n15", "wstate_n27", "qft_n18"} {
		spec, ok := qbench.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		circ := spec.Circuit()
		res := runOn(t, circ, 7)
		want := circ.Stats()
		if len(res.CNOTLatencies) != want.CNOT {
			t.Errorf("%s: %d CNOT latencies, want %d", name, len(res.CNOTLatencies), want.CNOT)
		}
		if len(res.RzLatencies) != want.Rz {
			t.Errorf("%s: %d Rz latencies, want %d", name, len(res.RzLatencies), want.Rz)
		}
	}
}

func TestDifferentKValues(t *testing.T) {
	spec, _ := qbench.ByName("vqe_n13")
	for _, k := range []int{25, 50, 100, 200} {
		g := lattice.NewSTARGrid(spec.Qubits)
		res, err := sim.RunDAGContext(context.Background(), g, circuit.NewDAG(spec.Circuit()), cfg(), 3, New(Config{K: k}))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.TotalCycles <= 0 {
			t.Errorf("k=%d: nonpositive cycles", k)
		}
	}
}

func TestCompressedGridStillCompletes(t *testing.T) {
	spec, _ := qbench.ByName("vqe_n13")
	c := spec.Circuit()
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		g := lattice.NewSTARGrid(c.NumQubits)
		g.Compress(frac, mathrand.New(mathrand.NewSource(13)))
		res, err := sim.RunDAGContext(context.Background(), g, circuit.NewDAG(c), cfg(), 5, New(DefaultConfig()))
		if err != nil {
			t.Fatalf("compression %v: %v", frac, err)
		}
		if res.TotalCycles <= 0 {
			t.Errorf("compression %v: nonpositive cycles", frac)
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	spec, _ := qbench.ByName("qaoa_n15")
	a := runOn(t, spec.Circuit(), 21)
	b := runOn(t, spec.Circuit(), 21)
	if a.TotalCycles != b.TotalCycles || a.PrepsStarted != b.PrepsStarted {
		t.Errorf("same seed diverged: %d/%d vs %d/%d",
			a.TotalCycles, a.PrepsStarted, b.TotalCycles, b.PrepsStarted)
	}
}

func TestQueueSet(t *testing.T) {
	var qs queueSet
	qs.reset(3)
	qs.enqueue(0, 10)
	qs.enqueue(0, 11)
	qs.enqueue(1, 11)
	if qs.head(0) != 10 || qs.head(1) != 11 || qs.head(2) != -1 {
		t.Errorf("heads = %d,%d,%d", qs.head(0), qs.head(1), qs.head(2))
	}
	if !qs.contains(0, 11) || qs.contains(2, 11) {
		t.Error("contains wrong")
	}
	if qs.lenAt(0) != 2 {
		t.Errorf("lenAt(0) = %d", qs.lenAt(0))
	}
	qs.remove(0, 10)
	if qs.head(0) != 11 {
		t.Errorf("head after remove = %d", qs.head(0))
	}
	qs.remove(0, 99) // absent: no-op
	if qs.lenAt(0) != 1 {
		t.Errorf("lenAt after bogus remove = %d", qs.lenAt(0))
	}
}

func TestMSTPipelineStaleness(t *testing.T) {
	// With K=5 and TauMST=7, the tree published at cycle 8 is the one
	// snapshotted at cycle 1.
	spec, _ := qbench.ByName("vqe_n13")
	g := lattice.NewSTARGrid(spec.Qubits)
	dag := circuit.NewDAG(spec.Circuit())
	eng := sim.NewEngine(g, dag, cfg(), 1, New(Config{K: 5, TauMST: 7}))
	// Run briefly by driving cycles through the engine's Run with a cap.
	// Simpler: full run must still succeed with aggressive staleness.
	if _, err := eng.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEagerCorrectionPreparation(t *testing.T) {
	// With a non-dyadic angle, every injection failure needs |m_2a>.
	// Eager preparation means the preparation count exceeds the
	// injection count only modestly; without eager prep, failures would
	// serialize. We assert the run completes with at least as many preps
	// as injections (multiple candidates prepare in parallel).
	c := circuit.New("rz-fails", 9)
	c.Rz(4, circuit.NewAngle(5, 96))
	res := runOn(t, c, 2)
	if res.PrepsStarted < res.InjectionsStarted {
		t.Errorf("preps %d < injections %d: parallel prep not happening",
			res.PrepsStarted, res.InjectionsStarted)
	}
}
