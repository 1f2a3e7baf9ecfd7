package core_test

// baseline_test.go compares RESCQ against the greedy baseline. It is an
// external test package because internal/sched imports internal/core.

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestBeatsBaselineOnRzHeavyCircuit(t *testing.T) {
	// The headline claim, in miniature: on an Rz-dense benchmark RESCQ
	// should beat the static greedy baseline.
	cfg := sim.Config{Distance: 7, PhysError: 1e-4}
	spec, _ := qbench.ByName("vqe_n13")
	var rescqSum, greedySum float64
	for seed := int64(0); seed < 3; seed++ {
		g1 := lattice.NewSTARGrid(spec.Qubits)
		r1, err := sim.RunDAGContext(context.Background(), g1, circuit.NewDAG(spec.Circuit()), cfg, seed, core.New(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		g2 := lattice.NewSTARGrid(spec.Qubits)
		r2, err := sim.RunDAGContext(context.Background(), g2, circuit.NewDAG(spec.Circuit()), cfg, seed, sched.NewGreedy())
		if err != nil {
			t.Fatal(err)
		}
		rescqSum += float64(r1.TotalCycles)
		greedySum += float64(r2.TotalCycles)
	}
	if rescqSum >= greedySum {
		t.Errorf("RESCQ (%v total cycles) did not beat greedy (%v)", rescqSum, greedySum)
	}
}
