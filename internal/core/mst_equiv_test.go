package core

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sim"
)

// mstAuditor wraps the RESCQ scheduler and, on sampled cycles of a real
// simulation, cross-checks the pipeline's incrementally maintained working
// tree against a from-scratch Kruskal over the same live weights: the two
// must hold the same edge set. This is the
// in-situ half of the incremental-MST equivalence guarantee (the graph
// package holds the randomized-sequence half).
type mstAuditor struct {
	*Scheduler
	t      *testing.T
	checks int
}

func (a *mstAuditor) OnCycle(st *sim.State) {
	a.Scheduler.OnCycle(st)
	m := &a.Scheduler.mst
	if st.Cycle()%13 != 0 {
		return
	}
	full := graph.Kruskal(m.g)
	for id := 0; id < m.g.NumEdges(); id++ {
		if in, want := m.work.Contains(id), full.Contains(id); in != want {
			a.t.Fatalf("cycle %d: edge %d in incremental MST = %v, in full Kruskal = %v", st.Cycle(), id, in, want)
		}
	}
	a.checks++
}

func TestPipelinePublishesKruskalEquivalentTrees(t *testing.T) {
	spec, ok := qbench.ByName("gcm_n13")
	if !ok {
		t.Fatal("missing benchmark gcm_n13")
	}
	circ := spec.Circuit()
	g := lattice.NewSTARGrid(circ.NumQubits)
	aud := &mstAuditor{Scheduler: New(DefaultConfig()).(*Scheduler), t: t}
	if _, err := sim.RunDAGContext(context.Background(), g, circuit.NewDAG(circ), cfg(), 5, aud); err != nil {
		t.Fatalf("run: %v", err)
	}
	if aud.checks == 0 {
		t.Fatal("auditor never sampled a cycle")
	}
}
