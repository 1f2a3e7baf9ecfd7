package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sim"
)

// mstAuditor wraps the RESCQ scheduler and, on sampled cycles of a real
// simulation, cross-checks the pipeline's incrementally maintained working
// tree against a from-scratch Kruskal over the same live weights: the two
// must agree on total weight and on minimax path bottlenecks. This is the
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
	if iw, fw := m.work.TotalWeight(), full.TotalWeight(); math.Abs(iw-fw) > 1e-9 {
		a.t.Errorf("cycle %d: incremental MST weight %v != full Kruskal %v", st.Cycle(), iw, fw)
	}
	n := m.g.NumVertices()
	for i := 0; i < 8; i++ {
		u := int(splitmixUnit(uint64(st.Cycle()*8+i)) * float64(n))
		v := int(splitmixUnit(uint64(st.Cycle()*8+i+1)) * float64(n))
		if u >= n || v >= n {
			continue
		}
		bi, oki := m.work.Bottleneck(u, v)
		bf, okf := full.Bottleneck(u, v)
		if oki != okf {
			a.t.Fatalf("cycle %d: connectivity(%d,%d) differs", st.Cycle(), u, v)
		}
		if oki && math.Abs(bi-bf) > 1e-12 {
			a.t.Errorf("cycle %d: bottleneck(%d,%d) %v != %v", st.Cycle(), u, v, bi, bf)
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
	if _, err := sim.RunSeeded(g, circ, cfg(), 5, aud); err != nil {
		t.Fatalf("run: %v", err)
	}
	if aud.checks == 0 {
		t.Fatal("auditor never sampled a cycle")
	}
}
