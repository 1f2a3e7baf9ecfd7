package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/qbench"
	"repro/internal/rus"
)

// Table1Result reproduces Table 1: the two injection strategies.
type Table1Result struct {
	ZZ, CNOT rus.InjectionSpec
	Text     string
}

// Table1 regenerates the injection-strategy comparison.
func Table1() Table1Result {
	zz, cn := rus.SpecFor(rus.InjectZZ), rus.SpecFor(rus.InjectCNOT)
	t := metrics.NewTable("Parameter", "CNOT", "ZZ")
	t.Row("Exposed edge", string(cn.ExposedEdge), string(zz.ExposedEdge))
	t.Row("Number of ancillas required", cn.Ancillas, zz.Ancillas)
	t.Row("Lattice surgery cycles needed for injection", cn.Cycles, zz.Cycles)
	return Table1Result{ZZ: zz, CNOT: cn, Text: "Table 1: injection strategies\n" + t.String()}
}

// Table3Row is one benchmark row: paper counts vs generated counts.
type Table3Row struct {
	Name, Suite          string
	Qubits               int
	PaperRz, PaperCNOT   int
	OurRz, OurCNOT       int
	NonCliffordRz, Depth int
}

// Table3Result reproduces Table 3, the benchmark suite.
type Table3Result struct {
	Rows []Table3Row
	Text string
}

// Table3 regenerates the benchmark table from the generators, comparing
// against the paper's reported counts.
func Table3() Table3Result {
	t := metrics.NewTable("Suite", "Benchmark", "#Qubits", "#Rz(paper)", "#Rz(ours)", "#CNOT(paper)", "#CNOT(ours)", "non-Clifford Rz", "depth")
	var rows []Table3Row
	for _, spec := range qbench.All() {
		st := spec.Circuit().Stats()
		row := Table3Row{
			Name: spec.Name, Suite: spec.Suite, Qubits: spec.Qubits,
			PaperRz: spec.PaperRz, PaperCNOT: spec.PaperCNOT,
			OurRz: st.RzTotal, OurCNOT: st.CNOT,
			NonCliffordRz: st.Rz, Depth: st.Depth,
		}
		rows = append(rows, row)
		t.Row(row.Suite, row.Name, row.Qubits, row.PaperRz, row.OurRz, row.PaperCNOT, row.OurCNOT, row.NonCliffordRz, row.Depth)
	}
	return Table3Result{Rows: rows, Text: "Table 3: benchmark suite\n" + t.String()}
}

// AppendixA2Result reproduces Appendix A.2: continuous-angle vs Clifford+T
// cost for one Rz(theta).
type AppendixA2Result struct {
	ContinuousCycles   float64
	TCyclesLo, TCycHi  int
	OverheadLo, OverHi float64
	Text               string
}

// AppendixA2 regenerates the injection-cost comparison.
func AppendixA2() AppendixA2Result {
	m := rus.DefaultTModel()
	cont := rus.ContinuousRzCycles(2.2, 2)
	lo, hi := m.RzCyclesRange()
	olo, ohi := m.OverheadRange(cont)
	var sb strings.Builder
	sb.WriteString("Appendix A.2: |m_theta> injection vs T injection\n")
	t := metrics.NewTable("Quantity", "Value")
	t.Row("Continuous-angle Rz cycles (2 steps x (2.2 prep + 2 inject))", fmt.Sprintf("%.1f", cont))
	t.Row("T gates per synthesized Rz", m.TPerRz)
	t.Row("Clifford+T Rz cycles (best case)", lo)
	t.Row("Clifford+T Rz cycles (worst case)", hi)
	t.Row("Clifford+T overhead (low)", fmt.Sprintf("%.0fx", olo))
	t.Row("Clifford+T overhead (high)", fmt.Sprintf("%.0fx", ohi))
	sb.WriteString(t.String())
	return AppendixA2Result{
		ContinuousCycles: cont, TCyclesLo: lo, TCycHi: hi,
		OverheadLo: olo, OverHi: ohi, Text: sb.String(),
	}
}

// MSTTimingResult reproduces the section 5.4.1 timing claims on the host
// machine: full Kruskal and incremental updates on 100x100 and 1000x1000
// grids. Quick mode times only the 100x100 grid and leaves the 1000x1000
// fields zero.
type MSTTimingResult struct {
	Kruskal100, Kruskal1000    time.Duration
	Update100x200, Upd1000x200 time.Duration // 200 incremental updates (k=200)
	Text                       string
}

// MSTTiming measures the classical MST costs of section 5.4.1. Only
// o.Quick is read: it skips the 1000x1000 grid, which takes seconds.
func MSTTiming(o Options) MSTTimingResult {
	measure := func(n int) (time.Duration, time.Duration) {
		g := graph.GridGraph(n, n, 0)
		for e := 0; e < g.NumEdges(); e++ {
			g.SetWeight(e, float64((e*2654435761)%1000)/1000)
		}
		t0 := time.Now()
		tr := graph.Kruskal(g)
		full := time.Since(t0)
		t1 := time.Now()
		for i := 0; i < 200; i++ { // k = 200 edge updates per recomputation
			e := (i * 7919) % g.NumEdges()
			tr.UpdateWeight(e, float64((i*104729)%1000)/1000)
		}
		inc := time.Since(t1)
		return full, inc
	}
	var r MSTTimingResult
	t := metrics.NewTable("Grid", "Full Kruskal", "200 incremental updates (k=200)")
	r.Kruskal100, r.Update100x200 = measure(100)
	t.Row("100x100", r.Kruskal100.String(), r.Update100x200.String())
	if !o.Quick {
		r.Kruskal1000, r.Upd1000x200 = measure(1000)
		t.Row("1000x1000", r.Kruskal1000.String(), r.Upd1000x200.String())
	}
	r.Text = "Section 5.4.1: MST computation cost on this host\n" + t.String() +
		"(paper reports ~92us for 100x100 and ~330us for 1000x1000 incremental updates at k=200)\n"
	return r
}
