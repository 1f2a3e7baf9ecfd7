package rescq

// bench_test.go is the benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation. Each benchmark regenerates its
// artifact through the experiment drivers and reports the headline metric
// via b.ReportMetric so `go test -bench=. -benchmem` prints the rows the
// paper reports.
//
// By default the simulation-backed experiments run in quick mode (small
// benchmarks, fewer seeds) so the whole harness completes in a couple of
// minutes; set REPRO_FULL=1 to run the paper's full sweeps (about an hour).
// `go run ./cmd/rescq-bench -all` prints the full rendered reports.

import (
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
)

func benchOpts() experiments.Options {
	if os.Getenv("REPRO_FULL") == "1" {
		return experiments.Options{}
	}
	return experiments.Options{Quick: true, Runs: 1}
}

// BenchmarkTable1InjectionStrategies regenerates Table 1.
func BenchmarkTable1InjectionStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if r.ZZ.Cycles != 1 || r.CNOT.Cycles != 2 {
			b.Fatal("Table 1 wrong")
		}
	}
}

// BenchmarkTable3BenchmarkSuite regenerates Table 3 (all 23 circuits).
func BenchmarkTable3BenchmarkSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table3()
		if len(r.Rows) != 23 {
			b.Fatal("Table 3 wrong")
		}
	}
}

// BenchmarkFigure3FidelityModel regenerates Figure 3's capacity curves.
func BenchmarkFigure3FidelityModel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(100)
		ratio = r.Ratio[1e-7]
	}
	b.ReportMetric(ratio, "RzOverT_capacity")
}

// BenchmarkFigure5LatencyHistograms regenerates the per-gate latency
// histograms for AutoBraid and RESCQ.
func BenchmarkFigure5LatencyHistograms(b *testing.B) {
	var frac2 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		frac2 = r.CNOT["rescq"].Fraction(2)
	}
	b.ReportMetric(100*frac2, "rescq_cnot_2cycle_%")
}

// BenchmarkFigure10NormalizedExecution regenerates the headline comparison
// and reports the geomean RESCQ* speedup over the greedy baseline.
func BenchmarkFigure10NormalizedExecution(b *testing.B) {
	var geomean float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		geomean = r.GeomeanVsGreedy
	}
	b.ReportMetric(geomean, "geomean_speedup")
}

// BenchmarkFigure11DistanceSensitivity regenerates the code-distance sweep.
func BenchmarkFigure11DistanceSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12ErrorRateSensitivity regenerates the error-rate sweep.
func BenchmarkFigure12ErrorRateSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13MSTFrequency regenerates RESCQ's k-sensitivity study.
func BenchmarkFigure13MSTFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure14Compression regenerates the grid-compression study and
// reports RESCQ's advantage at full compression.
func BenchmarkFigure14Compression(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure14(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, bySched := range r.Cycles {
			n := len(r.Compressions)
			gain = bySched["greedy"][n-1] / bySched["rescq"][n-1]
		}
	}
	b.ReportMetric(gain, "rescq_gain_at_100%")
}

// BenchmarkFigure15GridRendering regenerates the compression grid examples.
func BenchmarkFigure15GridRendering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Figure15(); len(s) == 0 {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkFigure16PrepModel regenerates the preparation-model curves.
func BenchmarkFigure16PrepModel(b *testing.B) {
	var cyclesD7 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure16()
		cyclesD7 = r.Cycles[1e-4][2] // d = 7
	}
	b.ReportMetric(cyclesD7, "prep_cycles_d7_p1e-4")
}

// BenchmarkAppendixA2TInjection regenerates the Clifford+T comparison.
func BenchmarkAppendixA2TInjection(b *testing.B) {
	var hi float64
	for i := 0; i < b.N; i++ {
		r := experiments.AppendixA2()
		hi = r.OverHi
	}
	b.ReportMetric(hi, "tinjection_overhead_x")
}

// BenchmarkAblationStudy regenerates the design-choice ablation: RESCQ
// with each mechanism (parallel prep, eager prep, MST routing) disabled in
// isolation.
func BenchmarkAblationStudy(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, byVariant := range r.Cycles {
			overhead = byVariant["no-parallel-prep"] / byVariant["full"]
		}
	}
	b.ReportMetric(overhead, "no_parallel_prep_slowdown")
}

// BenchmarkMSTCompute measures the full Kruskal MST on a 100x100 grid
// (section 5.4.1; the paper's figure for this size is ~92us with k=200
// incremental updates on an M2).
func BenchmarkMSTCompute(b *testing.B) {
	g := graph.GridGraph(100, 100, 0)
	for e := 0; e < g.NumEdges(); e++ {
		g.SetWeight(e, float64((e*2654435761)%1000)/1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Kruskal(g)
	}
}

// BenchmarkMSTIncrementalUpdate measures one incremental edge update on a
// maintained 100x100 MST (the O(k*sqrt(n)) path of section 5.4.1).
func BenchmarkMSTIncrementalUpdate(b *testing.B) {
	g := graph.GridGraph(100, 100, 0)
	for e := 0; e < g.NumEdges(); e++ {
		g.SetWeight(e, float64((e*2654435761)%1000)/1000)
	}
	tr := graph.Kruskal(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.UpdateWeight((i*7919)%g.NumEdges(), float64((i*104729)%1000)/1000)
	}
}

// BenchmarkMSTIncrementalUpdate1000 is the 1000x1000 point of the same
// analysis (~330us per k=200 batch in the paper).
func BenchmarkMSTIncrementalUpdate1000(b *testing.B) {
	g := graph.GridGraph(1000, 1000, 0)
	for e := 0; e < g.NumEdges(); e++ {
		g.SetWeight(e, float64((e*2654435761)%1000)/1000)
	}
	tr := graph.Kruskal(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.UpdateWeight((i*7919)%g.NumEdges(), float64((i*104729)%1000)/1000)
	}
}

// BenchmarkSimulatorRESCQ measures raw simulator throughput: one full
// RESCQ run of gcm_n13 at the paper's operating point.
func BenchmarkSimulatorRESCQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run("gcm_n13", Options{Scheduler: RESCQ, Runs: 1, Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorGreedy is the baseline counterpart.
func BenchmarkSimulatorGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run("gcm_n13", Options{Scheduler: Greedy, Runs: 1, Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorAutoBraid is the AutoBraid baseline's counterpart: its
// per-cycle braid retries make it the engine's heaviest router.
func BenchmarkSimulatorAutoBraid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run("gcm_n13", Options{Scheduler: AutoBraid, Runs: 1, Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}
