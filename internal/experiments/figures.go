package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/rus"
)

// Figure3Result reproduces Figure 3: maximum rotation-gate capacity vs
// target program fidelity for Clifford+Rz vs Clifford+T.
type Figure3Result struct {
	// Ratio is the Clifford+Rz : Clifford+T capacity advantage at each
	// logical error rate (~ the T count per rotation).
	Ratio map[float64]float64
	Text  string
}

// Figure3 regenerates the capacity curves for a sweep of logical error
// rates and target fidelities.
func Figure3(tPerRz int) Figure3Result {
	fidelities := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}
	lers := []float64{1e-6, 1e-7, 1e-8}
	res := Figure3Result{Ratio: map[float64]float64{}}
	var series []metrics.Series
	for _, ler := range lers {
		rzS := metrics.Series{Label: fmt.Sprintf("Rz ler=%.0e", ler)}
		tS := metrics.Series{Label: fmt.Sprintf("T  ler=%.0e", ler)}
		for _, f := range fidelities {
			rz, tg := rus.Figure3Point(f, ler, tPerRz)
			rzS.X = append(rzS.X, f)
			rzS.Y = append(rzS.Y, rz)
			tS.X = append(tS.X, f)
			tS.Y = append(tS.Y, tg)
			res.Ratio[ler] = rz / tg
		}
		series = append(series, rzS, tS)
	}
	res.Text = metrics.RenderSeries(
		"Figure 3: max rotation gates vs target fidelity (solid = Clifford+Rz, dashed = Clifford+T)",
		"fidelity", series)
	return res
}

// Figure5Result reproduces Figure 5: the distribution of CNOT and Rz
// completion latency (cycles after the gate is ready) for the AutoBraid
// baseline and RESCQ, pooled over the benchmark suite.
type Figure5Result struct {
	CNOT map[string]*metrics.Histogram // scheduler -> histogram
	Rz   map[string]*metrics.Histogram
	Text string
}

// Figure5 regenerates the latency histograms.
func Figure5(ctx context.Context, o Options) (Figure5Result, error) {
	o = o.withDefaults()
	res := Figure5Result{
		CNOT: map[string]*metrics.Histogram{},
		Rz:   map[string]*metrics.Histogram{},
	}
	var sb strings.Builder
	sb.WriteString("Figure 5: per-gate completion latency after scheduling (pooled over benchmarks)\n\n")
	scheds := []string{"autobraid", "rescq"}
	benches := o.benchList()
	var b batch
	for _, schedName := range scheds {
		for _, bench := range benches {
			b.add(o, bench, 0, registered(schedName, 0))
		}
	}
	if _, err := b.run(ctx); err != nil {
		return res, err
	}
	for si, schedName := range scheds {
		hc, hr := metrics.NewHistogram(), metrics.NewHistogram()
		for bi := range benches {
			for _, r := range b.results[si*len(benches)+bi] {
				hc.AddAll(r.CNOTLatencies)
				hr.AddAll(r.RzLatencies)
			}
		}
		res.CNOT[schedName] = hc
		res.Rz[schedName] = hr
		sb.WriteString(hc.Render(fmt.Sprintf("CNOT latency, %s", schedName), 20, 40))
		sb.WriteString(hr.Render(fmt.Sprintf("Rz latency, %s", schedName), 20, 40))
		sb.WriteByte('\n')
	}
	res.Text = sb.String()
	return res, nil
}

// Figure10Row is one benchmark's normalized execution time.
type Figure10Row struct {
	Bench     string
	Greedy    float64 // mean cycles
	AutoBraid float64
	RescqByK  map[int]float64
	RescqBest float64 // RESCQ* of the paper: best mean over k
	MinCycles int     // RESCQ* min across seeds (error bar)
	MaxCycles int     // RESCQ* max across seeds
}

// Figure10Result reproduces Figure 10: normalized average execution time
// for every benchmark plus the geometric-mean summary.
type Figure10Result struct {
	Rows               []Figure10Row
	GeomeanVsGreedy    float64 // geomean over benchmarks of greedy/RESCQ*
	GeomeanVsAutoBraid float64
	Text               string
}

// Figure10 regenerates the headline comparison at the given operating
// point (defaults d=7, p=1e-4), evaluating RESCQ at k in {25,50,100,200}
// and reporting the best as RESCQ*.
func Figure10(ctx context.Context, o Options) (Figure10Result, error) {
	o = o.withDefaults()
	var res Figure10Result
	t := metrics.NewTable("Benchmark", "greedy", "autobraid", "RESCQ*", "k*", "norm(greedy)", "norm(autobraid)", "norm(RESCQ*)")
	var gRatios, aRatios []float64
	ks := kValues
	if o.Quick {
		ks = []int{25, 100}
	}
	benches := o.benchList()
	// One flat batch over every benchmark and scheduler configuration so
	// the whole figure shares the worker pool.
	stride := 2 + len(ks)
	var b batch
	for _, bench := range benches {
		b.add(o, bench, 0, registered("greedy", 0))
		b.add(o, bench, 0, registered("autobraid", 0))
		for _, k := range ks {
			b.add(o, bench, 0, registered("rescq", k))
		}
	}
	aggs, err := b.run(ctx)
	if err != nil {
		return res, err
	}
	for bi, bench := range benches {
		row := Figure10Row{Bench: bench, RescqByK: map[int]float64{}}
		g, a := aggs[bi*stride], aggs[bi*stride+1]
		row.Greedy, row.AutoBraid = g.MeanCycles, a.MeanCycles
		bestK := 0
		row.RescqBest = 0
		for ki, k := range ks {
			r := aggs[bi*stride+2+ki]
			row.RescqByK[k] = r.MeanCycles
			if row.RescqBest == 0 || r.MeanCycles < row.RescqBest {
				row.RescqBest = r.MeanCycles
				row.MinCycles, row.MaxCycles = r.MinCycles, r.MaxCycles
				bestK = k
			}
		}
		base := row.Greedy // normalize to the greedy baseline
		t.Row(bench,
			fmt.Sprintf("%.0f", row.Greedy), fmt.Sprintf("%.0f", row.AutoBraid),
			fmt.Sprintf("%.0f", row.RescqBest), bestK,
			1.0, row.AutoBraid/base, row.RescqBest/base)
		gRatios = append(gRatios, row.Greedy/row.RescqBest)
		aRatios = append(aRatios, row.AutoBraid/row.RescqBest)
		res.Rows = append(res.Rows, row)
	}
	res.GeomeanVsGreedy = metrics.GeoMean(gRatios)
	res.GeomeanVsAutoBraid = metrics.GeoMean(aRatios)
	res.Text = fmt.Sprintf(
		"Figure 10: normalized average execution time (d=%d, p=%.0e, %d seeds)\n%s"+
			"Geomean RESCQ* speedup: %.2fx vs greedy, %.2fx vs autobraid\n",
		o.Distance, o.PhysError, o.Runs, t.String(),
		res.GeomeanVsGreedy, res.GeomeanVsAutoBraid)
	return res, nil
}

// SweepResult holds one sensitivity figure: per benchmark, one series per
// scheduler, with execution time and idle fraction.
type SweepResult struct {
	// Cycles[bench][scheduler] is the series of mean cycles over the
	// sweep values; Idle likewise for the mean data-qubit idle fraction.
	Cycles map[string]map[string][]float64
	Idle   map[string]map[string][]float64
	Xs     []float64
	Text   string
}

// Figure11 regenerates the code-distance sensitivity study (k=25 for
// RESCQ, per the paper's "RESCQ25").
func Figure11(ctx context.Context, o Options) (SweepResult, error) {
	o = o.withDefaults()
	ds := o.distances()
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return sweep(ctx, o, "Figure 11: sensitivity to code distance", "d", xs, func(base Options, i int) Options {
		base.Distance = ds[i]
		return base
	})
}

// Figure12 regenerates the physical-error-rate sensitivity study.
func Figure12(ctx context.Context, o Options) (SweepResult, error) {
	o = o.withDefaults()
	ps := o.errorRates()
	return sweep(ctx, o, "Figure 12: sensitivity to physical error rate", "p", ps, func(base Options, i int) Options {
		base.PhysError = ps[i]
		return base
	})
}

// sweep runs every scheduler on the representative benchmarks across a
// parameter sweep.
func sweep(ctx context.Context, o Options, title, xName string, xs []float64, apply func(Options, int) Options) (SweepResult, error) {
	res := SweepResult{
		Cycles: map[string]map[string][]float64{},
		Idle:   map[string]map[string][]float64{},
		Xs:     xs,
	}
	var sb strings.Builder
	benches := o.representative()
	// Flatten the whole bench x scheduler x sweep-value space into one
	// batch; results come back in input order, so a cursor walks them in
	// the same nesting below.
	var b batch
	for _, bench := range benches {
		for _, schedName := range SchedulerNames {
			for i := range xs {
				b.add(apply(o, i), bench, 0, registered(schedName, 25))
			}
		}
	}
	aggs, err := b.run(ctx)
	if err != nil {
		return res, err
	}
	idx := 0
	for _, bench := range benches {
		res.Cycles[bench] = map[string][]float64{}
		res.Idle[bench] = map[string][]float64{}
		var cyc, idle []metrics.Series
		for _, schedName := range SchedulerNames {
			sc := metrics.Series{Label: schedName, X: xs}
			si := metrics.Series{Label: schedName, X: xs}
			for range xs {
				agg := aggs[idx]
				idx++
				sc.Y = append(sc.Y, agg.MeanCycles)
				si.Y = append(si.Y, agg.MeanIdle)
			}
			res.Cycles[bench][schedName] = sc.Y
			res.Idle[bench][schedName] = si.Y
			cyc = append(cyc, sc)
			idle = append(idle, si)
		}
		sb.WriteString(metrics.RenderSeries(fmt.Sprintf("%s — %s (execution cycles)", title, bench), xName, cyc))
		sb.WriteString(metrics.RenderSeries(fmt.Sprintf("%s — %s (mean idle fraction)", title, bench), xName, idle))
		sb.WriteByte('\n')
	}
	res.Text = sb.String()
	return res, nil
}

// Figure13Result holds RESCQ's sensitivity to the MST recomputation
// period k across d and p.
type Figure13Result struct {
	// ByK[bench]["d=5"] etc: mean cycles per k, in kValues order.
	Cycles map[string]map[string]map[int]float64
	Text   string
}

// Figure13 regenerates the k-sensitivity study (RESCQ only).
func Figure13(ctx context.Context, o Options) (Figure13Result, error) {
	o = o.withDefaults()
	res := Figure13Result{Cycles: map[string]map[string]map[int]float64{}}
	var sb strings.Builder
	ks := kValues
	if o.Quick {
		ks = []int{25, 200}
	}
	// Every (bench, d-or-p label, k) point is an independent RESCQ run;
	// flatten them all into one pool batch, then walk the aggregates with
	// a cursor in the same nesting order.
	type labelled struct {
		label string
		oo    Options
	}
	var labels []labelled
	for _, d := range o.distances() {
		oo := o
		oo.Distance = d
		labels = append(labels, labelled{fmt.Sprintf("d=%d", d), oo})
	}
	for _, p := range o.errorRates() {
		oo := o
		oo.PhysError = p
		labels = append(labels, labelled{fmt.Sprintf("p=%.0e", p), oo})
	}
	benches := o.representative()
	var b batch
	for _, bench := range benches {
		for _, l := range labels {
			for _, k := range ks {
				b.add(l.oo, bench, 0, registered("rescq", k))
			}
		}
	}
	aggs, err := b.run(ctx)
	if err != nil {
		return res, err
	}
	idx := 0
	for _, bench := range benches {
		res.Cycles[bench] = map[string]map[int]float64{}
		var series []metrics.Series
		for _, l := range labels {
			res.Cycles[bench][l.label] = map[int]float64{}
			s := metrics.Series{Label: l.label}
			for _, k := range ks {
				agg := aggs[idx]
				idx++
				res.Cycles[bench][l.label][k] = agg.MeanCycles
				s.X = append(s.X, float64(k))
				s.Y = append(s.Y, agg.MeanCycles)
			}
			series = append(series, s)
		}
		sb.WriteString(metrics.RenderSeries(
			fmt.Sprintf("Figure 13: RESCQ sensitivity to k — %s (execution cycles)", bench), "k", series))
		sb.WriteByte('\n')
	}
	res.Text = sb.String()
	return res, nil
}

// Figure14Result holds the grid-compression study.
type Figure14Result struct {
	// Cycles[bench][scheduler] over the compression sweep.
	Cycles       map[string]map[string][]float64
	Compressions []float64
	Text         string
}

// Figure14 regenerates the ancilla-availability (grid compression) study.
func Figure14(ctx context.Context, o Options) (Figure14Result, error) {
	o = o.withDefaults()
	comps := o.compressions()
	res := Figure14Result{Cycles: map[string]map[string][]float64{}, Compressions: comps}
	var sb strings.Builder
	benches := o.representative()
	var b batch
	for _, bench := range benches {
		for _, schedName := range SchedulerNames {
			for _, c := range comps {
				b.add(o, bench, c, registered(schedName, 25))
			}
		}
	}
	aggs, err := b.run(ctx)
	if err != nil {
		return res, err
	}
	idx := 0
	for _, bench := range benches {
		res.Cycles[bench] = map[string][]float64{}
		var series []metrics.Series
		for _, schedName := range SchedulerNames {
			s := metrics.Series{Label: schedName}
			for _, c := range comps {
				agg := aggs[idx]
				idx++
				s.X = append(s.X, 100*c)
				s.Y = append(s.Y, agg.MeanCycles)
			}
			res.Cycles[bench][schedName] = s.Y
			series = append(series, s)
		}
		sb.WriteString(metrics.RenderSeries(
			fmt.Sprintf("Figure 14: sensitivity to grid compression — %s (execution cycles)", bench),
			"compression%", series))
		sb.WriteByte('\n')
	}
	res.Text = sb.String()
	return res, nil
}

// Figure15 renders example grids of 8 data qubits at each compression
// level, as in the paper's Figure 15.
func Figure15() string {
	var sb strings.Builder
	sb.WriteString("Figure 15: grids of 8 data qubits at different compressions\n\n")
	for _, c := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		g := lattice.MustBuild(lattice.DefaultLayout, 8, nil)
		g.Compress(c, rand.New(rand.NewSource(15)))
		fmt.Fprintf(&sb, "%.0f%% compression (%d ancillas, %.2f per data qubit):\n%s\n",
			100*c, g.NumAncilla(), g.AncillaPerData(), g.Render())
	}
	return sb.String()
}

// Figure16Result reproduces the preparation-model curves.
type Figure16Result struct {
	// Cycles[p][i] and Attempts[p][i] over the distance sweep.
	Distances []int
	Cycles    map[float64][]float64
	Attempts  map[float64][]float64
	Text      string
}

// Figure16 regenerates expected cycles and attempts to prepare |m_theta>.
func Figure16() Figure16Result {
	ds := []int{3, 5, 7, 9, 11, 13}
	ps := []float64{1e-3, 3e-4, 1e-4, 1e-5}
	res := Figure16Result{
		Distances: ds,
		Cycles:    map[float64][]float64{},
		Attempts:  map[float64][]float64{},
	}
	var cyc, att []metrics.Series
	for _, p := range ps {
		sc := metrics.Series{Label: fmt.Sprintf("p=%.0e", p)}
		sa := metrics.Series{Label: fmt.Sprintf("p=%.0e", p)}
		for _, d := range ds {
			pr := rus.Params{Distance: d, PhysError: p}
			sc.X = append(sc.X, float64(d))
			sc.Y = append(sc.Y, pr.ExpectedPrepCycles())
			sa.X = append(sa.X, float64(d))
			sa.Y = append(sa.Y, pr.ExpectedAttempts())
		}
		res.Cycles[p] = sc.Y
		res.Attempts[p] = sa.Y
		cyc = append(cyc, sc)
		att = append(att, sa)
	}
	res.Text = metrics.RenderSeries("Figure 16a: expected cycles to prepare |m_theta>", "d", cyc) +
		metrics.RenderSeries("Figure 16b: expected attempts to prepare |m_theta>", "d", att)
	return res
}
