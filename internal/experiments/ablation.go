package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// AblationResult quantifies each RESCQ mechanism's contribution by
// disabling it in isolation — the design-choice study DESIGN.md calls out.
type AblationResult struct {
	// Cycles[bench][variant] is the mean makespan.
	Cycles map[string]map[string]float64
	Text   string
}

// ablationVariants lists the studied configurations.
var ablationVariants = []struct {
	name string
	cfg  core.Config
}{
	{"full", core.Config{}},
	{"no-parallel-prep", core.Config{MaxParallelPreps: 1}},
	{"no-eager-prep", core.Config{DisableEagerPrep: true}},
	{"no-mst-routing", core.Config{DisableMSTRouting: true}},
	{"stale-mst-k200", core.Config{K: 200}},
}

// Ablation runs every variant on the representative benchmarks.
func Ablation(ctx context.Context, o Options) (AblationResult, error) {
	o = o.withDefaults()
	res := AblationResult{Cycles: map[string]map[string]float64{}}
	header := []string{"Benchmark"}
	for _, v := range ablationVariants {
		header = append(header, v.name)
	}
	t := metrics.NewTable(header...)
	// Every (bench, variant, seed) run is independent; the batch fans them
	// out over the shared pool and aggregates per variant in seed order.
	benches := o.representative()
	var b batch
	for _, bench := range benches {
		for _, v := range ablationVariants {
			b.add(o, bench, 0, func() (sim.Scheduler, error) { return core.New(v.cfg), nil })
		}
	}
	aggs, err := b.run(ctx)
	if err != nil {
		return res, err
	}
	for bi, bench := range benches {
		res.Cycles[bench] = map[string]float64{}
		cells := []any{bench}
		for vi, v := range ablationVariants {
			agg := aggs[bi*len(ablationVariants)+vi]
			res.Cycles[bench][v.name] = agg.MeanCycles
			cells = append(cells, fmt.Sprintf("%.0f", agg.MeanCycles))
		}
		t.Row(cells...)
	}
	res.Text = "Ablation: RESCQ mechanisms disabled one at a time (mean cycles)\n" + t.String()
	return res, nil
}
