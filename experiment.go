package rescq

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// ExperimentIDs lists the regenerable paper artifacts in evaluation order.
var ExperimentIDs = []string{
	"table1", "table3", "fig3", "fig5", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "fig16", "appendixA2", "mst-timing",
	"ablation", "heatmap",
}

// Experiment regenerates one paper table or figure and returns its rendered
// report. When quick is true the simulation-backed experiments run a
// reduced sweep (small benchmarks, fewer seeds) that finishes in seconds;
// the full sweeps reproduce the paper's exact configurations.
func Experiment(id string, quick bool) (string, error) {
	return ExperimentContext(context.Background(), id, quick)
}

// ExperimentContext is Experiment with cancellation: once ctx is done, a
// simulation-backed experiment starts no further seeded run, aborts the
// runs in flight and returns ctx's error.
func ExperimentContext(ctx context.Context, id string, quick bool) (string, error) {
	o := experiments.Options{Quick: quick}
	switch id {
	case "table1":
		return experiments.Table1().Text, nil
	case "table3":
		return experiments.Table3().Text, nil
	case "fig3":
		return experiments.Figure3(100).Text, nil
	case "fig5":
		r, err := experiments.Figure5(ctx, o)
		return r.Text, err
	case "fig10":
		r, err := experiments.Figure10(ctx, o)
		return r.Text, err
	case "fig11":
		r, err := experiments.Figure11(ctx, o)
		return r.Text, err
	case "fig12":
		r, err := experiments.Figure12(ctx, o)
		return r.Text, err
	case "fig13":
		r, err := experiments.Figure13(ctx, o)
		return r.Text, err
	case "fig14":
		r, err := experiments.Figure14(ctx, o)
		return r.Text, err
	case "fig15":
		return experiments.Figure15(), nil
	case "fig16":
		return experiments.Figure16().Text, nil
	case "appendixA2":
		return experiments.AppendixA2().Text, nil
	case "mst-timing":
		return experiments.MSTTiming().Text, nil
	case "ablation":
		r, err := experiments.Ablation(ctx, o)
		return r.Text, err
	case "heatmap":
		r, err := experiments.Heatmap(ctx, o, "gcm_n13")
		return r.Text, err
	}
	return "", fmt.Errorf("rescq: unknown experiment %q (known: %s)", id, strings.Join(knownIDs(), ", "))
}

func knownIDs() []string {
	ids := append([]string(nil), ExperimentIDs...)
	sort.Strings(ids)
	return ids
}
