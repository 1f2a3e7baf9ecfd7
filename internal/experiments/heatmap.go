package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/lattice"
)

// HeatmapResult renders the grid-activity heatmaps the artifact produces:
// per-ancilla busy fraction over a whole run, drawn on the tile grid.
type HeatmapResult struct {
	// Utilization[scheduler] is the per-ancilla busy fraction.
	Utilization map[string][]float64
	Text        string
}

// heatmapGlyphs maps utilization deciles to characters (light to dark).
const heatmapGlyphs = " .:-=+*#%@"

// Heatmap simulates one benchmark under each scheduler and renders the
// resulting ancilla utilization as an ASCII heatmap ('D' marks data
// qubits; glyphs darken with busy fraction).
func Heatmap(o Options, benchName string) (HeatmapResult, error) {
	o = o.withDefaults()
	if benchName == "" {
		benchName = "gcm_n13"
	}
	res := HeatmapResult{Utilization: map[string][]float64{}}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Grid activity heatmaps — %s (d=%d, p=%.0e, seed %d)\n\n",
		benchName, o.Distance, o.PhysError, o.BaseSeed)
	for _, schedName := range SchedulerNames {
		runs, err := o.seeded(benchName, 0, registered(schedName, 25))
		if err != nil {
			return res, err
		}
		r, err := runs.Run(context.Background(), 0)
		if err != nil {
			return res, err
		}
		res.Utilization[schedName] = r.AncillaUtilization
		// The run simulated an uncompressed clone, so the prebuilt grid
		// has the same tiles and ancilla IDs.
		fmt.Fprintf(&sb, "%s (%d cycles):\n%s\n", schedName, r.TotalCycles,
			renderHeatmap(runs.Grid, r.AncillaUtilization))
	}
	res.Text = sb.String()
	return res, nil
}

// renderHeatmap draws per-ancilla utilization on the tile grid.
func renderHeatmap(g *lattice.Grid, util []float64) string {
	var sb strings.Builder
	for row := 0; row < g.Rows(); row++ {
		for col := 0; col < g.Cols(); col++ {
			c := lattice.At(row, col)
			switch g.Kind(c) {
			case lattice.TileData:
				sb.WriteByte('D')
			case lattice.TileAncilla:
				u := util[g.AncillaID(c)]
				idx := int(u * float64(len(heatmapGlyphs)))
				if idx >= len(heatmapGlyphs) {
					idx = len(heatmapGlyphs) - 1
				}
				sb.WriteByte(heatmapGlyphs[idx])
			default:
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
