package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/lattice"
)

// Result summarizes one simulation run.
type Result struct {
	Scheduler string
	Benchmark string
	Seed      int64

	// TotalCycles is the program makespan in lattice-surgery cycles.
	TotalCycles int
	// CNOTLatencies and RzLatencies record, per gate, the cycles from the
	// gate becoming ready (dependencies done) to its completion — the
	// quantity histogrammed in the paper's Figure 5.
	CNOTLatencies []int
	RzLatencies   []int
	// IdlePerQubit is each data qubit's idle fraction; MeanIdleFraction
	// averages them (Figures 11/12 idling panels).
	IdlePerQubit     []float64
	MeanIdleFraction float64
	// AncillaUtilization is each ancilla's busy fraction over the whole
	// run (the artifact's grid-activity heatmap data), indexed by the
	// grid's dense ancilla ID.
	AncillaUtilization []float64

	PrepsStarted      int
	InjectionsStarted int
	InjectionFailures int
	EdgeRotations     int
}

// RunSeeded builds a fresh grid-independent engine run: it simulates circ
// on grid under sched with one seed. The grid is mutated during simulation
// (orientations); callers reusing grids across runs should rebuild them.
func RunSeeded(g *lattice.Grid, c *circuit.Circuit, cfg Config, seed int64, sched Scheduler) (*Result, error) {
	return RunSeededContext(context.Background(), g, c, cfg, seed, sched)
}

// RunSeededContext is RunSeeded with cooperative cancellation: the engine
// polls ctx inside its cycle loop, so cancelling a request aborts a long
// simulation promptly instead of at the run boundary.
func RunSeededContext(ctx context.Context, g *lattice.Grid, c *circuit.Circuit, cfg Config, seed int64, sched Scheduler) (*Result, error) {
	return RunDAGContext(ctx, g, circuit.NewDAG(c), cfg, seed, sched)
}

// RunDAGContext is RunSeededContext over a prebuilt dependency DAG. The
// engine only reads the DAG, so one DAG can serve every seeded run of a
// configuration — concurrent runs included.
func RunDAGContext(ctx context.Context, g *lattice.Grid, dag *circuit.DAG, cfg Config, seed int64, sched Scheduler) (*Result, error) {
	name := dag.Circuit().Name
	res, err := NewEngine(g, dag, cfg, seed, sched).RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("sim: %s on %s (seed %d): %w", sched.Name(), name, seed, err)
	}
	res.Benchmark = name
	res.Seed = seed
	return res, nil
}

// Aggregate summarizes multiple seeded runs of one configuration.
type Aggregate struct {
	Scheduler string
	Benchmark string
	Runs      int

	MeanCycles float64
	MinCycles  int
	MaxCycles  int
	StdCycles  float64

	MeanIdle float64

	// Pooled per-gate latencies across runs (Figure 5 inputs).
	CNOTLatencies []int
	RzLatencies   []int
}

// Aggregate pools per-run results. It panics on an empty slice.
func AggregateResults(results []*Result) Aggregate {
	if len(results) == 0 {
		panic("sim: aggregating zero results")
	}
	a := Aggregate{
		Scheduler: results[0].Scheduler,
		Benchmark: results[0].Benchmark,
		Runs:      len(results),
		MinCycles: math.MaxInt,
	}
	var sum, sumSq, idle float64
	for _, r := range results {
		c := float64(r.TotalCycles)
		sum += c
		sumSq += c * c
		idle += r.MeanIdleFraction
		if r.TotalCycles < a.MinCycles {
			a.MinCycles = r.TotalCycles
		}
		if r.TotalCycles > a.MaxCycles {
			a.MaxCycles = r.TotalCycles
		}
		a.CNOTLatencies = append(a.CNOTLatencies, r.CNOTLatencies...)
		a.RzLatencies = append(a.RzLatencies, r.RzLatencies...)
	}
	n := float64(len(results))
	a.MeanCycles = sum / n
	variance := sumSq/n - a.MeanCycles*a.MeanCycles
	if variance < 0 {
		variance = 0
	}
	a.StdCycles = math.Sqrt(variance)
	a.MeanIdle = idle / n
	return a
}
