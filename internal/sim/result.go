package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

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

// RunDAGContext simulates the DAG's circuit on grid under sched with one
// seed, with cooperative cancellation: the engine polls ctx inside its cycle
// loop, so cancelling a request aborts a long simulation promptly instead of
// at the run boundary. The grid is mutated during simulation (orientations);
// callers reusing grids across runs should clone them. The engine only reads
// the DAG, so one DAG can serve every seeded run of a configuration —
// concurrent runs included.
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

// SeededRuns is one configuration's seeded runs: a prebuilt layout and
// dependency DAG, the engine config, an optional grid compression and a
// scheduler constructor. It is the single seeded-run step behind the
// library (rescq), the rescqd daemon and the experiment drivers, so a
// configuration reads the same number whichever of them runs it.
type SeededRuns struct {
	// Grid is the uncompressed layout; every run mutates its own clone,
	// so one grid can serve concurrent runs.
	Grid *lattice.Grid
	// DAG is only read by the engine and may be shared the same way.
	DAG    *circuit.DAG
	Config Config
	// Compression removes ancillas from each run's clone (0 keeps all).
	Compression float64
	// Seed is the base seed: run i simulates with Seed+i.
	Seed int64
	// NewScheduler returns a scheduler instance for each run, one that no
	// other run is using (sched.New reuses released ones).
	NewScheduler func() (Scheduler, error)
}

// Run executes seed index i: clone the grid, compress the clone with the
// layout seed Seed+i*7919 (compression is part of the architecture, so
// every scheduler sees the same compressed grid per index), take a
// scheduler from NewScheduler and simulate with seed Seed+i. Runs are
// self-contained, so callers may fan indices out over ParallelFor and
// aggregate the results in index order.
func (r *SeededRuns) Run(ctx context.Context, i int) (*Result, error) {
	g := r.Grid.Clone()
	if r.Compression > 0 {
		g.Compress(r.Compression, rand.New(rand.NewSource(r.Seed+int64(i)*7919)))
	}
	s, err := r.NewScheduler()
	if err != nil {
		return nil, err
	}
	return RunDAGContext(ctx, g, r.DAG, r.Config, r.Seed+int64(i), s)
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
}

// AggregateResults computes the scalar statistics of per-run results; a
// caller that wants the per-gate latencies pooled (Figure 5) reads them
// from the results. It panics on an empty slice.
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
