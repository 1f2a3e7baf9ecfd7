// Package experiments regenerates every table and figure of the paper's
// evaluation (section 5 and the appendix) from this repository's own
// simulator, benchmark generators and schedulers. Each experiment returns
// both structured data (asserted by tests and the benchmark harness) and a
// rendered ASCII report (printed by cmd/rescq-bench).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Options configures an experiment run.
type Options struct {
	// Distance is the surface code distance (default 7, the paper's
	// headline operating point).
	Distance int
	// PhysError is the physical error rate (default 1e-4).
	PhysError float64
	// Runs is the number of seeds per configuration (default 3).
	Runs int
	// Quick restricts sweeps to the small benchmarks and one seed so the
	// whole harness finishes in seconds; used by tests.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Distance == 0 {
		o.Distance = 7
	}
	if o.PhysError == 0 {
		o.PhysError = 1e-4
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Quick && o.Runs > 2 {
		o.Runs = 2
	}
	return o
}

// baseSeed is the first seed of every configuration: run i uses
// baseSeed+i, as rescq.Options' default seed does.
const baseSeed = 1

// seeded prepares one configuration for the shared seeded-run step: the
// benchmark's memoized DAG and the paper's STAR layout, built once and
// cloned by every seeded run.
func (o Options) seeded(bench string, compression float64, newSched func() (sim.Scheduler, error)) (*sim.SeededRuns, error) {
	dag, ok := qbench.DAG(bench)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	g, err := lattice.Build(lattice.DefaultLayout, dag.Circuit().NumQubits, nil)
	if err != nil {
		return nil, err
	}
	return &sim.SeededRuns{Grid: g, DAG: dag, Config: sim.Config{Distance: o.Distance, PhysError: o.PhysError},
		Compression: compression, Seed: baseSeed, NewScheduler: newSched}, nil
}

// benchList returns the benchmarks an experiment sweeps: all of Table 3,
// or the small subset in Quick mode.
func (o Options) benchList() []string {
	if o.Quick {
		return []string{"vqe_n13", "qaoa_n15", "wstate_n27", "gcm_n13", "qft_n18", "hamsim_n25"}
	}
	return qbench.Names()
}

// representative returns the sensitivity-study benchmarks (section 5.2),
// or a cheaper stand-in set in Quick mode.
func (o Options) representative() []string {
	if o.Quick {
		return []string{"gcm_n13", "qft_n18"}
	}
	return qbench.Representative()
}

// SchedulerNames lists the evaluated schedulers in the paper's order.
var SchedulerNames = []string{"greedy", "autobraid", "rescq"}

// registered returns a constructor for the named scheduler through
// sched.New. The rescq policy takes its recomputation period from k (<= 0
// means the default 25).
func registered(name string, k int) func() (sim.Scheduler, error) {
	return func() (sim.Scheduler, error) { return sched.New(name, sched.Params{K: k}) }
}

// batch collects a driver's configurations so the whole sweep shares one
// bounded worker pool; the first configuration error is kept for run.
type batch struct {
	cfgs    []*sim.SeededRuns
	results [][]*sim.Result // one slot per seeded run
	err     error
}

// add appends one configuration with o.Runs seeded runs.
func (b *batch) add(o Options, bench string, compression float64, newSched func() (sim.Scheduler, error)) {
	c, err := o.seeded(bench, compression, newSched)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return
	}
	b.cfgs = append(b.cfgs, c)
	b.results = append(b.results, make([]*sim.Result, o.Runs))
}

// run fans every (configuration, seed) unit out over sim.ParallelFor, so
// sweeps saturate all cores even at one seed per configuration, and
// returns the aggregates in input order. Aggregation is in seed order, so
// results are byte-identical to a serial loop. Once ctx is done no
// further unit starts, and run returns ctx's error.
func (b *batch) run(ctx context.Context) ([]sim.Aggregate, error) {
	if b.err != nil {
		return nil, b.err
	}
	type unit struct{ cfg, seed int }
	var units []unit
	for c, slots := range b.results {
		for i := range slots {
			units = append(units, unit{c, i})
		}
	}
	errs := make([]error, len(units))
	sim.ParallelFor(len(units), 0, func(u int) {
		if errs[u] = ctx.Err(); errs[u] != nil {
			return
		}
		c, i := units[u].cfg, units[u].seed
		b.results[c][i], errs[u] = b.cfgs[c].Run(ctx, i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	aggs := make([]sim.Aggregate, len(b.results))
	for c, results := range b.results {
		aggs[c] = sim.AggregateResults(results)
	}
	return aggs, nil
}

// sweep helpers ---------------------------------------------------------

// distances returns the code-distance sweep of Figure 11.
func (o Options) distances() []int {
	if o.Quick {
		return []int{5, 7, 9}
	}
	return []int{5, 7, 9, 11, 13}
}

// errorRates returns the physical-error-rate sweep of Figure 12.
func (o Options) errorRates() []float64 {
	if o.Quick {
		return []float64{1e-3, 1e-4}
	}
	return []float64{1e-3, 3e-4, 1e-4, 3e-5, 1e-5}
}

// kValues returns the MST-recomputation-period sweep of Figures 10/13.
var kValues = []int{25, 50, 100, 200}

// compressions returns the grid-compression sweep of Figure 14.
func (o Options) compressions() []float64 {
	if o.Quick {
		return []float64{0, 0.5, 1.0}
	}
	return []float64{0, 0.25, 0.5, 0.75, 1.0}
}
