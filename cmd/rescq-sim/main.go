// Command rescq-sim runs one simulation configuration — the reproduction's
// analogue of the artifact's `sim` executable. It reads a JSON config file
// (see internal/config), simulates the requested benchmark or circuit file
// under the requested scheduler, and prints a per-seed log plus a pooled
// summary.
//
// Usage:
//
//	rescq-sim -config path/to/config.json
//	rescq-sim -bench gcm_n13 -scheduler rescq -d 7 -p 1e-4 -runs 5
//	rescq-sim -bench gcm_n13 -layout linear
//	rescq-sim -bench gcm_n13 -layout compact -layout-params fraction=0.5,seed=3
//
// -list prints the scheduler and layout names next to the benchmarks.
// Layout params that do not fit the flat
// key=value flag syntax — notably the "custom" layout's JSON spec — go in
// the JSON config file's "layout_params" object instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	rescq "repro"
	"repro/internal/config"
	"repro/internal/core"
)

// parseLayoutParams turns a "k=v,k=v" flag value into a params map.
func parseLayoutParams(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad -layout-params entry %q (want key=value)", pair)
		}
		out[k] = v
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main path: flag parsing, config resolution, one
// simulation, rendered output. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rescq-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := core.DefaultConfig()
	var (
		cfgPath     = fs.String("config", "", "JSON config file (overrides the other flags)")
		bench       = fs.String("bench", "", "Table 3 benchmark name (see -list)")
		circuitFile = fs.String("circuit", "", "circuit file in the artifact text format")
		scheduler   = fs.String("scheduler", "rescq", "scheduler name (see -list)")
		layout      = fs.String("layout", "", "lattice layout name (default star; see -list)")
		layoutPs    = fs.String("layout-params", "", "layout params as comma-separated key=value pairs (e.g. fraction=0.5,seed=3)")
		distance    = fs.Int("d", 7, "surface code distance")
		physErr     = fs.Float64("p", 1e-4, "physical qubit error rate")
		k           = fs.Int("k", def.K, "RESCQ MST recomputation period (cycles)")
		tau         = fs.Int("tau", def.TauMST, "RESCQ MST computation latency (cycles)")
		compression = fs.Float64("compression", 0, "grid compression fraction in [0,1]")
		runs        = fs.Int("runs", 10, "seeded runs")
		seed        = fs.Int64("seed", 1, "base seed")
		list        = fs.Bool("list", false, "list benchmarks and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "rescq-sim:", err)
		return 1
	}

	if *list {
		for _, b := range rescq.Benchmarks() {
			fmt.Fprintf(stdout, "%-16s %-9s %4d qubits  %5d Rz  %5d CNOT\n",
				b.Name, b.Suite, b.Qubits, b.PaperRz, b.PaperCNOT)
		}
		fmt.Fprintf(stdout, "\nschedulers: %s\n", strings.Join(rescq.Schedulers(), ", "))
		fmt.Fprintln(stdout, "layouts:")
		for _, l := range rescq.LayoutCatalog() {
			fmt.Fprintf(stdout, "  %-8s %s\n", l.Name, l.Description)
		}
		return 0
	}

	layoutParams, err := parseLayoutParams(*layoutPs)
	if err != nil {
		return fail(err)
	}
	cfg := config.Config{
		Benchmark: *bench, CircuitFile: *circuitFile, Scheduler: *scheduler,
		Layout: *layout, LayoutParams: layoutParams,
		Distance: *distance, PhysError: *physErr, K: *k, TauMST: *tau,
		Compression: *compression, NumberOfRuns: *runs, Seed: *seed,
	}.WithDefaults()
	if *cfgPath != "" {
		loaded, err := config.Load(*cfgPath)
		if err != nil {
			return fail(err)
		}
		cfg = loaded
	}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}

	opts := cfg.Options()

	var sum rescq.Summary
	switch {
	case cfg.Benchmark != "":
		sum, err = rescq.Run(cfg.Benchmark, opts)
	default:
		data, rerr := os.ReadFile(cfg.CircuitFile)
		if rerr != nil {
			return fail(rerr)
		}
		sum, err = rescq.RunCircuitText(cfg.CircuitFile, string(data), opts)
	}
	if err != nil {
		return fail(err)
	}

	layoutName := cfg.Layout
	if layoutName == "" {
		layoutName = rescq.DefaultLayout
	}
	fmt.Fprintf(stdout, "benchmark=%s scheduler=%s layout=%s d=%d p=%g k=%d compression=%.0f%% runs=%d\n",
		sum.Benchmark, sum.Scheduler, layoutName, cfg.Distance, cfg.PhysError, cfg.K,
		100*cfg.Compression, len(sum.Runs))
	for _, r := range sum.Runs {
		fmt.Fprintf(stdout, "seed=%-4d cycles=%-8d idle=%.3f preps=%-6d injections=%-6d edge_rotations=%d\n",
			r.Seed, r.TotalCycles, r.MeanIdleFraction, r.PrepsStarted, r.InjectionsCount, r.EdgeRotations)
	}
	fmt.Fprintf(stdout, "mean=%.1f min=%d max=%d std=%.1f mean_idle=%.3f\n",
		sum.MeanCycles, sum.MinCycles, sum.MaxCycles, sum.StdCycles, sum.MeanIdle)
	return 0
}
