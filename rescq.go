// Package rescq is the public API of the RESCQ reproduction: a realtime
// scheduler for continuous-angle quantum error correction architectures
// (Sethi & Baker, ASPLOS 2025), together with the full simulation substrate
// the paper's evaluation needs — surface-code lattice model, RUS
// state-preparation model, Table 3 benchmark generators, the greedy and
// AutoBraid static baselines, and drivers for every table and figure.
//
// The typical entry point is Run:
//
//	sum, err := rescq.Run("gcm_n13", rescq.Options{Scheduler: rescq.RESCQ})
//
// which simulates a Table 3 benchmark on a fresh STAR grid and returns
// pooled statistics over the configured seeds. RunCircuitText accepts any
// circuit in the artifact's text format instead of a named benchmark, and
// Experiment regenerates a specific paper table or figure as text.
//
// # Layouts and schedulers
//
// Both evaluation axes are closed catalogs, named by string so requests,
// cache keys and sweep grids can carry them:
//
//   - Lattice layouts (internal/lattice): Options.Layout names a layout,
//     Options.LayoutParams passes its knobs. The layouts are "star" (the
//     paper's STAR grid and the default — a layout-unset run is
//     byte-identical to the code before layouts existed), "linear" (a
//     single block row, the adversarial routing topology), "compact" (the
//     STAR grid with a deterministic fraction of ancillas removed, i.e.
//     paper section 5.3 grid compression as a first-class tiling) and
//     "custom" (an arbitrary tiling from a JSON spec, see the lattice
//     package). Layouts and LayoutCatalog enumerate them.
//   - Schedulers (internal/sched): Options.Scheduler names one of the
//     paper's three policies, "greedy" and "autobraid" (the static
//     baselines of the sched package) and "rescq" (internal/core).
//     Schedulers enumerates them.
//
// The chosen layout and its params are part of a result's identity:
// Options.Canonical folds them into CacheKey (with the default star
// layout canonicalized to the empty value, so every pre-layout cache key
// is preserved), and the rescqd daemon sweeps layouts as a first-class
// grid axis and reports every value at GET /v1/capabilities.
//
// # Performance
//
// The simulator is engineered so the realtime scheduler's classical
// control stays realtime-cheap, mirroring the paper's section 5.4:
//
//   - MST maintenance is incremental. The RESCQ scheduler keeps one
//     working minimum spanning tree and applies only the edge weights that
//     changed between activity snapshots through the paper's O(k*sqrt(n))
//     single-edge update (section 5.4.1), falling back to a full — but
//     allocation-free, radix-sorted, O(E) — KruskalInto recompute only
//     when a snapshot changes a large fraction of the edges. Published
//     trees are cloned from the working tree and recycled through a free
//     list, so the Figure 8 pipeline allocates nothing at steady state.
//   - Once its reused buffers have grown, the engine's cycle loop
//     allocates nothing, for every built-in scheduler. Active ops live in
//     an ID-ordered list (no map iteration, no per-cycle sort), completion
//     callbacks reuse one buffer, and finished ops are recycled at the
//     next cycle boundary, so a scheduler must not keep an *sim.Op past
//     the cycle it finishes in. Lattice queries append into caller-owned
//     buffers, and the schedulers reuse their per-gate state and routing
//     paths. Ancilla activity and qubit idle time are accounted by
//     events: only the tiles and qubits whose holder changed in a cycle
//     are visited, not every ancilla. A test checks that a longer run
//     allocates no more than a shorter one.
//   - One seeded-run step (sim.SeededRuns) serves this package, the
//     rescqd daemon and the experiment drivers: each run clones one
//     prebuilt layout, compresses the clone with a seed derived from the
//     run index, and simulates the process-wide memoized benchmark DAG
//     with a fresh scheduler. A configuration therefore reads the same
//     number from Run, a daemon sweep and a paper figure. Run executes
//     its seeds serially (the daemon's slots already fill the cores); the
//     drivers behind Experiment spread their benchmark x scheduler x
//     parameter x seed units over a bounded worker pool, aggregating in
//     seed order.
//
// To reproduce the profile that motivated this layout:
//
//	go test -run '^$' -bench 'BenchmarkSimulatorRESCQ|BenchmarkFigure13MSTFrequency' \
//	    -cpuprofile cpu.out -benchmem .
//	go tool pprof -top cpu.out
//
// BENCH_baseline.json records the before/after numbers of the headline
// benchmarks on the reference machine.
package rescq

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sched"
	"repro/internal/sim"
)

// SchedulerKind selects the scheduling policy by name: one of the three
// constants below, the paper's evaluated schedulers (see Schedulers).
type SchedulerKind string

// The three evaluated schedulers.
const (
	// Greedy is the static layered baseline with BFS shortest-path
	// routing (Javadi-Abhari et al.).
	Greedy SchedulerKind = "greedy"
	// AutoBraid is the static layered baseline with row/column braid
	// routing (Hua et al.).
	AutoBraid SchedulerKind = "autobraid"
	// RESCQ is the paper's realtime scheduler.
	RESCQ SchedulerKind = "rescq"
)

// Options configures a simulation. The JSON field names are the wire
// format of the rescqd daemon's job requests (see internal/service).
type Options struct {
	// Scheduler picks the policy by name; default RESCQ. See
	// Schedulers() for the names.
	Scheduler SchedulerKind `json:"scheduler,omitempty"`
	// Layout picks the lattice layout by name; default "star", the
	// paper's STAR grid. See Layouts() for the names.
	Layout string `json:"layout,omitempty"`
	// LayoutParams passes layout-specific knobs to the builder (e.g. the
	// "compact" layout's "fraction", or the "custom" layout's JSON
	// "spec"). The chosen layout and its params are part of a result's
	// identity and are folded into CacheKey.
	LayoutParams map[string]string `json:"layout_params,omitempty"`
	// Distance is the surface code distance d; default 7.
	Distance int `json:"distance,omitempty"`
	// PhysError is the physical qubit error rate p; default 1e-4.
	PhysError float64 `json:"phys_error,omitempty"`
	// K is RESCQ's MST recomputation period in cycles; 0 selects the
	// engine's operating point, core.DefaultConfig().K.
	K int `json:"k,omitempty"`
	// TauMST is RESCQ's modeled MST computation latency in cycles; 0
	// selects core.DefaultConfig().TauMST.
	TauMST int `json:"tau_mst,omitempty"`
	// Compression removes ancillas down to the STAR compressed blocks:
	// 0 keeps all three ancillas per data qubit, 1 compresses every
	// block to a single ancilla (paper section 5.3).
	Compression float64 `json:"compression,omitempty"`
	// Runs is the number of independent seeded runs; default 3.
	Runs int `json:"runs,omitempty"`
	// Seed is the base random seed; run i uses Seed+i. Default 1.
	Seed int64 `json:"seed,omitempty"`
}

func (o Options) withDefaults() Options {
	if o.Scheduler == "" {
		o.Scheduler = RESCQ
	}
	if o.Distance == 0 {
		o.Distance = 7
	}
	if o.PhysError == 0 {
		o.PhysError = 1e-4
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Canonical returns the options in canonical form: defaults applied and
// equivalent spellings merged. Two Options values that produce
// byte-identical Summaries for the same circuit have equal canonical forms;
// in particular the default layout's explicit and implicit spellings agree,
// and the K/TauMST knobs of the RESCQ scheduler are zeroed for the static
// baselines, which ignore them. The rescqd daemon keys its result cache on
// this form via CacheKey.
func (o Options) Canonical() Options {
	o = o.withDefaults()
	// The default layout's explicit and implicit spellings share one
	// canonical form: the zero value, which keeps every pre-layout cache
	// key (and golden file) stable. An unset layout WITH params first
	// materializes the default name, so it cannot alias the plain default
	// key (the params would otherwise be dropped from the hash).
	if o.Layout == "" {
		o.Layout = lattice.DefaultLayout
	}
	if o.Layout == lattice.DefaultLayout && len(o.LayoutParams) == 0 {
		o.Layout = ""
	}
	if len(o.LayoutParams) == 0 {
		o.LayoutParams = nil
	}
	if o.Scheduler != RESCQ {
		o.K = 0
		o.TauMST = 0
	} else {
		// Materialize the engine-side defaults so the implicit and
		// explicit spellings of the paper's operating point (K=25,
		// TauMST=100) share one canonical form. Read from
		// core.DefaultConfig so a future change to the engine's operating
		// point cannot silently diverge from the cache keys.
		def := core.DefaultConfig()
		if o.K <= 0 {
			o.K = def.K
		}
		if o.TauMST < 0 {
			o.TauMST = 0
		} else if o.TauMST == 0 {
			o.TauMST = def.TauMST
		}
	}
	return o
}

// CacheKey returns a stable hex digest identifying the result of simulating
// the given circuit identity (a benchmark name or the full circuit text —
// callers must choose an unambiguous encoding, e.g. "bench:gcm_n13" vs
// "text:<sha>") under the canonical form of o. Equal keys guarantee equal
// Summaries, which is what makes memoizing simulation results sound.
func CacheKey(circuit string, o Options) string {
	c := o.Canonical()
	// The hash input is the bytes of
	//   "%d:%s\x00sched=%s d=%d p=%.17g k=%d tau=%d comp=%.17g runs=%d seed=%d"
	// built without fmt: AppendFloat(…, 'g', 17, 64) spells %.17g.
	var buf [192]byte
	b := strconv.AppendInt(buf[:0], int64(len(circuit)), 10)
	b = append(b, ':')
	b = append(b, circuit...)
	b = append(b, "\x00sched="...)
	b = append(b, c.Scheduler...)
	b = append(b, " d="...)
	b = strconv.AppendInt(b, int64(c.Distance), 10)
	b = append(b, " p="...)
	b = strconv.AppendFloat(b, c.PhysError, 'g', 17, 64)
	b = append(b, " k="...)
	b = strconv.AppendInt(b, int64(c.K), 10)
	b = append(b, " tau="...)
	b = strconv.AppendInt(b, int64(c.TauMST), 10)
	b = append(b, " comp="...)
	b = strconv.AppendFloat(b, c.Compression, 'g', 17, 64)
	b = append(b, " runs="...)
	b = strconv.AppendInt(b, int64(c.Runs), 10)
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, c.Seed, 10)
	// The layout component is appended only for non-default layouts, so
	// every key minted before layouts existed (canonical layout == "")
	// remains byte-identical.
	if c.Layout != "" {
		b = append(b, "\x00layout="...)
		b = append(b, c.Layout...)
		b = append(b, " params="...)
		b = append(b, lattice.Params(c.LayoutParams).Canonical()...)
	}
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	o = o.withDefaults()
	if !sched.Known(string(o.Scheduler)) {
		return fmt.Errorf("rescq: unknown scheduler %q (registered: %s)",
			o.Scheduler, strings.Join(sched.Names(), ", "))
	}
	if !lattice.Known(o.Layout) {
		return fmt.Errorf("rescq: unknown layout %q (registered: %s)",
			o.Layout, strings.Join(lattice.Layouts(), ", "))
	}
	if err := lattice.ValidateParams(o.Layout, lattice.Params(o.LayoutParams)); err != nil {
		return fmt.Errorf("rescq: %w", err)
	}
	if o.Distance < 3 || o.Distance%2 == 0 {
		return fmt.Errorf("rescq: distance %d must be odd and >= 3", o.Distance)
	}
	if o.PhysError <= 0 || o.PhysError >= 0.5 {
		return fmt.Errorf("rescq: physical error rate %v out of range", o.PhysError)
	}
	if o.Compression < 0 || o.Compression > 1 {
		return fmt.Errorf("rescq: compression %v out of [0,1]", o.Compression)
	}
	if o.Runs < 1 {
		return fmt.Errorf("rescq: runs must be positive")
	}
	if o.K < 0 || o.TauMST < 0 {
		return fmt.Errorf("rescq: k and tau_mst must be non-negative")
	}
	return nil
}

// Result reports one seeded simulation run.
type Result struct {
	Scheduler string `json:"scheduler"`
	Benchmark string `json:"benchmark"`
	Seed      int64  `json:"seed"`
	// TotalCycles is the program makespan in lattice-surgery cycles.
	TotalCycles int `json:"total_cycles"`
	// CNOTLatencies / RzLatencies give per-gate completion latency in
	// cycles from readiness to completion (Figure 5's quantity). They can
	// run to tens of thousands of entries per run; the rescqd daemon
	// strips them from responses unless the request asks for them.
	CNOTLatencies []int `json:"cnot_latencies,omitempty"`
	RzLatencies   []int `json:"rz_latencies,omitempty"`
	// MeanIdleFraction averages each data qubit's idle share.
	MeanIdleFraction float64 `json:"mean_idle_fraction"`
	PrepsStarted     int     `json:"preps_started"`
	InjectionsCount  int     `json:"injections_count"`
	EdgeRotations    int     `json:"edge_rotations"`
}

// Summary pools the runs of one configuration. Its JSON encoding is the
// rescqd daemon's result payload.
type Summary struct {
	Benchmark  string   `json:"benchmark"`
	Scheduler  string   `json:"scheduler"`
	Runs       []Result `json:"runs"`
	MeanCycles float64  `json:"mean_cycles"`
	MinCycles  int      `json:"min_cycles"`
	MaxCycles  int      `json:"max_cycles"`
	StdCycles  float64  `json:"std_cycles"`
	MeanIdle   float64  `json:"mean_idle"`
}

// BenchmarkInfo describes one Table 3 benchmark.
type BenchmarkInfo struct {
	Name      string `json:"name"`
	Suite     string `json:"suite"`
	Qubits    int    `json:"qubits"`
	PaperRz   int    `json:"paper_rz"`
	PaperCNOT int    `json:"paper_cnot"`
}

// Benchmarks lists the Table 3 suite in the paper's order.
func Benchmarks() []BenchmarkInfo {
	specs := qbench.All()
	out := make([]BenchmarkInfo, len(specs))
	for i, s := range specs {
		out[i] = BenchmarkInfo{Name: s.Name, Suite: s.Suite, Qubits: s.Qubits,
			PaperRz: s.PaperRz, PaperCNOT: s.PaperCNOT}
	}
	return out
}

// BenchmarkCircuitText returns the named benchmark circuit rendered in the
// artifact's text format (usable with RunCircuitText or external tools).
func BenchmarkCircuitText(name string) (string, error) {
	spec, ok := qbench.ByName(name)
	if !ok {
		return "", fmt.Errorf("rescq: unknown benchmark %q", name)
	}
	return circuit.Format(spec.Circuit()), nil
}

// Run simulates a named Table 3 benchmark under the given options.
func Run(benchmark string, opts Options) (Summary, error) {
	return RunContext(context.Background(), benchmark, opts)
}

// RunContext is Run with cooperative cancellation: every seeded run polls
// ctx inside the engine's cycle loop, so cancelling the context aborts a
// long simulation mid-run (the rescqd daemon uses this to honor job
// cancellation promptly instead of at configuration boundaries). The
// returned error wraps ctx.Err() when the run was aborted.
func RunContext(ctx context.Context, benchmark string, opts Options) (Summary, error) {
	dag, ok := qbench.DAG(benchmark)
	if !ok {
		return Summary{}, fmt.Errorf("rescq: unknown benchmark %q (see Benchmarks())", benchmark)
	}
	return runDAG(ctx, dag, opts)
}

// RunCircuitText simulates a circuit given in the artifact text format:
// the gate count on the first line, then one "<gate> <qubits> [angle]" per
// line (see internal/circuit for the accepted angle syntaxes).
func RunCircuitText(name, text string, opts Options) (Summary, error) {
	return RunCircuitTextContext(context.Background(), name, text, opts)
}

// RunCircuitTextContext is RunCircuitText with cooperative cancellation
// (see RunContext).
func RunCircuitTextContext(ctx context.Context, name, text string, opts Options) (Summary, error) {
	c, err := circuit.ParseString(name, text)
	if err != nil {
		return Summary{}, err
	}
	return runDAG(ctx, circuit.NewDAG(c), opts)
}

func runDAG(ctx context.Context, dag *circuit.DAG, opts Options) (Summary, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return Summary{}, err
	}
	// The layout build is deterministic in (n, params) and can be
	// expensive (compact's compression search, custom's spec parse), so
	// build it once; each seeded run mutates its own clone.
	grid, err := lattice.Build(opts.Layout, dag.Circuit().NumQubits, lattice.Params(opts.LayoutParams))
	if err != nil {
		return Summary{}, err
	}
	runs := sim.SeededRuns{
		Grid:        grid,
		DAG:         dag,
		Config:      sim.Config{Distance: opts.Distance, PhysError: opts.PhysError},
		Compression: opts.Compression,
		Seed:        opts.Seed,
		NewScheduler: func() (sim.Scheduler, error) {
			return sched.New(string(opts.Scheduler), sched.Params{K: opts.K, TauMST: opts.TauMST})
		},
	}
	sum := Summary{Benchmark: dag.Circuit().Name, Scheduler: string(opts.Scheduler)}
	results := make([]*sim.Result, opts.Runs)
	for i := range results {
		res, err := runs.Run(ctx, i)
		if err != nil {
			return Summary{}, err
		}
		results[i] = res
		sum.Runs = append(sum.Runs, Result{
			Scheduler:        res.Scheduler,
			Benchmark:        res.Benchmark,
			Seed:             res.Seed,
			TotalCycles:      res.TotalCycles,
			CNOTLatencies:    res.CNOTLatencies,
			RzLatencies:      res.RzLatencies,
			MeanIdleFraction: res.MeanIdleFraction,
			PrepsStarted:     res.PrepsStarted,
			InjectionsCount:  res.InjectionsStarted,
			EdgeRotations:    res.EdgeRotations,
		})
	}
	agg := sim.AggregateResults(results)
	sum.MeanCycles = agg.MeanCycles
	sum.MinCycles = agg.MinCycles
	sum.MaxCycles = agg.MaxCycles
	sum.StdCycles = agg.StdCycles
	sum.MeanIdle = agg.MeanIdle
	return sum, nil
}

// DefaultLayout is the layout used when Options.Layout is unset: the
// paper's STAR grid.
const DefaultLayout = lattice.DefaultLayout

// Schedulers lists the scheduler names, sorted: the paper's three,
// "autobraid", "greedy" and "rescq".
func Schedulers() []string { return sched.Names() }

// Layouts lists the lattice layout names, sorted: "compact", "custom",
// "linear" and "star" (the default).
func Layouts() []string { return lattice.Layouts() }

// LayoutInfo describes one layout for discovery surfaces (the
// daemon's capabilities endpoint, the CLIs).
type LayoutInfo struct {
	Name        string            `json:"name"`
	Description string            `json:"description"`
	Params      map[string]string `json:"params,omitempty"`
}

// LayoutCatalog returns the layouts with their descriptions and
// documented params, sorted by name.
func LayoutCatalog() []LayoutInfo {
	descs := lattice.Describe()
	out := make([]LayoutInfo, len(descs))
	for i, d := range descs {
		out[i] = LayoutInfo{Name: d.Name, Description: d.Description, Params: d.Params}
	}
	return out
}
