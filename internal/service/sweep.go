package service

import (
	"fmt"
	"slices"
	"sync"

	rescq "repro"
	"repro/internal/circuit"
)

// SweepRequest is the POST /v1/sweep payload: the cross product of every
// non-empty axis, simulated per configuration. Empty axes use the engine
// default for that knob (scheduler axis defaults to all three evaluated
// schedulers, mirroring the paper's comparative sweeps).
type SweepRequest struct {
	Benchmarks []string `json:"benchmarks"`
	Schedulers []string `json:"schedulers,omitempty"`
	// Layouts sweeps the lattice topology (an empty axis uses the
	// daemon's default layout); LayoutParams optionally maps a swept
	// layout name to that layout's params, e.g.
	// {"compact": {"fraction": "0.5"}}, so a mixed-layout sweep can
	// parameterize only the layouts that take knobs. See GET
	// /v1/capabilities for the registered names and their params.
	Layouts      []string                     `json:"layouts,omitempty"`
	LayoutParams map[string]map[string]string `json:"layout_params,omitempty"`
	Distances    []int                        `json:"distances,omitempty"`
	PhysErrors   []float64                    `json:"phys_errors,omitempty"`
	KValues      []int                        `json:"k_values,omitempty"`
	Compressions []float64                    `json:"compressions,omitempty"`
	// Runs/Seed apply to every configuration.
	Runs int   `json:"runs,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Async returns a job id immediately; Stream ("sse" or "ndjson")
	// streams per-configuration results as they complete. Neither set:
	// the request blocks and returns the whole job.
	Async  bool   `json:"async,omitempty"`
	Stream string `json:"stream,omitempty"`
	// Tenant names the submitting tenant for scheduling and quotas; it
	// overrides the X-Rescq-Tenant header. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// Streaming modes for SweepRequest.Stream.
const (
	StreamSSE    = "sse"
	StreamNDJSON = "ndjson"
)

// maxSweepConfigs bounds a single sweep submission; wider grids must be
// split across requests so one job cannot monopolize the queue accounting.
const maxSweepConfigs = 4096

var benchNames = sync.OnceValue(func() map[string]bool {
	set := make(map[string]bool)
	for _, b := range rescq.Benchmarks() {
		set[b.Name] = true
	}
	return set
})

var experimentIDs = sync.OnceValue(func() map[string]bool {
	set := make(map[string]bool)
	for _, id := range rescq.ExperimentIDs {
		set[id] = true
	}
	return set
})

// validateRun turns a RunRequest into a validated runSpec or a 400-worthy
// error.
func (s *Server) validateRun(req RunRequest) (runSpec, error) {
	nSources := 0
	for _, set := range []bool{req.Benchmark != "", req.CircuitText != "", req.Experiment != ""} {
		if set {
			nSources++
		}
	}
	if nSources != 1 {
		return runSpec{}, fmt.Errorf("service: exactly one of benchmark, circuit_text or experiment must be set")
	}
	spec := runSpec{
		Benchmark:     req.Benchmark,
		Name:          req.Name,
		CircuitText:   req.CircuitText,
		Experiment:    req.Experiment,
		Quick:         req.Quick,
		Opts:          req.Options,
		KeepLatencies: req.IncludeLatencies,
	}
	if spec.Opts.Layout == "" {
		spec.Opts.Layout = s.cfg.Layout
	}
	switch {
	case req.Experiment != "":
		if !experimentIDs()[req.Experiment] {
			return runSpec{}, fmt.Errorf("service: unknown experiment %q", req.Experiment)
		}
	case req.Benchmark != "":
		if !benchNames()[req.Benchmark] {
			return runSpec{}, fmt.Errorf("service: unknown benchmark %q", req.Benchmark)
		}
		if err := spec.Opts.Validate(); err != nil {
			return runSpec{}, err
		}
	default:
		if spec.Name == "" {
			spec.Name = "circuit"
		}
		// Reject malformed circuits at submission time so the client gets
		// a 400 with the parse error, not a failed job.
		if _, err := circuit.ParseString(spec.Name, spec.CircuitText); err != nil {
			return runSpec{}, err
		}
		if err := spec.Opts.Validate(); err != nil {
			return runSpec{}, err
		}
	}
	return spec, nil
}

// expandSweep turns a SweepRequest into the validated cross product of its
// axes, in deterministic benchmark-major order.
func (s *Server) expandSweep(req SweepRequest) ([]runSpec, error) {
	switch req.Stream {
	case "", StreamSSE, StreamNDJSON:
	default:
		return nil, fmt.Errorf("service: unknown stream mode %q (want %q or %q)", req.Stream, StreamSSE, StreamNDJSON)
	}
	if len(req.Benchmarks) == 0 {
		return nil, fmt.Errorf("service: sweep needs at least one benchmark")
	}
	for _, b := range req.Benchmarks {
		if !benchNames()[b] {
			return nil, fmt.Errorf("service: unknown benchmark %q", b)
		}
	}
	schedulers := req.Schedulers
	if len(schedulers) == 0 {
		schedulers = []string{string(rescq.Greedy), string(rescq.AutoBraid), string(rescq.RESCQ)}
	}
	layouts := req.Layouts
	if len(layouts) == 0 {
		layouts = []string{s.cfg.Layout}
	}
	for name := range req.LayoutParams {
		if !slices.Contains(layouts, name) {
			return nil, fmt.Errorf("service: layout_params for %q, which is not in the layouts axis %v", name, layouts)
		}
	}
	distances := orDefault(req.Distances)
	physErrors := orDefault(req.PhysErrors)
	kValues := orDefault(req.KValues)
	compressions := orDefault(req.Compressions)

	total := len(req.Benchmarks) * len(schedulers) * len(layouts) * len(distances) *
		len(physErrors) * len(kValues) * len(compressions)
	if total > maxSweepConfigs {
		return nil, fmt.Errorf("service: sweep expands to %d configurations (max %d)", total, maxSweepConfigs)
	}

	// Dedupe by canonical cache key: repeated axis values (distances of
	// [5, 5]), axis values that canonicalize identically (k of 0 and 25),
	// or layouts whose params collapse to the same key would otherwise
	// compute identical work twice inside one sweep. First occurrence
	// wins, preserving benchmark-major order.
	specs := make([]runSpec, 0, total)
	seen := make(map[string]bool, total)
	for _, bench := range req.Benchmarks {
		for _, sched := range schedulers {
			for _, layout := range layouts {
				for _, d := range distances {
					for _, p := range physErrors {
						for _, k := range kValues {
							for _, comp := range compressions {
								opts := rescq.Options{
									Scheduler:    rescq.SchedulerKind(sched),
									Layout:       layout,
									LayoutParams: req.LayoutParams[layout],
									Distance:     d,
									PhysError:    p,
									K:            k,
									Compression:  comp,
									Runs:         req.Runs,
									Seed:         req.Seed,
								}
								if err := opts.Validate(); err != nil {
									return nil, fmt.Errorf("service: %s/%s layout=%s d=%d p=%g k=%d c=%g: %w",
										bench, sched, layout, d, p, k, comp, err)
								}
								spec := runSpec{Benchmark: bench, Opts: opts}
								if key := specKey(spec); !seen[key] {
									seen[key] = true
									specs = append(specs, spec)
								}
							}
						}
					}
				}
			}
		}
	}
	return specs, nil
}

// orDefault substitutes the single zero value (-> engine default) for an
// empty sweep axis.
func orDefault[T any](axis []T) []T {
	if len(axis) == 0 {
		return make([]T, 1)
	}
	return axis
}
