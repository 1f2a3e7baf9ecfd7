// Command bench-compare guards the headline benchmarks against silent
// regressions: it parses `go test -bench` output from stdin, compares each
// benchmark's ns/op against the "after" snapshot in BENCH_baseline.json,
// and exits non-zero when any benchmark regressed beyond the tolerance.
// Entries whose "after" point pins allocs_per_op are also gated on the
// measured allocs/op (run with -benchmem), with the same tolerance and an
// absolute slack of two allocations for small pins: allocation counts do
// not depend on runner speed, so that gate is exact where the timing one
// is coarse. CI pipes the benchmark run straight into
// it:
//
//	go test -run '^$' -bench 'BenchmarkSimulatorRESCQ|BenchmarkFigure13MSTFrequency|BenchmarkMSTCompute' \
//	    -benchtime 3x -benchmem . | bench-compare -baseline BENCH_baseline.json -tolerance 0.25
//
// Benchmarks present in the baseline but absent from the input are
// reported with the named ErrMissingBenchmark and fail the run (a deleted
// benchmark must be removed from the baseline deliberately); input
// benchmarks without a baseline entry are ignored; a baseline entry whose
// after.ns_per_op is zero/NaN is tolerated with an ErrNoBaseline warning
// instead of dividing to NaN, and a NaN/non-positive measurement fails
// with ErrBadMeasurement instead of silently comparing as "ok". The
// default tolerance of 0.25 absorbs shared-runner noise while still
// catching the step-function regressions that matter.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Named comparison errors, so callers (and CI logs) can tell the failure
// modes apart instead of tripping over a zero-division or a NaN that
// compares as "ok".
var (
	// ErrMissingBenchmark: the baseline pins a benchmark the input never
	// measured — a deleted benchmark must be removed from the baseline
	// deliberately, so this fails the run.
	ErrMissingBenchmark = errors.New("in baseline but not in benchmark output")
	// ErrNoBaseline: the entry has an "after" point without a usable
	// (positive, finite) ns_per_op, which would otherwise divide to
	// +Inf/NaN. Tolerated with a warning: the entry cannot gate anything.
	ErrNoBaseline = errors.New("baseline after.ns_per_op is not a positive finite number")
	// ErrBadMeasurement: the input's ns/op is NaN/Inf/non-positive. A NaN
	// silently passes every "got > limit" comparison, so this fails the
	// run instead.
	ErrBadMeasurement = errors.New("measured ns/op is not a positive finite number")
)

func usable(v float64) bool {
	return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// baselineFile mirrors the shape of BENCH_baseline.json.
type baselineFile struct {
	Description string                   `json:"description"`
	Machine     string                   `json:"machine"`
	Benchmarks  map[string]baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	After *baselinePoint `json:"after"`
}

type baselinePoint struct {
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp, when present, pins allocs/op as well (0 is a valid pin).
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath = fs.String("baseline", "BENCH_baseline.json", "baseline snapshot file")
		tolerance    = fs.Float64("tolerance", 0.25, "allowed fractional ns/op regression vs the baseline 'after' values")
		emitPath     = fs.String("emit", "", "write the measured ns/op values to this file in the baseline JSON shape (e.g. BENCH_pr.json for a CI artifact); written even when the comparison fails")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench-compare:", err)
		return 1
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fail(err)
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fail(fmt.Errorf("parse %s: %w", *baselinePath, err))
	}

	current, allocs, err := parseBenchOutput(stdin, stdout)
	if err != nil {
		return fail(err)
	}

	// Emit before comparing: a regressed run is exactly the one whose
	// measurements are worth keeping as an artifact.
	if *emitPath != "" {
		if err := emitSnapshot(*emitPath, current, allocs); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "bench-compare: wrote %d measurement(s) to %s\n", len(current), *emitPath)
	}

	lines, warnings, failures := compareBenchmarks(base, current, *tolerance)
	allocLines, allocWarnings, allocFailures := compareAllocs(base, allocs, *tolerance)
	lines = append(lines, allocLines...)
	warnings = append(warnings, allocWarnings...)
	failures = append(failures, allocFailures...)
	for _, line := range lines {
		fmt.Fprintln(stdout, line)
	}
	for _, warn := range warnings {
		fmt.Fprintln(stderr, "bench-compare: warning:", warn)
	}
	for _, err := range failures {
		fmt.Fprintln(stderr, "bench-compare:", err)
	}
	if len(failures) > 0 {
		// Don't blame every failure on performance: missing benchmarks
		// and unusable measurements are comparison failures, not
		// regressions.
		regressed := 0
		for _, err := range failures {
			if !errors.Is(err, ErrMissingBenchmark) && !errors.Is(err, ErrBadMeasurement) {
				regressed++
			}
		}
		switch {
		case regressed == len(failures):
			fmt.Fprintf(stderr, "bench-compare: %d benchmark(s) regressed beyond %.0f%%\n", regressed, *tolerance*100)
		case regressed == 0:
			fmt.Fprintf(stderr, "bench-compare: %d comparison(s) failed (missing or invalid measurements)\n", len(failures))
		default:
			fmt.Fprintf(stderr, "bench-compare: %d benchmark(s) regressed beyond %.0f%%, %d comparison(s) failed\n",
				regressed, *tolerance*100, len(failures)-regressed)
		}
		return 1
	}
	return 0
}

// emitSnapshot writes the measured ns/op (and, where measured, allocs/op)
// values in the BENCH_baseline.json shape, so a run's measurements can be
// archived per change (and even promoted to a new baseline verbatim).
func emitSnapshot(path string, current, allocs map[string]float64) error {
	out := baselineFile{
		Description: "bench-compare measurement snapshot (ns/op as baseline 'after' points)",
		Machine:     fmt.Sprintf("%s/%s", runtime.GOOS, runtime.GOARCH),
		Benchmarks:  make(map[string]baselineEntry, len(current)),
	}
	for name, ns := range current {
		pt := &baselinePoint{NsPerOp: ns}
		if a, ok := allocs[name]; ok {
			pt.AllocsPerOp = &a
		}
		out.Benchmarks[name] = baselineEntry{After: pt}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("emit %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("emit: %w", err)
	}
	return nil
}

// compareBenchmarks checks every pinned baseline entry against the
// measured values. It returns the per-benchmark report lines, tolerated
// anomalies (wrapping ErrNoBaseline) and failures (regressions, plus
// ErrMissingBenchmark / ErrBadMeasurement wrapped with the benchmark
// name), keeping the division out of every degenerate case that used to
// produce a silent NaN or +Inf comparison.
func compareBenchmarks(base baselineFile, current map[string]float64, tolerance float64) (lines []string, warnings, failures []error) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		entry := base.Benchmarks[name]
		if entry.After == nil {
			continue // informational baseline entries without a pinned after-value
		}
		if !usable(entry.After.NsPerOp) {
			warnings = append(warnings, fmt.Errorf("%s: %w (%g)", name, ErrNoBaseline, entry.After.NsPerOp))
			continue
		}
		got, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Errorf("%s: %w", name, ErrMissingBenchmark))
			continue
		}
		if !usable(got) {
			failures = append(failures, fmt.Errorf("%s: %w (%g)", name, ErrBadMeasurement, got))
			continue
		}
		limit := entry.After.NsPerOp * (1 + tolerance)
		ratio := got / entry.After.NsPerOp
		verdict := "ok"
		if got > limit {
			verdict = "REGRESSED"
			failures = append(failures, fmt.Errorf("%s: regressed %.2fx vs baseline (limit %.2fx)", name, ratio, 1+tolerance))
		}
		lines = append(lines, fmt.Sprintf("bench-compare: %-32s %12.0f ns/op vs baseline %12.0f (%.2fx, limit %.2fx): %s",
			name, got, entry.After.NsPerOp, ratio, 1+tolerance, verdict))
	}
	return lines, warnings, failures
}

// allocSlack is the absolute allocs/op headroom every allocation pin
// gets on top of the tolerance. For small pins a fractional tolerance is
// less than one allocation, so a one-off buffer growth or runtime change
// would fail the gate with no real regression.
const allocSlack = 2

// compareAllocs gates every baseline entry that pins after.allocs_per_op
// on the measured allocs/op: the limit is the larger of the pin times
// (1+tolerance) and the pin plus allocSlack. A pinned benchmark measured
// without allocation counts (no -benchmem) is a warning; a missing
// benchmark is already reported by compareBenchmarks.
func compareAllocs(base baselineFile, allocs map[string]float64, tolerance float64) (lines []string, warnings, failures []error) {
	names := make([]string, 0, len(base.Benchmarks))
	for name, entry := range base.Benchmarks {
		if entry.After != nil && entry.After.AllocsPerOp != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		want := *base.Benchmarks[name].After.AllocsPerOp
		got, ok := allocs[name]
		if !ok {
			warnings = append(warnings, fmt.Errorf("%s: allocs/op pinned but not measured (run with -benchmem)", name))
			continue
		}
		limit := max(want*(1+tolerance), want+allocSlack)
		verdict := "ok"
		if got > limit {
			verdict = "REGRESSED"
			failures = append(failures, fmt.Errorf("%s: %.0f allocs/op vs baseline %.0f (limit %.0f)", name, got, want, limit))
		}
		lines = append(lines, fmt.Sprintf("bench-compare: %-32s %12.0f allocs/op vs baseline %9.0f (limit %.0f): %s",
			name, got, want, limit, verdict))
	}
	return lines, warnings, failures
}

// parseBenchOutput extracts "BenchmarkName ... <ns> ns/op" measurements,
// and "<n> allocs/op" where present, from go test -bench output, echoing
// every line so the measurements stay visible in CI logs. The trailing
// "-8" GOMAXPROCS suffix is stripped. Repeated runs of one benchmark keep
// the last measurement.
func parseBenchOutput(r io.Reader, echo io.Writer) (ns, allocs map[string]float64, err error) {
	ns, allocs = make(map[string]float64), make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-8  <iters>  <value> ns/op  [more unit pairs...]
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			var dst map[string]float64
			switch fields[i+1] {
			case "ns/op":
				dst = ns
			case "allocs/op":
				dst = allocs
			default:
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad %s value in %q: %w", fields[i+1], line, err)
			}
			dst[name] = v
		}
	}
	return ns, allocs, sc.Err()
}
