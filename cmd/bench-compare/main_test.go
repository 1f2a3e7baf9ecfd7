package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testBaseline = `{
  "benchmarks": {
    "BenchmarkSimulatorRESCQ": {"after": {"ns_per_op": 10000000}},
    "BenchmarkMSTCompute": {"after": {"ns_per_op": 2000000}},
    "BenchmarkLegacyNote": {"before": {"ns_per_op": 43457}}
  }
}`

func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(testBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func compare(t *testing.T, benchOutput string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run([]string{"-baseline", writeBaseline(t), "-tolerance", "0.25"},
		strings.NewReader(benchOutput), &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestWithinToleranceOK(t *testing.T) {
	code, stdout, stderr := compare(t, `goos: linux
BenchmarkSimulatorRESCQ-8   	     100	  11000000 ns/op	 5454538 B/op	   42971 allocs/op
BenchmarkMSTCompute-8       	     500	   2400000 ns/op
PASS
`)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if strings.Count(stdout, ": ok") != 2 {
		t.Errorf("want two ok verdicts:\n%s", stdout)
	}
}

func TestRegressionFails(t *testing.T) {
	code, stdout, stderr := compare(t, `
BenchmarkSimulatorRESCQ-8   	     100	  13000000 ns/op
BenchmarkMSTCompute-8       	     500	   2000000 ns/op
`)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "REGRESSED") || !strings.Contains(stderr, "regressed beyond 25%") {
		t.Errorf("missing regression report:\nstdout: %s\nstderr: %s", stdout, stderr)
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	code, _, stderr := compare(t, "BenchmarkSimulatorRESCQ-8 100 9000000 ns/op\n")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (BenchmarkMSTCompute missing)", code)
	}
	if !strings.Contains(stderr, "BenchmarkMSTCompute") {
		t.Errorf("stderr should name the missing benchmark: %s", stderr)
	}
}

func TestExtraAndLegacyEntriesIgnored(t *testing.T) {
	code, _, stderr := compare(t, `
BenchmarkSimulatorRESCQ-8   	     100	  9000000 ns/op
BenchmarkMSTCompute-8       	     500	  1900000 ns/op
BenchmarkUnrelated-8        	     1	  99999999999 ns/op
`)
	// BenchmarkUnrelated has no baseline; BenchmarkLegacyNote has no
	// "after" point. Neither may fail the run.
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

// TestNamedErrorClassification exercises compareBenchmarks directly: each
// degenerate case maps to its named sentinel instead of a zero-division
// or a NaN that compares as "ok".
func TestNamedErrorClassification(t *testing.T) {
	base := baselineFile{Benchmarks: map[string]baselineEntry{
		"BenchmarkHealthy":     {After: &baselinePoint{NsPerOp: 1000}},
		"BenchmarkMissing":     {After: &baselinePoint{NsPerOp: 1000}},
		"BenchmarkZeroPinned":  {After: &baselinePoint{NsPerOp: 0}},
		"BenchmarkNaNMeasured": {After: &baselinePoint{NsPerOp: 1000}},
		"BenchmarkLegacy":      {},
	}}
	current := map[string]float64{
		"BenchmarkHealthy":     1100,
		"BenchmarkNaNMeasured": math.NaN(),
	}
	lines, warnings, failures := compareBenchmarks(base, current, 0.25)
	if len(lines) != 1 || !strings.Contains(lines[0], "BenchmarkHealthy") || !strings.Contains(lines[0], ": ok") {
		t.Fatalf("report lines = %q", lines)
	}
	if len(warnings) != 1 || !errors.Is(warnings[0], ErrNoBaseline) || !strings.Contains(warnings[0].Error(), "BenchmarkZeroPinned") {
		t.Fatalf("warnings = %v, want one ErrNoBaseline for BenchmarkZeroPinned", warnings)
	}
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want 2", failures)
	}
	var missing, badMeasure bool
	for _, err := range failures {
		if errors.Is(err, ErrMissingBenchmark) && strings.Contains(err.Error(), "BenchmarkMissing") {
			missing = true
		}
		if errors.Is(err, ErrBadMeasurement) && strings.Contains(err.Error(), "BenchmarkNaNMeasured") {
			badMeasure = true
		}
	}
	if !missing || !badMeasure {
		t.Fatalf("failures = %v, want ErrMissingBenchmark + ErrBadMeasurement", failures)
	}
}

// TestNaNMeasurementFails: a NaN ns/op in the input must fail the run (it
// used to slide through every "got > limit" comparison as ok).
func TestNaNMeasurementFails(t *testing.T) {
	code, _, stderr := compare(t, `
BenchmarkSimulatorRESCQ-8   	     100	  NaN ns/op
BenchmarkMSTCompute-8       	     500	  1900000 ns/op
`)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (NaN measurement must fail)", code)
	}
	if !strings.Contains(stderr, "not a positive finite number") {
		t.Errorf("stderr should carry the named measurement error: %s", stderr)
	}
}

// TestZeroBaselineTolerated: a pinned-but-zero baseline point is a
// warning, not a crash or a divide-to-NaN verdict.
func TestZeroBaselineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(`{
	  "benchmarks": {"BenchmarkZero": {"after": {"ns_per_op": 0}}}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-baseline", path}, strings.NewReader("BenchmarkZero-8 1 100 ns/op\n"), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (zero baseline is tolerated); stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "warning") || !strings.Contains(errOut.String(), "BenchmarkZero") {
		t.Errorf("stderr should warn about the unusable baseline: %s", errOut.String())
	}
}

// TestAllocsRegressionFails: an entry pinning after.allocs_per_op fails
// when the measured allocs/op exceed it beyond the tolerance, even if
// ns/op is fine; within the tolerance it passes. Small pins get an
// absolute slack of allocSlack instead, so 0 -> 2 passes and 0 -> 3 fails.
func TestAllocsRegressionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(`{
	  "benchmarks": {
	    "BenchmarkSimulatorRESCQ": {"after": {"ns_per_op": 10000000, "allocs_per_op": 800}},
	    "BenchmarkPickNext": {"after": {"ns_per_op": 1000, "allocs_per_op": 0}}
	  }
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, input string
		code        int
		want        string
	}{
		{"within", "BenchmarkSimulatorRESCQ-8 100 9000000 ns/op 300000 B/op 990 allocs/op\nBenchmarkPickNext-8 1 900 ns/op 0 B/op 0 allocs/op\n", 0, ""},
		{"regressed", "BenchmarkSimulatorRESCQ-8 100 9000000 ns/op 3990000 B/op 35301 allocs/op\nBenchmarkPickNext-8 1 900 ns/op 0 B/op 0 allocs/op\n", 1, "35301 allocs/op vs baseline 800"},
		{"zero pin within slack", "BenchmarkSimulatorRESCQ-8 100 9000000 ns/op 300000 B/op 800 allocs/op\nBenchmarkPickNext-8 1 900 ns/op 48 B/op 2 allocs/op\n", 0, ""},
		{"zero pin beyond slack", "BenchmarkSimulatorRESCQ-8 100 9000000 ns/op 300000 B/op 800 allocs/op\nBenchmarkPickNext-8 1 900 ns/op 96 B/op 3 allocs/op\n", 1, "BenchmarkPickNext: 3 allocs/op vs baseline 0 (limit 2)"},
		{"not measured", "BenchmarkSimulatorRESCQ-8 100 9000000 ns/op\nBenchmarkPickNext-8 1 900 ns/op\n", 0, "-benchmem"},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		code := run([]string{"-baseline", path, "-tolerance", "0.25"}, strings.NewReader(tc.input), &out, &errOut)
		if code != tc.code || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%s: exit %d (want %d), stderr %q should contain %q", tc.name, code, tc.code, errOut.String(), tc.want)
		}
	}
}

func TestParseStripsGomaxprocsSuffix(t *testing.T) {
	got, _, err := parseBenchOutput(strings.NewReader(
		"BenchmarkSimulatorRESCQ-16 100 12345 ns/op\nBenchmarkX 1 7 ns/op\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkSimulatorRESCQ"] != 12345 {
		t.Errorf("suffix not stripped: %v", got)
	}
	if got["BenchmarkX"] != 7 {
		t.Errorf("unsuffixed name mishandled: %v", got)
	}
}

// TestEmitSnapshot: -emit writes the measured values in the baseline JSON
// shape, and does so even when the comparison itself fails, so CI can
// archive the measurements of a regressed run.
func TestEmitSnapshot(t *testing.T) {
	emitPath := filepath.Join(t.TempDir(), "BENCH_pr.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-baseline", writeBaseline(t), "-emit", emitPath},
		strings.NewReader(`
BenchmarkSimulatorRESCQ-8   	     100	  99000000 ns/op
BenchmarkMSTCompute-8       	     500	   2000000 ns/op
`), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (SimulatorRESCQ regressed)", code)
	}
	data, err := os.ReadFile(emitPath)
	if err != nil {
		t.Fatalf("emitted file: %v", err)
	}
	var snap baselineFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("emitted file does not parse as a baseline: %v\n%s", err, data)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("emitted %d benchmarks, want 2:\n%s", len(snap.Benchmarks), data)
	}
	got := snap.Benchmarks["BenchmarkSimulatorRESCQ"]
	if got.After == nil || got.After.NsPerOp != 99000000 {
		t.Fatalf("emitted SimulatorRESCQ = %+v", got)
	}
	if snap.Machine == "" {
		t.Error("emitted snapshot has no machine field")
	}
	// The emitted file round-trips as a -baseline input (promotion path).
	var out2, errOut2 bytes.Buffer
	code = run([]string{"-baseline", emitPath},
		strings.NewReader(`
BenchmarkSimulatorRESCQ-8   	     100	  99000000 ns/op
BenchmarkMSTCompute-8       	     500	   2000000 ns/op
`), &out2, &errOut2)
	if code != 0 {
		t.Fatalf("re-comparing against the emitted snapshot failed: %s", errOut2.String())
	}
}

// TestEmitUnwritablePathFails: an unwritable -emit path is a hard error,
// not a silently dropped artifact.
func TestEmitUnwritablePathFails(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-baseline", writeBaseline(t), "-emit", filepath.Join(t.TempDir(), "no", "such", "dir.json")},
		strings.NewReader("BenchmarkMSTCompute-8 500 2000000 ns/op\n"), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "emit") {
		t.Fatalf("stderr does not mention the emit failure: %s", errOut.String())
	}
}
