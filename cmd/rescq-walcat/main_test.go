package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/resultcodec"
	"repro/internal/store"
)

// TestWalcatPrintsSnapshotAndLog: a compacted store's snapshot and log
// delta print as one JSON record per line, in file order, with JSON and
// typed result payloads alike printed as JSON.
func TestWalcatPrintsSnapshotAndLog(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendJob(store.JobRecord{ID: "job-000001", Kind: "run", Created: time.Unix(1700000000, 0).UTC(),
		Specs: json.RawMessage(`[{"benchmark":"gcm_n13"}]`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResult(store.ResultRecord{JobID: "job-000001", Index: 0, Key: "k0",
		Result: json.RawMessage(`{"total_cycles":42}`)}); err != nil {
		t.Fatal(err)
	}
	// What the daemon writes: a typed payload, printed as its JSON.
	res := resultcodec.ConfigResult{Index: 1, Benchmark: "gcm_n13", Options: &rescq.Options{Distance: 7},
		Summary: &rescq.Summary{Benchmark: "gcm_n13", Runs: []rescq.Result{{Seed: 1, TotalCycles: 42}}, MeanCycles: 42.5}}
	typed, err := resultcodec.Append(nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResult(store.ResultRecord{JobID: "job-000001", Index: 1, Key: "k1", Result: typed}); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{filepath.Join(dir, store.SnapName), filepath.Join(dir, store.WALName)}, &stdout, &stderr)
	s.Close()
	if code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	want := `{"type":"job","id":"job-000001","kind":"run","created":"2023-11-14T22:13:20Z","specs":[{"benchmark":"gcm_n13"}]}
{"type":"result","job":"job-000001","index":0,"key":"k0","result":{"total_cycles":42}}
{"type":"result","job":"job-000001","index":1,"key":"k1","result":{"index":1,"benchmark":"gcm_n13","options":{"distance":7},"cached":false,"summary":{"benchmark":"gcm_n13","scheduler":"","runs":[{"scheduler":"","benchmark":"","seed":1,"total_cycles":42,"mean_idle_fraction":0,"preps_started":0,"injections_count":0,"edge_rotations":0}],"mean_cycles":42.5,"min_cycles":0,"max_cycles":0,"std_cycles":0,"mean_idle":0}}}
`
	if stdout.String() != want {
		t.Fatalf("output:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

func TestWalcatErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no arguments: exit %d, want 2", code)
	}
	torn := filepath.Join(t.TempDir(), "wal.jsonl")
	if err := os.WriteFile(torn, []byte(`{"type":"done","job":"j","state":"done"}`+"\n"+`{"type":"res`), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	code := run([]string{torn, filepath.Join(t.TempDir(), "missing")}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "torn") || !strings.Contains(stderr.String(), "missing") {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), `{"type":"done"`) {
		t.Fatalf("records before the torn tail not printed: %q", stdout.String())
	}
}
