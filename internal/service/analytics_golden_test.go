package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/config"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the analytics WAL fixture, the query goldens and the /metrics exposition goldens under testdata/")

// The golden-query harness: a checked-in multi-axis WAL (testdata/
// analytics_wal.jsonl) is replayed into a fresh daemon, the analytics
// endpoints are queried over HTTP, and every response must match its
// golden byte for byte. The fixture spans two tenants, two benchmarks,
// three schedulers, two layouts, two compressions and an error result,
// so the goldens pin group-by merging, weighted quantiles, area/Pareto
// derivation, scheduler pairing across the k/tau_mst canonicalization,
// and the deterministic orderings all at once. Regenerate both with
// `go test ./internal/service -run TestAnalyticsGoldenQueries -update`.

// goldenQueries is the pinned query list; each entry becomes one golden
// file under testdata/golden/.
var goldenQueries = []struct{ name, url string }{
	{"groupby_scheduler", "/v1/analytics/groupby?by=scheduler"},
	{"groupby_bench_sched_default", "/v1/analytics/groupby?by=benchmark,scheduler&tenant=default"},
	{"groupby_tenant_compression", "/v1/analytics/groupby?by=tenant,compression"},
	{"pareto_gcm", "/v1/analytics/pareto?benchmark=gcm_n13"},
	{"pareto_gcm_rescq", "/v1/analytics/pareto?benchmark=gcm_n13&scheduler=rescq"},
	{"sensitivity_scheduler", "/v1/analytics/sensitivity?a=rescq&b=greedy"},
	{"sensitivity_compression", "/v1/analytics/sensitivity?axis=compression&a=0&b=0.5"},
}

const fixtureWAL = "testdata/analytics_wal.jsonl"

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", "analytics_"+name+".json")
}

// fixtureSummary builds a deterministic Summary whose per-run makespans
// are what analytics aggregates (the derived Mean/Min/Max mirror them).
func fixtureSummary(bench string, opts rescq.Options, cycles []int) *rescq.Summary {
	sum := &rescq.Summary{Benchmark: bench, Scheduler: string(opts.Scheduler), MinCycles: cycles[0], MaxCycles: cycles[0]}
	total := 0
	for i, cyc := range cycles {
		sum.Runs = append(sum.Runs, rescq.Result{
			Benchmark: bench, Scheduler: string(opts.Scheduler),
			Seed: opts.Seed + int64(i), TotalCycles: cyc,
		})
		total += cyc
		if cyc < sum.MinCycles {
			sum.MinCycles = cyc
		}
		if cyc > sum.MaxCycles {
			sum.MaxCycles = cyc
		}
	}
	sum.MeanCycles = float64(total) / float64(len(cycles))
	return sum
}

// fixtureRecords is the WAL content: two terminal sweep jobs (default
// tenant and "acme") whose results fan out over the sweep axes, plus one
// error result occupying an index without measurements.
func fixtureRecords() []any {
	created := time.Date(2026, 1, 15, 10, 0, 0, 0, time.UTC)
	var recs []any

	addJob := func(id, tenant string, specs []runSpec, results []ConfigResult) {
		specsJSON, err := json.Marshal(specs)
		if err != nil {
			panic(err)
		}
		recs = append(recs, store.JobRecord{
			Type: "job", ID: id, Kind: "sweep", Created: created, Specs: specsJSON, Tenant: tenant,
		})
		for i, res := range results {
			payload, err := json.Marshal(res)
			if err != nil {
				panic(err)
			}
			recs = append(recs, store.ResultRecord{
				Type: "result", JobID: id, Index: i, Key: specKey(specs[i]), Result: payload,
			})
		}
		recs = append(recs, store.DoneRecord{Type: "done", JobID: id, State: "done"})
	}

	// Job 1 (default tenant): gcm_n13/qft_n18 x rescq/greedy x
	// compression 0/0.5, two seeded runs each. Compression trades area
	// for latency (fewer tiles, more cycles), so each benchmark's Pareto
	// frontier keeps both compression points.
	var specs1 []runSpec
	var results1 []ConfigResult
	benchOff := map[string]int{"gcm_n13": 0, "qft_n18": 40}
	schedBase := map[string]int{"rescq": 100, "greedy": 150}
	for _, bench := range []string{"gcm_n13", "qft_n18"} {
		for _, sched := range []string{"rescq", "greedy"} {
			for _, comp := range []float64{0, 0.5} {
				opts := rescq.Options{
					Scheduler: rescq.SchedulerKind(sched), Compression: comp, Runs: 2,
				}.Canonical()
				spec := runSpec{Benchmark: bench, Opts: opts}
				base := schedBase[sched] + benchOff[bench] + int(comp*60)
				res := newConfigResult(spec)
				res.Index = len(results1)
				res.Options = &opts
				res.Summary = fixtureSummary(bench, opts, []int{base, base + 7})
				specs1 = append(specs1, spec)
				results1 = append(results1, res)
			}
		}
	}
	// One failed configuration: occupies a result index in the WAL, must
	// advance the analytics watermark without aggregating.
	errOpts := rescq.Options{Scheduler: "rescq", Distance: 9, Runs: 2}.Canonical()
	errSpec := runSpec{Benchmark: "gcm_n13", Opts: errOpts}
	errRes := newConfigResult(errSpec)
	errRes.Index = len(results1)
	errRes.Error = "engine: injected fixture failure"
	specs1 = append(specs1, errSpec)
	results1 = append(results1, errRes)
	addJob("job-000001", "", specs1, results1) // default tenant persists as ""

	// Job 2 (tenant acme): gcm_n13 x rescq/autobraid x star/linear, one
	// run each — a second tenant and a third scheduler for the group-by
	// and sensitivity goldens.
	var specs2 []runSpec
	var results2 []ConfigResult
	for _, sched := range []string{"rescq", "autobraid"} {
		for _, layout := range []string{"star", "linear"} {
			opts := rescq.Options{
				Scheduler: rescq.SchedulerKind(sched), Layout: layout, Runs: 1, Seed: 5,
			}.Canonical()
			spec := runSpec{Benchmark: "gcm_n13", Opts: opts}
			base := 110
			if sched == "autobraid" {
				base = 130
			}
			if layout == "linear" {
				base += 10
			}
			res := newConfigResult(spec)
			res.Index = len(results2)
			res.Options = &opts
			res.Summary = fixtureSummary("gcm_n13", opts, []int{base})
			specs2 = append(specs2, spec)
			results2 = append(results2, res)
		}
	}
	addJob("job-000002", "acme", specs2, results2)
	return recs
}

func writeFixtureWAL(t *testing.T) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range fixtureRecords() {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(fixtureWAL, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayFixture copies the checked-in WAL into a scratch store dir and
// boots a daemon over it (replay is the only ingest path here). The
// store lifecycle matches production: New, AttachStore, then Start.
func replayFixture(t *testing.T, cfg config.Daemon) *Server {
	t.Helper()
	raw, err := os.ReadFile(fixtureWAL)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.WALName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(cfg, newGatedRunner())
	attachDir(t, s, dir)
	s.Start()
	t.Cleanup(func() { shutdownServer(t, s) })
	return s
}

func attachDir(t *testing.T, s *Server, dir string) {
	t.Helper()
	if _, err := s.AttachStore(dir); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
}

func TestAnalyticsGoldenQueries(t *testing.T) {
	if *update {
		writeFixtureWAL(t)
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	s := replayFixture(t, config.Daemon{Workers: 1})

	st := s.Analytics().Stats()
	// 12 aggregated configurations; the error result only advances its
	// job's watermark.
	if st.Groups != 12 || st.Ingested != 12 || st.Skipped != 1 {
		t.Fatalf("replayed aggregate shape = %+v, want 12 groups / 12 ingested / 1 skipped", st)
	}

	h := s.Handler()
	for _, q := range goldenQueries {
		t.Run(q.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", q.url, nil))
			if rec.Code != 200 {
				t.Fatalf("GET %s = %d: %s", q.url, rec.Code, rec.Body.String())
			}
			got := rec.Body.Bytes()
			path := goldenPath(q.name)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("GET %s diverged from %s:\n got: %s\nwant: %s", q.url, path, got, want)
			}
		})
	}
}

// TestAnalyticsGoldenRestartIdentity re-opens the replayed store a second
// time — the first close wrote an analytics snapshot state record — and
// every golden query must come back byte-identical from the restored
// snapshot alone (zero re-folds).
func TestAnalyticsGoldenRestartIdentity(t *testing.T) {
	raw, err := os.ReadFile(fixtureWAL)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.WALName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	answers := func(s *Server) map[string]string {
		t.Helper()
		h := s.Handler()
		out := make(map[string]string, len(goldenQueries))
		for _, q := range goldenQueries {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", q.url, nil))
			if rec.Code != 200 {
				t.Fatalf("GET %s = %d: %s", q.url, rec.Code, rec.Body.String())
			}
			out[q.name] = rec.Body.String()
		}
		return out
	}

	a := New(config.Daemon{Workers: 1}, newGatedRunner())
	attachDir(t, a, dir)
	a.Start()
	first := answers(a)
	// Shutdown's closeStore snapshots the aggregates into the WAL.
	shutdownServer(t, a)

	b := New(config.Daemon{Workers: 1}, newGatedRunner())
	attachDir(t, b, dir)
	b.Start()
	defer shutdownServer(t, b)
	st := b.Analytics().Stats()
	if st.Ingested != 12 || st.IngestLag != 0 {
		t.Fatalf("restore after snapshot = %+v, want 12 ingested with zero lag", st)
	}
	if st.Deduped == 0 {
		t.Fatal("replaying the snapshotted WAL should have watermark-rejected the already-counted suffix")
	}
	for name, body := range answers(b) {
		if body != first[name] {
			t.Errorf("query %s diverged across restart:\n first: %s\nsecond: %s", name, first[name], body)
		}
	}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestAnalyticsEndpointErrors pins the handler-level error contract:
// unknown axes and missing parameters are 400s with a JSON error, and a
// daemon running with analytics disabled serves 404 on every endpoint
// (and omits them from /v1/capabilities).
func TestAnalyticsEndpointErrors(t *testing.T) {
	s, _ := newTestServer(t, config.Daemon{Workers: 1}, newGatedRunner())
	h := s.Handler()
	for _, url := range []string{
		"/v1/analytics/groupby",                                      // no axes
		"/v1/analytics/groupby?by=flavor",                            // unknown axis
		"/v1/analytics/groupby?by=scheduler&flavor=x",                // unknown filter axis
		"/v1/analytics/pareto",                                       // no benchmark
		"/v1/analytics/sensitivity?a=rescq",                          // missing b
		"/v1/analytics/sensitivity?axis=k&a=3&b=3",                   // equal values
		"/v1/analytics/sensitivity?a=rescq&b=greedy&scheduler=rescq", // filter on swept axis
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 400 {
			t.Errorf("GET %s = %d, want 400 (body %s)", url, rec.Code, rec.Body.String())
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: non-JSON error body %s", url, rec.Body.String())
		}
	}

	off := false
	d, _ := newTestServer(t, config.Daemon{Workers: 1, Analytics: &off}, newGatedRunner())
	if d.Analytics() != nil {
		t.Fatal("analytics constructed despite analytics=false")
	}
	dh := d.Handler()
	for _, url := range []string{"/v1/analytics/groupby?by=scheduler", "/v1/analytics/pareto?benchmark=gcm_n13", "/v1/analytics/sensitivity?a=rescq&b=greedy"} {
		rec := httptest.NewRecorder()
		dh.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 404 {
			t.Errorf("disabled daemon: GET %s = %d, want 404", url, rec.Code)
		}
	}
}
