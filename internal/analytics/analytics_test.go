package analytics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mkSample builds a sample for one configuration. Non-RESCQ schedulers
// carry zeroed k/tau_mst, mirroring Options canonicalization.
func mkSample(tenant, bench, sched, layout string, distance int, compression float64, seed int64, cycles ...int) *Sample {
	k, tau := 0, 0
	if sched == "rescq" {
		k, tau = 3, 10
	}
	return &Sample{
		Axes: Axes{
			Tenant:      tenant,
			Benchmark:   bench,
			Scheduler:   sched,
			Layout:      layout,
			Distance:    distance,
			PhysError:   1e-4,
			K:           k,
			TauMST:      tau,
			Compression: compression,
			Runs:        len(cycles),
			Seed:        seed,
		},
		Cycles: cycles,
	}
}

// sweepSamples generates a deterministic multi-axis sweep: per job, a
// sequence of indexed results. Returned as job -> ordered samples.
func sweepSamples() map[string][]*Sample {
	rng := rand.New(rand.NewSource(42))
	jobs := make(map[string][]*Sample)
	tenants := []string{"default", "acme"}
	benches := []string{"gcm_n13", "qft_n18", "custom-circuit"}
	scheds := []string{"rescq", "greedy", "autobraid"}
	layouts := []string{"star", "linear"}
	compressions := []float64{0, 0.5}
	for ji, tenant := range tenants {
		job := fmt.Sprintf("job-%d", ji)
		for _, bench := range benches {
			for _, sched := range scheds {
				for _, layout := range layouts {
					for _, comp := range compressions {
						base := 1000 + rng.Intn(9000)
						cycles := []int{base, base + rng.Intn(100), base + rng.Intn(100)}
						jobs[job] = append(jobs[job],
							mkSample(tenant, bench, sched, layout, 7, comp, 1, cycles...))
					}
				}
			}
		}
		// An error result: occupies an index, aggregates nothing.
		jobs[job] = append(jobs[job], nil)
	}
	return jobs
}

func ingestAll(t *testing.T, st *Store, jobs map[string][]*Sample, order []string) {
	t.Helper()
	next := make(map[string]int)
	for _, job := range order {
		i := next[job]
		st.Ingest(job, i, jobs[job][i])
		next[job] = i + 1
	}
}

// interleavings returns job-id sequences that respect per-job index order
// but interleave jobs differently.
func interleavings(jobs map[string][]*Sample, seed int64) []string {
	var order []string
	remaining := make(map[string]int)
	var ids []string
	for job, ss := range jobs {
		remaining[job] = len(ss)
		ids = append(ids, job)
	}
	rng := rand.New(rand.NewSource(seed))
	for len(remaining) > 0 {
		job := ids[rng.Intn(len(ids))]
		if remaining[job] == 0 {
			continue
		}
		order = append(order, job)
		if remaining[job]--; remaining[job] == 0 {
			delete(remaining, job)
		}
	}
	return order
}

func queryFingerprint(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	add := func(v any, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if err := enc.Encode(v); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	add(st.GroupBy([]string{"scheduler", "benchmark"}, nil))
	add(st.GroupBy([]string{"layout"}, map[string]string{"tenant": "acme"}))
	add(st.GroupBy([]string{"compression"}, map[string]string{"benchmark": "gcm_n13"}))
	add(st.Pareto("gcm_n13", nil))
	add(st.Pareto("qft_n18", map[string]string{"scheduler": "rescq"}))
	add(st.Sensitivity("scheduler", "rescq", "greedy", nil))
	add(st.Sensitivity("compression", "0", "0.5", map[string]string{"layout": "star"}))
	return buf.Bytes()
}

// TestIncrementalMatchesRecompute is the equivalence gate: the
// incrementally maintained aggregates must match a from-scratch
// recompute exactly, for any ingest interleaving, including one that
// snapshots and restores midway.
func TestIncrementalMatchesRecompute(t *testing.T) {
	jobs := sweepSamples()

	// Reference: naive per-cell recompute with independent bookkeeping.
	type naive struct {
		results, runs, cycles, minC, maxC int64
	}
	expect := make(map[string]*naive)
	for _, ss := range jobs {
		for _, sm := range ss {
			if sm == nil {
				continue
			}
			a := sm.Axes
			a.LayoutParams = sm.Params.Canonical()
			n := expect[a.key()]
			if n == nil {
				n = &naive{minC: math.MaxInt64}
				expect[a.key()] = n
			}
			n.results++
			for _, c := range sm.Cycles {
				n.runs++
				n.cycles += int64(c)
				if int64(c) < n.minC {
					n.minC = int64(c)
				}
				if int64(c) > n.maxC {
					n.maxC = int64(c)
				}
			}
		}
	}

	base := New(0)
	ingestAll(t, base, jobs, interleavings(jobs, 1))

	// Per-cell equality against the naive recompute: group by all axes so
	// each group is exactly one cell.
	resp, err := base.GroupBy(axisNames, nil)
	if err != nil {
		t.Fatalf("groupby all axes: %v", err)
	}
	if len(resp.Groups) != len(expect) {
		t.Fatalf("cells = %d, naive recompute has %d", len(resp.Groups), len(expect))
	}
	for _, g := range resp.Groups {
		vals := make([]string, 0, len(axisNames))
		for _, name := range axisNames {
			vals = append(vals, g.Key[name])
		}
		n := expect[joinKey(vals)]
		if n == nil {
			t.Fatalf("unexpected group %v", g.Key)
		}
		if g.Results != n.results || g.Runs != n.runs || g.MinCycles != n.minC || g.MaxCycles != n.maxC {
			t.Fatalf("group %v = {results %d runs %d min %d max %d}, naive {%d %d %d %d}",
				g.Key, g.Results, g.Runs, g.MinCycles, g.MaxCycles, n.results, n.runs, n.minC, n.maxC)
		}
		if want := float64(n.cycles) / float64(n.runs); g.MeanCycles != want {
			t.Fatalf("group %v mean = %v, naive %v", g.Key, g.MeanCycles, want)
		}
	}

	want := queryFingerprint(t, base)
	for seed := int64(2); seed < 6; seed++ {
		st := New(0)
		ingestAll(t, st, jobs, interleavings(jobs, seed))
		if got := queryFingerprint(t, st); !bytes.Equal(got, want) {
			t.Fatalf("interleaving %d: query answers differ from base ingest order", seed)
		}
	}

	// Snapshot midway, restore into a fresh store, finish the ingest:
	// answers must still be identical (the kill-restart path in miniature).
	order := interleavings(jobs, 7)
	half := len(order) / 2
	st := New(0)
	ingestAll(t, st, jobs, order[:half])
	snap := st.Snapshot(nil)
	st2 := New(0)
	if err := st2.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Replay the first half again (all rejected by watermarks), then the rest.
	ingestAll(t, st2, jobs, order)
	if got := queryFingerprint(t, st2); !bytes.Equal(got, want) {
		t.Fatalf("snapshot/restore midway: query answers differ")
	}
	if st2.Stats().Deduped != int64(half) {
		t.Fatalf("deduped = %d, want %d (the replayed first half)", st2.Stats().Deduped, half)
	}
}

func joinKey(vals []string) string {
	out := ""
	for i, v := range vals {
		if i > 0 {
			out += "\x1f"
		}
		out += v
	}
	return out
}

// TestQueriesBesideIngest runs every query kind in a loop while another
// goroutine ingests many rounds of a sweep (run it under -race: queries
// work on copies of the cells once they release the lock), then checks
// the final answers match a store that saw no concurrent queries.
func TestQueriesBesideIngest(t *testing.T) {
	jobs := sweepSamples()
	order := interleavings(jobs, 7)
	ingest := func(st *Store) {
		for round := 0; round < 200; round++ {
			next := make(map[string]int)
			for _, job := range order {
				i := next[job]
				st.Ingest(fmt.Sprintf("%s-r%d", job, round), i, jobs[job][i])
				next[job] = i + 1
			}
		}
	}
	want := New(0)
	ingest(want)

	st := New(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ingest(st)
	}()
	queries := 0
	for running := true; running; queries++ {
		select {
		case <-done:
			running = false
		default:
		}
		queryFingerprint(t, st)
	}
	if got, exp := queryFingerprint(t, st), queryFingerprint(t, want); !bytes.Equal(got, exp) {
		t.Fatalf("queries beside ingest diverged:\n got %s\nwant %s", got, exp)
	}
	t.Logf("%d query rounds ran beside ingest", queries)
}

func TestWatermarkRejectsReplaysAndGaps(t *testing.T) {
	st := New(0)
	sm := mkSample("default", "gcm_n13", "rescq", "star", 7, 0, 1, 100)
	if !st.Ingest("j1", 0, sm) {
		t.Fatal("first ingest rejected")
	}
	if st.Ingest("j1", 0, sm) {
		t.Fatal("replayed index accepted")
	}
	if st.Ingest("j1", 2, sm) {
		t.Fatal("gapped index accepted")
	}
	if !st.Ingest("j1", 1, sm) {
		t.Fatal("next index rejected")
	}
	stats := st.Stats()
	if stats.Ingested != 2 || stats.Deduped != 2 {
		t.Fatalf("stats = %+v, want 2 ingested / 2 deduped", stats)
	}
	if stats.Groups != 1 {
		t.Fatalf("groups = %d, want 1 (same configuration)", stats.Groups)
	}
}

func TestNilSampleAdvancesWatermark(t *testing.T) {
	st := New(0)
	if st.Ingest("j1", 0, nil) {
		t.Fatal("nil sample reported as folded")
	}
	if !st.Ingest("j1", 1, mkSample("default", "gcm_n13", "rescq", "star", 7, 0, 1, 100)) {
		t.Fatal("index after nil sample rejected: watermark did not advance")
	}
	if st.Stats().Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", st.Stats().Skipped)
	}
}

func TestCardinalityCap(t *testing.T) {
	st := New(2)
	for i, bench := range []string{"gcm_n13", "qft_n18", "dnn_n16"} {
		st.Ingest("j", i, mkSample("default", bench, "rescq", "star", 7, 0, 1, 100))
	}
	stats := st.Stats()
	if stats.Groups != 2 || stats.Dropped != 1 {
		t.Fatalf("stats = %+v, want 2 groups / 1 dropped at cap", stats)
	}
	// Results for existing cells still aggregate at the cap.
	if !st.Ingest("j", 3, mkSample("default", "gcm_n13", "rescq", "star", 7, 0, 1, 100)) {
		t.Fatal("existing cell rejected at cap")
	}
}

func TestSnapshotPrunesEvictedJobs(t *testing.T) {
	st := New(0)
	st.Ingest("keep", 0, mkSample("default", "gcm_n13", "rescq", "star", 7, 0, 1, 100))
	st.Ingest("gone", 0, mkSample("default", "qft_n18", "rescq", "star", 7, 0, 1, 200))
	snap := st.Snapshot(func(job string) bool { return job == "keep" })
	st2 := New(0)
	if err := st2.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// The kept job's watermark survives; the evicted job's does not.
	if st2.Ingest("keep", 0, mkSample("default", "gcm_n13", "rescq", "star", 7, 0, 1, 100)) {
		t.Fatal("kept job's replayed record accepted after restore")
	}
	if !st2.Ingest("gone", 0, mkSample("default", "wstate_n27", "rescq", "star", 7, 0, 1, 300)) {
		t.Fatal("pruned job cannot start over (watermark leaked through snapshot)")
	}
	// Aggregates themselves survive pruning: the cells are intact.
	if st2.Stats().Groups != 3 {
		t.Fatalf("groups after restore = %d, want 3", st2.Stats().Groups)
	}
}

func TestForgetJobDropsWatermark(t *testing.T) {
	st := New(0)
	st.Ingest("j", 0, mkSample("default", "gcm_n13", "rescq", "star", 7, 0, 1, 100))
	st.ForgetJob("j")
	if !st.Ingest("j", 0, mkSample("default", "gcm_n13", "rescq", "star", 7, 0, 1, 100)) {
		t.Fatal("watermark survived ForgetJob")
	}
}

func TestParetoFrontierCachedAndInvalidated(t *testing.T) {
	st := New(0)
	// Distinct tile counts come from the compression axis (distance only
	// scales physical qubits): tiles shrink as compression grows.
	slow := mkSample("default", "gcm_n13", "greedy", "star", 7, 0, 1, 1000)
	mid := mkSample("default", "gcm_n13", "greedy", "star", 7, 0.5, 1, 2000)
	st.Ingest("j", 0, slow)
	st.Ingest("j", 1, mid)
	resp, err := st.Pareto("gcm_n13", nil)
	if err != nil {
		t.Fatalf("pareto: %v", err)
	}
	if len(resp.Frontier) != 2 || resp.Configs != 2 {
		t.Fatalf("frontier = %d points over %d configs, want 2/2", len(resp.Frontier), resp.Configs)
	}
	if resp.Frontier[0].AreaTiles >= resp.Frontier[1].AreaTiles {
		t.Fatalf("frontier not ordered by ascending area: %+v", resp.Frontier)
	}
	// A smaller-and-faster configuration dominates everything.
	fast := mkSample("default", "gcm_n13", "rescq", "star", 7, 1.0, 1, 10)
	st.Ingest("j", 2, fast)
	resp, err = st.Pareto("gcm_n13", nil)
	if err != nil {
		t.Fatalf("pareto after ingest: %v", err)
	}
	if len(resp.Frontier) != 1 || resp.Frontier[0].Axes.Scheduler != "rescq" {
		t.Fatalf("dominating point did not collapse the frontier: %+v", resp.Frontier)
	}
}

func TestUnknownBenchmarkExcludedFromArea(t *testing.T) {
	st := New(0)
	st.Ingest("j", 0, mkSample("default", "not-a-qbench", "rescq", "star", 7, 0, 1, 100))
	resp, err := st.Pareto("not-a-qbench", nil)
	if err != nil {
		t.Fatalf("pareto: %v", err)
	}
	if len(resp.Frontier) != 0 || resp.Configs != 0 {
		t.Fatalf("unknown benchmark produced area points: %+v", resp)
	}
	gb, err := st.GroupBy([]string{"benchmark"}, nil)
	if err != nil {
		t.Fatalf("groupby: %v", err)
	}
	if gb.Groups[0].Area != nil {
		t.Fatalf("unknown benchmark produced area stats: %+v", gb.Groups[0].Area)
	}
}

func TestSensitivityPairsAcrossSchedulerPrivateKnobs(t *testing.T) {
	st := New(0)
	// rescq carries k=3/tau_mst=10; greedy carries zeros. The pairing
	// must bridge that canonicalization gap.
	st.Ingest("j", 0, mkSample("default", "gcm_n13", "rescq", "star", 7, 0, 1, 100, 100))
	st.Ingest("j", 1, mkSample("default", "gcm_n13", "greedy", "star", 7, 0, 1, 200, 200))
	st.Ingest("j", 2, mkSample("default", "qft_n18", "greedy", "star", 7, 0, 1, 300))
	resp, err := st.Sensitivity("scheduler", "greedy", "rescq", nil)
	if err != nil {
		t.Fatalf("sensitivity: %v", err)
	}
	if len(resp.Pairs) != 1 || resp.Unpaired != 1 {
		t.Fatalf("pairs = %d unpaired = %d, want 1/1", len(resp.Pairs), resp.Unpaired)
	}
	p := resp.Pairs[0]
	if p.AMeanCycles != 200 || p.BMeanCycles != 100 || p.Speedup != 2 {
		t.Fatalf("pair = %+v, want greedy 200 vs rescq 100, speedup 2", p)
	}
	if resp.BFaster != 1 || resp.GeoSpeedup != 2 {
		t.Fatalf("summary = %+v, want b_faster 1, geomean 2", resp)
	}
}

func TestQueryValidation(t *testing.T) {
	st := New(0)
	if _, err := st.GroupBy(nil, nil); err == nil {
		t.Fatal("empty by accepted")
	}
	if _, err := st.GroupBy([]string{"nope"}, nil); err == nil {
		t.Fatal("unknown by axis accepted")
	}
	if _, err := st.GroupBy([]string{"layout"}, map[string]string{"nope": "x"}); err == nil {
		t.Fatal("unknown filter axis accepted")
	}
	if _, err := st.Pareto("", nil); err == nil {
		t.Fatal("empty benchmark accepted")
	}
	if _, err := st.Pareto("gcm_n13", map[string]string{"benchmark": "x"}); err == nil {
		t.Fatal("benchmark filter accepted")
	}
	if _, err := st.Sensitivity("scheduler", "a", "a", nil); err == nil {
		t.Fatal("equal sensitivity values accepted")
	}
	if _, err := st.Sensitivity("scheduler", "a", "b", map[string]string{"scheduler": "x"}); err == nil {
		t.Fatal("filter on swept axis accepted")
	}
}

func TestAreaCompressionShrinksFootprint(t *testing.T) {
	full := mkSample("default", "gcm_n13", "rescq", "star", 7, 0, 1, 100)
	half := mkSample("default", "gcm_n13", "rescq", "star", 7, 0.5, 1, 100)
	fullFp := areaFor(full.Axes, nil)
	halfFp := areaFor(half.Axes, nil)
	if fullFp.Tiles == 0 || halfFp.Tiles == 0 {
		t.Fatalf("known benchmark produced zero footprint: %+v %+v", fullFp, halfFp)
	}
	if halfFp.Tiles >= fullFp.Tiles {
		t.Fatalf("compression 0.5 did not shrink tiles: %d >= %d", halfFp.Tiles, fullFp.Tiles)
	}
	if fullFp.Phys != fullFp.Tiles*2*7*7 {
		t.Fatalf("phys = %d, want tiles*2d^2 = %d", fullFp.Phys, fullFp.Tiles*2*7*7)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	mk := func() *Store {
		st := New(0)
		jobs := sweepSamples()
		ingestAll(t, st, jobs, interleavings(jobs, 3))
		return st
	}
	a, b := mk().Snapshot(nil), mk().Snapshot(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot bytes differ across identical ingests")
	}
	var decoded map[string]any
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
}

// TestCellKeyMatchesReference pins the cell key to its first form, every
// axis value joined with strings.Join: snapshots and query results sort
// cells by it, and the goldens fix that order.
func TestCellKeyMatchesReference(t *testing.T) {
	reference := func(a *Axes) string {
		vals := make([]string, len(axisNames))
		for i, name := range axisNames {
			vals[i], _ = a.value(name)
		}
		return strings.Join(vals, "\x1f")
	}
	floats := []float64{0, math.Copysign(0, -1), 1e-4, 5e-4, 1e-3, 0.25, 0.5, 1, 1.0 / 3, 1e-300, 5e-324, 1e21, math.Inf(1), math.NaN()}
	ints := []int{0, -1, 3, 25, math.MaxInt32, math.MinInt64}
	axes := []Axes{
		{},
		{Tenant: "default", Benchmark: "gcm_n13", Scheduler: "rescq", Layout: "star", Distance: 7, PhysError: 1e-4, K: 25, TauMST: 100, Runs: 3, Seed: 1},
		{Tenant: "t\x1fx", Benchmark: "ünï", Scheduler: "greedy", Layout: "compact", LayoutParams: `"fraction"="0.5"`, Seed: math.MaxInt64},
	}
	for _, f := range floats {
		axes = append(axes, Axes{Benchmark: "qft_n18", PhysError: f, Compression: f})
	}
	for _, v := range ints {
		axes = append(axes, Axes{Distance: v, K: v, TauMST: v, Runs: v, Seed: int64(v)})
	}
	s := New(0)
	for i := range axes {
		a := &axes[i]
		want := reference(a)
		if got := a.key(); got != want {
			t.Errorf("key(%+v) = %q, want %q", *a, got, want)
		}
		// Ingest keys its cells the same way (it spells LayoutParams from
		// the sample's Params, which this sample leaves empty).
		b := *a
		b.LayoutParams = ""
		s.Ingest(fmt.Sprintf("job-%d", i), 0, &Sample{Axes: b, Cycles: []int{10}})
		if _, ok := s.cells[reference(&b)]; !ok {
			t.Errorf("Ingest(%+v) did not file its cell under the reference key", *a)
		}
	}
}

// TestIngestIntoExistingCellAllocatesNothing: a repeat fold looks its cell
// up without building a key string.
func TestIngestIntoExistingCellAllocatesNothing(t *testing.T) {
	s := New(0)
	sm := mkSample("default", "gcm_n13", "rescq", "star", 7, 0.5, 1, 1000, 1100)
	i := 0
	s.Ingest("job", i, sm)
	if allocs := testing.AllocsPerRun(100, func() {
		i++
		s.Ingest("job", i, sm)
	}); allocs != 0 {
		t.Fatalf("a fold into an existing cell allocated %.1f times", allocs)
	}
}

// TestSnapshotEncodeMatchesMarshal pins the chunked snapshot encoder to
// json.Marshal of the whole snapshot, byte for byte: with no cells, with
// cells whose strings need escaping, with and without watermarks, and
// with exactly one chunk and with a partial last chunk.
func TestSnapshotEncodeMatchesMarshal(t *testing.T) {
	cell := cellSnap{
		Axes: Axes{Tenant: "a<b>&\"c\"", Benchmark: "gcm_n13", Scheduler: "rescq", Layout: "compact",
			LayoutParams: `{"fraction":"0.5"}`, Distance: 7, PhysError: 1e-4, K: 25, TauMST: 100,
			Compression: 0.25, Runs: 3, Seed: 1 << 40},
		Results: 2, RunCount: 6, Cycles: 1234, MinCycles: 200, MaxCycles: 210, AreaTiles: 81, AreaPhys: 8100,
	}
	other := cell
	other.Tenant, other.PhysError, other.Compression = "", 2.5e-7, 1
	many := make([]cellSnap, 2*snapshotChunk+1) // three chunks, the last of one cell
	for i := range many {
		many[i] = cell
		many[i].Seed = int64(i)
	}
	for _, snap := range []snapshot{
		{Version: 1, Cells: []cellSnap{}},
		{Version: 1, Cells: []cellSnap{cell}, Ingested: 9, Skipped: 1, Dropped: 2},
		{Version: 1, Cells: []cellSnap{cell, other}, Counted: map[string]int{"job-b": 3, "job-a": 1, "<x>": 7}, Ingested: 1 << 50},
		{Version: 1, Cells: many[:snapshotChunk], Counted: map[string]int{"j": 1}},
		{Version: 1, Cells: many},
	} {
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		for _, hint := range []int{0, len(want)} {
			if got := snap.encode(hint); !bytes.Equal(got, want) {
				t.Errorf("encode(%d):\n got %s\nwant %s", hint, got, want)
			}
		}
	}
}
