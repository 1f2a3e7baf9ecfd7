// Package analytics maintains queryable aggregates over the sweep-result
// stream the WAL sees. Every persisted per-configuration result is folded
// into exactly one aggregate cell — keyed by the full axis tuple of the
// configuration — in O(1); queries (group-by, Pareto frontier, scheduler
// sensitivity) merge cells at request time, so their cost is bounded by
// the configured cardinality cap, never by the number of results.
//
// The store is deliberately order-independent: cells accumulate only
// integers (result counts, run counts, cycle sums, min/max), and every
// derived statistic (means, quantiles, frontiers, deltas) is computed at
// query time from those integers with deterministic tie-breaking. Folding
// the same multiset of results in any order therefore yields bit-identical
// query answers — the property the kill-restart identity test relies on,
// since a rebooted daemon replays the WAL prefix and then ingests live
// results in whatever order workers finish.
//
// Replay safety comes from per-job watermarks: Ingest(job, index, …) folds
// a result only when index is exactly the next unseen index for that job,
// so the WAL replay path, the /resume re-checkpoint path, and the live
// persist path can all feed the store without double counting.
package analytics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/lattice"
)

// DefaultMaxGroups bounds the number of distinct aggregate cells (one per
// complete axis tuple) when no explicit cap is configured. Results for
// configurations beyond the cap are counted as dropped, not aggregated.
const DefaultMaxGroups = 8192

// Axes is the complete axis tuple identifying one sweep configuration.
// String axes hold the canonical spelling (layout names spelled out,
// layout params in lattice.Params.Canonical order); numeric axes hold the
// canonicalized Options values.
type Axes struct {
	Tenant       string  `json:"tenant"`
	Benchmark    string  `json:"benchmark"`
	Scheduler    string  `json:"scheduler"`
	Layout       string  `json:"layout"`
	LayoutParams string  `json:"layout_params,omitempty"`
	Distance     int     `json:"distance"`
	PhysError    float64 `json:"phys_error"`
	K            int     `json:"k"`
	TauMST       int     `json:"tau_mst"`
	Compression  float64 `json:"compression"`
	Runs         int     `json:"runs"`
	Seed         int64   `json:"seed"`
}

var axisNames = []string{
	"tenant", "benchmark", "scheduler", "layout", "layout_params",
	"distance", "phys_error", "k", "tau_mst", "compression", "runs", "seed",
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// value returns the string form of one axis — the same spelling used in
// query filters, group keys, and sensitivity arguments.
func (a *Axes) value(axis string) (string, bool) {
	switch axis {
	case "tenant":
		return a.Tenant, true
	case "benchmark":
		return a.Benchmark, true
	case "scheduler":
		return a.Scheduler, true
	case "layout":
		return a.Layout, true
	case "layout_params":
		return a.LayoutParams, true
	case "distance":
		return strconv.Itoa(a.Distance), true
	case "phys_error":
		return formatFloat(a.PhysError), true
	case "k":
		return strconv.Itoa(a.K), true
	case "tau_mst":
		return strconv.Itoa(a.TauMST), true
	case "compression":
		return formatFloat(a.Compression), true
	case "runs":
		return strconv.Itoa(a.Runs), true
	case "seed":
		return strconv.FormatInt(a.Seed, 10), true
	}
	return "", false
}

// appendKey appends the cell identity to b: every axis value, in
// axisNames order and spelled as value spells it, joined with an unlikely
// separator. Axis values are canonical strings, so equal tuples always
// produce equal keys.
func (a *Axes) appendKey(b []byte) []byte {
	const sep = '\x1f'
	b = append(b, a.Tenant...)
	b = append(append(b, sep), a.Benchmark...)
	b = append(append(b, sep), a.Scheduler...)
	b = append(append(b, sep), a.Layout...)
	b = append(append(b, sep), a.LayoutParams...)
	b = strconv.AppendInt(append(b, sep), int64(a.Distance), 10)
	b = strconv.AppendFloat(append(b, sep), a.PhysError, 'g', -1, 64)
	b = strconv.AppendInt(append(b, sep), int64(a.K), 10)
	b = strconv.AppendInt(append(b, sep), int64(a.TauMST), 10)
	b = strconv.AppendFloat(append(b, sep), a.Compression, 'g', -1, 64)
	b = strconv.AppendInt(append(b, sep), int64(a.Runs), 10)
	return strconv.AppendInt(append(b, sep), a.Seed, 10)
}

// key is appendKey as a string.
func (a *Axes) key() string { return string(a.appendKey(nil)) }

// Sample is the analytics-relevant content of one persisted result: the
// configuration's axis tuple, its raw layout parameters (for the lattice
// footprint), and the per-seeded-run makespans in cycles. A nil Sample
// still advances the job's replay watermark without aggregating anything —
// the caller uses that for error results, which occupy a result index in
// the WAL but carry no measurements.
type Sample struct {
	Axes   Axes
	Params lattice.Params
	Cycles []int
}

// footprint is a configuration's lattice cost: occupied tiles (data +
// ancilla patches after the nominal compression target) and the physical
// qubit estimate at the configured code distance. Zero means the
// benchmark's qubit count is unknown (text-submitted circuits), which
// excludes the cell from area aggregates and Pareto frontiers.
type footprint struct {
	Tiles int64
	Phys  int64
}

// cell is one materialized aggregate: integer accumulators only, so
// ingest order can never change its state for a given result multiset.
type cell struct {
	axes    Axes
	key     string // axes.key(), the cell's map key and sort tie-break
	results int64
	runs    int64
	cycles  int64 // sum of per-run makespans
	minCyc  int64
	maxCyc  int64
	area    footprint
}

func (c *cell) mean() float64 {
	if c.runs == 0 {
		return 0
	}
	return float64(c.cycles) / float64(c.runs)
}

// benchSlice indexes a benchmark's cells and caches its latency-vs-area
// Pareto frontier. The frontier is rebuilt lazily on the first query after
// an ingest dirtied it; with n cells the rebuild is O(n log n) and the
// steady-state query is O(frontier).
type benchSlice struct {
	cells    []*cell
	frontier []*cell
	dirty    bool
}

// Store is the incrementally maintained aggregate store. All methods are
// safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	maxGroups int
	cells     map[string]*cell
	byBench   map[string]*benchSlice
	keyBuf    []byte // Ingest's cell-key scratch

	// counted is the per-job replay watermark: the next result index the
	// store will accept for each job. It makes every ingest call site
	// idempotent across WAL replay, /resume re-checkpoints, and live
	// persists.
	counted map[string]int

	ingested  int64 // results folded into a cell
	skipped   int64 // results that advanced a watermark with nothing to aggregate
	deduped   int64 // results rejected by a watermark (already counted)
	dropped   int64 // results beyond the cardinality cap
	queries   int64
	snapshots int64
	sinceSnap int64 // results folded since the last durable snapshot
	snapLen   int   // the last snapshot's size, to presize the next one
}

// New returns an empty store capped at maxGroups distinct aggregate cells
// (<= 0 selects DefaultMaxGroups).
func New(maxGroups int) *Store {
	if maxGroups <= 0 {
		maxGroups = DefaultMaxGroups
	}
	return &Store{
		maxGroups: maxGroups,
		cells:     make(map[string]*cell),
		byBench:   make(map[string]*benchSlice),
		counted:   make(map[string]int),
	}
}

func (s *Store) slice(bench string) *benchSlice {
	bs := s.byBench[bench]
	if bs == nil {
		bs = &benchSlice{}
		s.byBench[bench] = bs
	}
	return bs
}

// Ingest folds one persisted result into its aggregate cell. It accepts
// the result only when index is exactly the job's next unseen result
// index; anything else is a replay duplicate and is rejected. A nil or
// empty sample advances the watermark without aggregating (the result
// slot exists in the WAL but carries no measurements). Reports whether
// the sample was folded into a cell.
func (s *Store) Ingest(jobID string, index int, sm *Sample) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if index != s.counted[jobID] {
		s.deduped++
		return false
	}
	s.counted[jobID] = index + 1
	if sm == nil || len(sm.Cycles) == 0 {
		s.skipped++
		return false
	}

	a := sm.Axes
	a.LayoutParams = sm.Params.Canonical()
	// A fold into an existing cell allocates no key: the map lookup by
	// string(bytes) does not copy.
	s.keyBuf = a.appendKey(s.keyBuf[:0])
	c, ok := s.cells[string(s.keyBuf)]
	if !ok {
		if len(s.cells) >= s.maxGroups {
			s.dropped++
			return false
		}
		k := string(s.keyBuf)
		c = &cell{axes: a, key: k, minCyc: math.MaxInt64, area: areaFor(a, sm.Params)}
		s.cells[k] = c
		bs := s.slice(a.Benchmark)
		bs.cells = append(bs.cells, c)
		bs.dirty = true
	}
	oldCycles, oldRuns := c.cycles, c.runs
	c.results++
	for _, cyc := range sm.Cycles {
		v := int64(cyc)
		c.runs++
		c.cycles += v
		if v < c.minCyc {
			c.minCyc = v
		}
		if v > c.maxCyc {
			c.maxCyc = v
		}
	}
	// Repeat folds into an existing cell normally carry the identical
	// deterministic measurement; only when the cell's mean actually moves
	// does the benchmark's cached frontier need a rebuild.
	if ok && oldCycles*c.runs != c.cycles*oldRuns {
		s.slice(a.Benchmark).dirty = true
	}
	s.ingested++
	s.sinceSnap++
	return true
}

// ForgetJob drops a job's replay watermark. Only useful on storeless
// daemons (nothing will ever replay), where terminal jobs would otherwise
// leak watermark entries forever; with a WAL attached, pruning happens at
// snapshot time against the store's job index instead.
func (s *Store) ForgetJob(jobID string) {
	s.mu.Lock()
	delete(s.counted, jobID)
	s.mu.Unlock()
}

// SinceSnapshot reports how many results have been folded since the last
// Snapshot — the amount of WAL re-folding a crash right now would cost.
func (s *Store) SinceSnapshot() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinceSnap
}

// Stats is the health summary exported on /metrics.
type Stats struct {
	Groups     int
	GroupCap   int
	Benchmarks int
	Ingested   int64
	Skipped    int64
	Deduped    int64
	Dropped    int64
	Queries    int64
	Snapshots  int64
	IngestLag  int64
}

// Stats returns a point-in-time health summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Groups:     len(s.cells),
		GroupCap:   s.maxGroups,
		Benchmarks: len(s.byBench),
		Ingested:   s.ingested,
		Skipped:    s.skipped,
		Deduped:    s.deduped,
		Dropped:    s.dropped,
		Queries:    s.queries,
		Snapshots:  s.snapshots,
		IngestLag:  s.sinceSnap,
	}
}

// snapshot is the durable wire form: cells sorted by key so the payload
// is deterministic for a given aggregate state.
type snapshot struct {
	Version  int            `json:"version"`
	Cells    []cellSnap     `json:"cells"`
	Counted  map[string]int `json:"counted,omitempty"`
	Ingested int64          `json:"ingested"`
	Skipped  int64          `json:"skipped"`
	Dropped  int64          `json:"dropped"`
}

type cellSnap struct {
	Axes
	Results   int64 `json:"results"`
	RunCount  int64 `json:"run_count"`
	Cycles    int64 `json:"cycles"`
	MinCycles int64 `json:"min_cycles"`
	MaxCycles int64 `json:"max_cycles"`
	AreaTiles int64 `json:"area_tiles"`
	AreaPhys  int64 `json:"area_phys"`
}

// Snapshot serializes the aggregate state for the WAL compaction path and
// marks the store clean. keep (optional) reports whether a job id is still
// replayable from the WAL; watermarks for evicted jobs are pruned from the
// snapshot, since no future replay can resurface their records.
func (s *Store) Snapshot(keep func(jobID string) bool) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := snapshot{
		Version:  1,
		Cells:    make([]cellSnap, 0, len(s.cells)),
		Ingested: s.ingested,
		Skipped:  s.skipped,
		Dropped:  s.dropped,
	}
	keys := make([]string, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := s.cells[k]
		snap.Cells = append(snap.Cells, cellSnap{
			Axes:      c.axes,
			Results:   c.results,
			RunCount:  c.runs,
			Cycles:    c.cycles,
			MinCycles: c.minCyc,
			MaxCycles: c.maxCyc,
			AreaTiles: c.area.Tiles,
			AreaPhys:  c.area.Phys,
		})
	}
	if len(s.counted) > 0 {
		snap.Counted = make(map[string]int, len(s.counted))
		for job, next := range s.counted {
			if keep != nil && !keep(job) {
				delete(s.counted, job)
				continue
			}
			snap.Counted[job] = next
		}
	}
	data := snap.encode(s.snapLen)
	s.snapLen = len(data)
	s.snapshots++
	s.sinceSnap = 0
	return data
}

// snapshotChunk is how many cells encode marshals at a time.
const snapshotChunk = 256

// encode returns json.Marshal(snap), byte for byte, into a buffer of
// capacity sizeHint (the last snapshot's size). It marshals the cells
// snapshotChunk at a time: json.Marshal of the whole snapshot would leave
// a snapshot-sized buffer (megabytes at the group cap) in encoding/json's
// pool, live until two garbage collections pass; a chunk's is about
// 64 KB.
func (snap *snapshot) encode(sizeHint int) []byte {
	var part bytes.Buffer
	enc := json.NewEncoder(&part)
	// appendJSON appends v's encoding less the trim bytes at each end.
	appendJSON := func(b []byte, v any, trim int) []byte {
		part.Reset()
		if err := enc.Encode(v); err != nil {
			// Everything in the snapshot is plain integers and strings; a
			// marshal failure is a programming error, not a runtime one.
			panic(fmt.Sprintf("analytics: snapshot marshal: %v", err))
		}
		out := bytes.TrimSuffix(part.Bytes(), []byte{'\n'})
		return append(b, out[trim:len(out)-trim]...)
	}
	b := make([]byte, 0, sizeHint)
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, int64(snap.Version), 10)
	b = append(b, `,"cells":[`...)
	for i := 0; i < len(snap.Cells); i += snapshotChunk {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSON(b, snap.Cells[i:min(i+snapshotChunk, len(snap.Cells))], 1) // drop the chunk's [ ]
	}
	b = append(b, ']')
	if len(snap.Counted) > 0 {
		b = append(b, `,"counted":`...)
		b = appendJSON(b, snap.Counted, 0)
	}
	b = strconv.AppendInt(append(b, `,"ingested":`...), snap.Ingested, 10)
	b = strconv.AppendInt(append(b, `,"skipped":`...), snap.Skipped, 10)
	b = strconv.AppendInt(append(b, `,"dropped":`...), snap.Dropped, 10)
	return append(b, '}')
}

// Restore replaces the store's state with a previously serialized
// snapshot. Used at boot before replaying the WAL suffix, so replay cost
// stays bounded by the compaction cadence rather than total history.
func (s *Store) Restore(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("analytics: restore: %w", err)
	}
	if snap.Version != 1 {
		return fmt.Errorf("analytics: restore: unsupported snapshot version %d", snap.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cells = make(map[string]*cell, len(snap.Cells))
	s.byBench = make(map[string]*benchSlice)
	for i := range snap.Cells {
		cs := &snap.Cells[i]
		c := &cell{
			axes:    cs.Axes,
			results: cs.Results,
			runs:    cs.RunCount,
			cycles:  cs.Cycles,
			minCyc:  cs.MinCycles,
			maxCyc:  cs.MaxCycles,
			area:    footprint{Tiles: cs.AreaTiles, Phys: cs.AreaPhys},
		}
		c.key = c.axes.key()
		s.cells[c.key] = c
		bs := s.slice(c.axes.Benchmark)
		bs.cells = append(bs.cells, c)
		bs.dirty = true
	}
	s.counted = make(map[string]int, len(snap.Counted))
	for job, next := range snap.Counted {
		s.counted[job] = next
	}
	s.ingested = snap.Ingested
	s.skipped = snap.Skipped
	s.dropped = snap.Dropped
	s.sinceSnap = 0
	return nil
}
