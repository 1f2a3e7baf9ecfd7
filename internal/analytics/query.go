package analytics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// validAxes checks every axis name in names against the known axis set.
func validAxes(names []string) error {
	for _, n := range names {
		var a Axes
		if _, ok := a.value(n); !ok {
			return fmt.Errorf("analytics: unknown axis %q (known: %s)", n, strings.Join(axisNames, ", "))
		}
	}
	return nil
}

func validFilter(filter map[string]string) error {
	names := make([]string, 0, len(filter))
	for n := range filter {
		names = append(names, n)
	}
	return validAxes(names)
}

func (c *cell) matches(filter map[string]string) bool {
	for axis, want := range filter {
		got, _ := c.axes.value(axis)
		if got != want {
			return false
		}
	}
	return true
}

// copyMatching counts a query and copies out every cell that passes
// filter, so the query groups, sorts and pairs them after releasing the
// lock. Ingest folds results on the daemon's delivery path and takes the
// same lock; it must not wait out a whole query.
func (s *Store) copyMatching(filter map[string]string) []*cell {
	s.mu.Lock()
	s.queries++
	buf := make([]cell, 0, len(s.cells))
	for _, c := range s.cells {
		if c.matches(filter) {
			buf = append(buf, *c)
		}
	}
	s.mu.Unlock()
	out := make([]*cell, len(buf))
	for i := range buf {
		out[i] = &buf[i]
	}
	return out
}

// AreaStats summarizes the lattice footprints of a group's member
// configurations (per configuration, not per result — area is a property
// of the configuration). Configs counts members with a known footprint;
// members without one (unknown benchmarks) are excluded.
type AreaStats struct {
	Configs   int     `json:"configs"`
	MinTiles  int64   `json:"min_tiles"`
	MaxTiles  int64   `json:"max_tiles"`
	MeanTiles float64 `json:"mean_tiles"`
	MinPhys   int64   `json:"min_phys_qubits"`
	MaxPhys   int64   `json:"max_phys_qubits"`
	MeanPhys  float64 `json:"mean_phys_qubits"`
}

// GroupStats is one group of a group-by aggregation. Latency statistics
// are over per-run makespans in cycles; the quantiles are weighted
// nearest-rank over member-configuration means (weight = result count),
// computed at query time from the cells' integer accumulators.
type GroupStats struct {
	Key        map[string]string `json:"key"`
	Configs    int               `json:"configs"`
	Results    int64             `json:"results"`
	Runs       int64             `json:"runs"`
	MinCycles  int64             `json:"min_cycles"`
	MaxCycles  int64             `json:"max_cycles"`
	MeanCycles float64           `json:"mean_cycles"`
	P50Cycles  float64           `json:"p50_cycles"`
	P99Cycles  float64           `json:"p99_cycles"`
	Area       *AreaStats        `json:"area,omitempty"`
}

// GroupByResponse is the group-by endpoint payload. Groups are sorted by
// their composite key values, so equal aggregate state always renders
// byte-identical JSON.
type GroupByResponse struct {
	By      []string          `json:"by"`
	Filter  map[string]string `json:"filter,omitempty"`
	Configs int               `json:"configs"`
	Results int64             `json:"results"`
	Groups  []GroupStats      `json:"groups"`
}

type groupAcc struct {
	vals    []string
	members []*cell
	results int64
	runs    int64
	cycles  int64
	minCyc  int64
	maxCyc  int64
}

// quantile returns the weighted nearest-rank q-quantile (q in percent) of
// the member cells' mean latencies, weighting each configuration by its
// result count. Members must already be sorted by (mean, key).
func quantile(members []*cell, total int64, q int64) float64 {
	if total == 0 {
		return 0
	}
	rank := (total*q + 99) / 100 // ceil(total * q/100)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, c := range members {
		cum += c.results
		if cum >= rank {
			return c.mean()
		}
	}
	return members[len(members)-1].mean()
}

// GroupBy aggregates every cell matching filter into one group per
// distinct tuple of the `by` axes. Cost is O(cells), never O(results).
func (s *Store) GroupBy(by []string, filter map[string]string) (*GroupByResponse, error) {
	if len(by) == 0 {
		return nil, fmt.Errorf("analytics: group-by needs at least one axis")
	}
	if err := validAxes(by); err != nil {
		return nil, err
	}
	if err := validFilter(filter); err != nil {
		return nil, err
	}
	groups := make(map[string]*groupAcc)
	resp := &GroupByResponse{By: by, Filter: filter, Groups: []GroupStats{}}
	for _, c := range s.copyMatching(filter) {
		vals := make([]string, len(by))
		for i, axis := range by {
			vals[i], _ = c.axes.value(axis)
		}
		gk := strings.Join(vals, "\x1f")
		g := groups[gk]
		if g == nil {
			g = &groupAcc{vals: vals, minCyc: math.MaxInt64}
			groups[gk] = g
		}
		g.members = append(g.members, c)
		g.results += c.results
		g.runs += c.runs
		g.cycles += c.cycles
		if c.minCyc < g.minCyc {
			g.minCyc = c.minCyc
		}
		if c.maxCyc > g.maxCyc {
			g.maxCyc = c.maxCyc
		}
		resp.Configs++
		resp.Results += c.results
	}

	keys := make([]string, 0, len(groups))
	for gk := range groups {
		keys = append(keys, gk)
	}
	sort.Strings(keys)
	for _, gk := range keys {
		g := groups[gk]
		sortCells(g.members)
		gs := GroupStats{
			Key:        make(map[string]string, len(by)),
			Configs:    len(g.members),
			Results:    g.results,
			Runs:       g.runs,
			MinCycles:  g.minCyc,
			MaxCycles:  g.maxCyc,
			MeanCycles: float64(g.cycles) / float64(g.runs),
			P50Cycles:  quantile(g.members, g.results, 50),
			P99Cycles:  quantile(g.members, g.results, 99),
		}
		for i, axis := range by {
			gs.Key[axis] = g.vals[i]
		}
		gs.Area = areaStats(g.members)
		resp.Groups = append(resp.Groups, gs)
	}
	return resp, nil
}

// sortCells orders cells by (mean latency asc, key asc) — the canonical
// order for quantile walks and frontier sweeps.
func sortCells(cs []*cell) {
	sort.Slice(cs, func(i, j int) bool {
		mi, mj := cs[i].mean(), cs[j].mean()
		if mi != mj {
			return mi < mj
		}
		return cs[i].key < cs[j].key
	})
}

func areaStats(members []*cell) *AreaStats {
	var as AreaStats
	var tiles, phys int64
	as.MinTiles, as.MinPhys = math.MaxInt64, math.MaxInt64
	for _, c := range members {
		if c.area.Tiles == 0 {
			continue
		}
		as.Configs++
		tiles += c.area.Tiles
		phys += c.area.Phys
		if c.area.Tiles < as.MinTiles {
			as.MinTiles = c.area.Tiles
		}
		if c.area.Tiles > as.MaxTiles {
			as.MaxTiles = c.area.Tiles
		}
		if c.area.Phys < as.MinPhys {
			as.MinPhys = c.area.Phys
		}
		if c.area.Phys > as.MaxPhys {
			as.MaxPhys = c.area.Phys
		}
	}
	if as.Configs == 0 {
		return nil
	}
	as.MeanTiles = float64(tiles) / float64(as.Configs)
	as.MeanPhys = float64(phys) / float64(as.Configs)
	return &as
}

// ParetoPoint is one frontier configuration: no other configuration in
// the slice has both a smaller footprint and a lower mean latency.
type ParetoPoint struct {
	Axes       Axes    `json:"axes"`
	AreaTiles  int64   `json:"area_tiles"`
	PhysQubits int64   `json:"phys_qubits"`
	MeanCycles float64 `json:"mean_cycles"`
	Results    int64   `json:"results"`
}

// ParetoResponse is the latency-vs-area frontier for one benchmark.
// Configs counts the candidate configurations (known footprint) the
// frontier was drawn from.
type ParetoResponse struct {
	Benchmark string            `json:"benchmark"`
	Filter    map[string]string `json:"filter,omitempty"`
	Configs   int               `json:"configs"`
	Frontier  []ParetoPoint     `json:"frontier"`
}

// frontierOf computes the latency-vs-area Pareto frontier of cells with a
// known footprint: sort by (tiles asc, mean asc, key asc), then keep each
// point that strictly improves the best mean seen so far.
func frontierOf(cs []*cell) (frontier []*cell, candidates int) {
	withArea := make([]*cell, 0, len(cs))
	for _, c := range cs {
		if c.area.Tiles > 0 {
			withArea = append(withArea, c)
		}
	}
	candidates = len(withArea)
	sort.Slice(withArea, func(i, j int) bool {
		if withArea[i].area.Tiles != withArea[j].area.Tiles {
			return withArea[i].area.Tiles < withArea[j].area.Tiles
		}
		mi, mj := withArea[i].mean(), withArea[j].mean()
		if mi != mj {
			return mi < mj
		}
		return withArea[i].key < withArea[j].key
	})
	best := math.Inf(1)
	for _, c := range withArea {
		if m := c.mean(); m < best {
			frontier = append(frontier, c)
			best = m
		}
	}
	return frontier, candidates
}

// Pareto returns the latency-vs-area frontier for one benchmark's cells,
// optionally restricted by additional axis filters. The unfiltered
// frontier is cached per benchmark and rebuilt only after an ingest
// changed the slice (the warm path is O(frontier)); filtered queries
// compute the frontier over the matching cells, still O(cells in slice).
func (s *Store) Pareto(benchmark string, filter map[string]string) (*ParetoResponse, error) {
	if benchmark == "" {
		return nil, fmt.Errorf("analytics: pareto needs a benchmark")
	}
	if err := validFilter(filter); err != nil {
		return nil, err
	}
	if _, ok := filter["benchmark"]; ok {
		return nil, fmt.Errorf("analytics: pass the benchmark as its own parameter, not a filter")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++

	resp := &ParetoResponse{Benchmark: benchmark, Filter: filter, Frontier: []ParetoPoint{}}
	bs := s.byBench[benchmark]
	if bs == nil {
		return resp, nil
	}
	var frontier []*cell
	if len(filter) == 0 {
		if bs.dirty {
			bs.frontier, _ = frontierOf(bs.cells)
			bs.dirty = false
		}
		frontier = bs.frontier
		for _, c := range bs.cells {
			if c.area.Tiles > 0 {
				resp.Configs++
			}
		}
	} else {
		matching := make([]*cell, 0, len(bs.cells))
		for _, c := range bs.cells {
			if c.matches(filter) {
				matching = append(matching, c)
			}
		}
		frontier, resp.Configs = frontierOf(matching)
	}
	for _, c := range frontier {
		resp.Frontier = append(resp.Frontier, ParetoPoint{
			Axes:       c.axes,
			AreaTiles:  c.area.Tiles,
			PhysQubits: c.area.Phys,
			MeanCycles: c.mean(),
			Results:    c.results,
		})
	}
	return resp, nil
}

// SensitivityPair compares one configuration under two values of the
// swept axis, holding every other axis fixed. Axes holds the a-side
// tuple; Speedup > 1 means the b value is faster.
type SensitivityPair struct {
	Axes        Axes    `json:"axes"`
	AMeanCycles float64 `json:"a_mean_cycles"`
	BMeanCycles float64 `json:"b_mean_cycles"`
	DeltaCycles float64 `json:"delta_cycles"`
	Speedup     float64 `json:"speedup"`
}

// SensitivityResponse reports per-configuration deltas between two values
// of one axis. Unpaired counts a-side configurations with no b-side
// counterpart; Ambiguous counts a-side configurations with several (only
// possible when the swept axis is the scheduler and the b side varies in
// scheduler-private knobs like k/tau_mst).
type SensitivityResponse struct {
	Axis       string            `json:"axis"`
	A          string            `json:"a"`
	B          string            `json:"b"`
	Filter     map[string]string `json:"filter,omitempty"`
	Pairs      []SensitivityPair `json:"pairs"`
	Unpaired   int               `json:"unpaired"`
	Ambiguous  int               `json:"ambiguous"`
	AFaster    int               `json:"a_faster"`
	BFaster    int               `json:"b_faster"`
	Ties       int               `json:"ties"`
	GeoSpeedup float64           `json:"geomean_speedup"`
}

// neutralKey is a cell's identity with the swept axis erased, used to
// match a-side and b-side configurations that agree on every other axis.
// When the swept axis is the scheduler, the RESCQ-only knobs (k, tau_mst)
// are erased too: Options canonicalization zeroes them for non-RESCQ
// schedulers, so a rescq/greedy pair legitimately differs in those axes.
func neutralKey(a Axes, axis string) string {
	switch axis {
	case "tenant":
		a.Tenant = ""
	case "benchmark":
		a.Benchmark = ""
	case "scheduler":
		a.Scheduler = ""
		a.K = 0
		a.TauMST = 0
	case "layout":
		a.Layout = ""
	case "layout_params":
		a.LayoutParams = ""
	case "distance":
		a.Distance = 0
	case "phys_error":
		a.PhysError = 0
	case "k":
		a.K = 0
	case "tau_mst":
		a.TauMST = 0
	case "compression":
		a.Compression = 0
	case "runs":
		a.Runs = 0
	case "seed":
		a.Seed = 0
	}
	return a.key()
}

// Sensitivity pairs every configuration measured under axis=va with its
// counterpart under axis=vb (all other axes fixed) and reports the
// per-pair latency deltas plus a geometric-mean speedup summary.
func (s *Store) Sensitivity(axis, va, vb string, filter map[string]string) (*SensitivityResponse, error) {
	if err := validAxes([]string{axis}); err != nil {
		return nil, err
	}
	if va == "" || vb == "" {
		return nil, fmt.Errorf("analytics: sensitivity needs two values a and b for axis %q", axis)
	}
	if va == vb {
		return nil, fmt.Errorf("analytics: sensitivity values must differ (got %q twice)", va)
	}
	if err := validFilter(filter); err != nil {
		return nil, err
	}
	if _, ok := filter[axis]; ok {
		return nil, fmt.Errorf("analytics: cannot filter on the swept axis %q", axis)
	}
	resp := &SensitivityResponse{Axis: axis, A: va, B: vb, Filter: filter, Pairs: []SensitivityPair{}}
	var aSide []*cell
	bIndex := make(map[string][]*cell)
	for _, c := range s.copyMatching(filter) {
		switch v, _ := c.axes.value(axis); v {
		case va:
			aSide = append(aSide, c)
		case vb:
			nk := neutralKey(c.axes, axis)
			bIndex[nk] = append(bIndex[nk], c)
		}
	}
	sort.Slice(aSide, func(i, j int) bool { return aSide[i].key < aSide[j].key })

	var sumLog float64
	var logged int
	for _, ac := range aSide {
		counterparts := bIndex[neutralKey(ac.axes, axis)]
		switch len(counterparts) {
		case 0:
			resp.Unpaired++
			continue
		case 1:
		default:
			resp.Ambiguous++
			continue
		}
		bc := counterparts[0]
		am, bm := ac.mean(), bc.mean()
		p := SensitivityPair{
			Axes:        ac.axes,
			AMeanCycles: am,
			BMeanCycles: bm,
			DeltaCycles: bm - am,
		}
		switch {
		case am > bm:
			resp.BFaster++
		case bm > am:
			resp.AFaster++
		default:
			resp.Ties++
		}
		if am > 0 && bm > 0 {
			p.Speedup = am / bm
			sumLog += math.Log(p.Speedup)
			logged++
		}
		resp.Pairs = append(resp.Pairs, p)
	}
	if logged > 0 {
		resp.GeoSpeedup = math.Exp(sumLog / float64(logged))
	}
	return resp, nil
}
