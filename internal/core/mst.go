package core

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/sim"
)

// mstPipeline models the asynchronous MST recomputation of paper Figure 8.
// Every K cycles a computation starts from a snapshot of the current
// ancilla activity; its result becomes the routing tree TauMST cycles
// later. Routing therefore always uses a tree whose weights are stale by
// at least TauMST cycles — the paper shows (section 5.2.3) this staleness
// is nearly free, which our Figure 13 reproduction confirms.
//
// Between snapshots only edge weights change, so the pipeline maintains
// one working minimum spanning forest incrementally via the paper's
// O(k*sqrt(n)) single-edge update (section 5.4.1) and clones it for each
// publication, falling back to one allocation-free full KruskalInto
// recompute when a snapshot changes a large fraction of the edges.
// Published trees that rotate out of use are recycled through a free list,
// so steady-state ticking allocates nothing, and a scheduler reused for
// another run (see New) recycles its last run's graph and trees too.
type mstPipeline struct {
	k, tau int
	g      *graph.Graph
	eps    []float64 // per-edge deterministic tie-break jitter
	cur    *graph.Tree
	jobs   []mstJob
	free   []*graph.Tree // retired published trees, reused as clone targets

	// work is the minimum spanning forest of the latest snapshot,
	// maintained incrementally between snapshots.
	work  *graph.Tree
	dsu   *graph.DSU
	order []int32

	act   []float64 // scratch: each ancilla's activity this snapshot
	chgID []int32   // scratch: edges whose weight changed this snapshot
	chgW  []float64
}

type mstJob struct {
	publishAt int
	tree      *graph.Tree
}

// epsScale bounds the tie-break jitter well below one activity quantum
// (1/ActivityWindow), so it only decides ties, never real differences.
const epsScale = 0.004

// fullRebuildFraction is the incremental-vs-full crossover: when a
// snapshot changes more than this fraction of the edges, one O(E) full
// recompute is cheaper than that many incremental updates (and doubles as
// the correctness fallback for pathological batches).
const fullRebuildFraction = 0.25

// reset starts the pipeline over for a new run on st's grid. It reuses
// the storage of the previous run: the graph, the DSU and edge order, and
// every tree, which all join the free list as clone targets.
func (m *mstPipeline) reset(st *sim.State, cfg Config) {
	m.k, m.tau = cfg.K, cfg.TauMST
	m.g = st.Grid().AncillaGraphInto(m.g)
	g := m.g
	if m.cur != nil {
		m.free = append(m.free, m.cur)
	}
	for i, j := range m.jobs {
		m.free = append(m.free, j.tree)
		m.jobs[i] = mstJob{}
	}
	m.jobs = m.jobs[:0]
	m.eps = slices.Grow(m.eps[:0], g.NumEdges())[:g.NumEdges()]
	m.act = slices.Grow(m.act[:0], g.NumVertices())[:g.NumVertices()]
	// Deterministic per-edge jitter: without it, the all-zero cold-start
	// weights make Kruskal produce a degenerate comb-shaped tree whose
	// paths between nearby tiles detour across the whole fabric. The
	// jitter yields a balanced pseudo-random spanning tree instead.
	for e := range m.eps {
		m.eps[e] = epsScale * splitmixUnit(uint64(e))
		g.SetWeight(e, m.eps[e])
	}
	// The initial tree is computed at compile time (all activities zero)
	// and available from cycle one.
	if m.dsu == nil {
		m.dsu = new(graph.DSU)
	}
	if cap(m.order) < g.NumEdges() {
		m.order = make([]int32, g.NumEdges())
	}
	m.work = graph.KruskalInto(g, m.work, m.dsu, m.order)
	m.cur = m.work.CloneInto(m.popFree())
}

// popFree takes a retired tree off the free list, or returns nil.
func (m *mstPipeline) popFree() *graph.Tree {
	n := len(m.free)
	if n == 0 {
		return nil
	}
	t := m.free[n-1]
	m.free[n-1] = nil
	m.free = m.free[:n-1]
	return t
}

// splitmixUnit hashes x into [0, 1) with the splitmix64 finalizer.
func splitmixUnit(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// tick publishes any due computation and starts a new one every k cycles.
func (m *mstPipeline) tick(st *sim.State) {
	for len(m.jobs) > 0 && m.jobs[0].publishAt <= st.Cycle() {
		m.free = append(m.free, m.cur)
		m.cur = m.jobs[0].tree
		// Shift instead of reslicing: m.jobs = m.jobs[1:] would pin the
		// backing array's consumed head slots (and their trees) forever.
		n := copy(m.jobs, m.jobs[1:])
		m.jobs[n] = mstJob{}
		m.jobs = m.jobs[:n]
	}
	if (st.Cycle()-1)%m.k == 0 {
		m.refresh(st)
		m.jobs = append(m.jobs, mstJob{
			publishAt: st.Cycle() + m.tau,
			tree:      m.work.CloneInto(m.popFree()),
		})
	}
}

// refresh applies the activity snapshot (paper section 4.2 / Figure 9:
// each edge weighs the max of its endpoints' sliding-window activity) to
// the working tree. Edges whose weight actually changed go through
// Tree.UpdateWeight one at a time; a batch above fullRebuildFraction of
// the graph triggers one full allocation-free recompute instead.
func (m *mstPipeline) refresh(st *sim.State) {
	// One Activity call per ancilla, not two per edge: the vertices of the
	// ancilla graph are the dense ancilla IDs.
	for v := range m.act {
		m.act[v] = st.Activity(v)
	}
	m.chgID, m.chgW = m.chgID[:0], m.chgW[:0]
	for e := 0; e < m.g.NumEdges(); e++ {
		ed := m.g.Edge(e)
		w := m.act[ed.U]
		if a := m.act[ed.V]; a > w {
			w = a
		}
		w += m.eps[e]
		if w != ed.W {
			m.chgID = append(m.chgID, int32(e))
			m.chgW = append(m.chgW, w)
		}
	}
	if len(m.chgID) > int(fullRebuildFraction*float64(m.g.NumEdges())) {
		for i, e := range m.chgID {
			m.g.SetWeight(int(e), m.chgW[i])
		}
		graph.KruskalInto(m.g, m.work, m.dsu, m.order)
		return
	}
	for i, e := range m.chgID {
		m.work.UpdateWeight(int(e), m.chgW[i])
	}
}

// current returns the latest published tree.
func (m *mstPipeline) current() *graph.Tree { return m.cur }
