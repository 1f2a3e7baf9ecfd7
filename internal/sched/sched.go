// Package sched implements the paper's two baseline schedulers: the greedy
// shortest-path scheduler (after Javadi-Abhari et al.) and the
// AutoBraid-style row/column braid scheduler (after Hua et al.). Both are
// *static, layered* schedulers, exactly as the paper evaluates them
// (section 5.1): gates execute layer by layer in ASAP order, and the next
// layer starts only after every gate of the current layer has finished —
// including all its non-deterministic RUS retries. Both use the naive Rz
// protocol: exactly one ancilla is reserved for preparing |m_theta>, with
// no parallel preparation and no eager preparation of the correction state.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/sim"
)

// PathFinder selects a routing path for a CNOT: it returns a contiguous
// sequence of free ancilla tiles starting at one of srcs and ending at one
// of dsts, or nil if none is currently available.
type PathFinder func(g *lattice.Grid, srcs, dsts []lattice.Coord, blocked func(lattice.Coord) bool) []lattice.Coord

// NewGreedy returns the greedy shortest-path baseline: BFS over free
// ancilla tiles from the control's Z edge to the target's X edge.
func NewGreedy() sim.Scheduler {
	return &layered{
		name: "greedy",
		path: func(g *lattice.Grid, srcs, dsts []lattice.Coord, blocked func(lattice.Coord) bool) []lattice.Coord {
			return g.ShortestAncillaPath(srcs, dsts, blocked)
		},
	}
}

// NewAutoBraid returns the AutoBraid-style baseline: row/column braid
// ("L"-shaped) corridors between endpoint ancillas, trying every
// (source, destination) endpoint combination and keeping the shortest
// braid. When no braid corridor is open it falls back to BFS so the
// schedule can always make progress.
func NewAutoBraid() sim.Scheduler {
	return &layered{
		name: "autobraid",
		path: func(g *lattice.Grid, srcs, dsts []lattice.Coord, blocked func(lattice.Coord) bool) []lattice.Coord {
			var best []lattice.Coord
			for _, s := range srcs {
				if blocked(s) || g.Kind(s) != lattice.TileAncilla {
					continue
				}
				for _, d := range dsts {
					if blocked(d) || g.Kind(d) != lattice.TileAncilla {
						continue
					}
					if p := g.BraidPath(s, d, blocked); p != nil && (best == nil || len(p) < len(best)) {
						best = p
					}
				}
			}
			if best != nil {
				return best
			}
			return g.ShortestAncillaPath(srcs, dsts, blocked)
		},
	}
}

// layered is the shared static-scheduler machinery.
type layered struct {
	name string
	path PathFinder

	layer   int      // current executing layer
	left    int      // unfinished gates in the current layer
	byLayer [][]int  // layer -> node IDs, sorted by descending height
	drivers []driver // node -> its gate's state machine while it executes, else nil
}

// driver advances one gate's execution state machine each cycle.
type driver interface {
	tick(st *sim.State)
	opDone(st *sim.State, op *sim.Op, success bool) (finished bool)
}

func (l *layered) Name() string { return l.name }

func (l *layered) Init(st *sim.State) error {
	dag := st.DAG()
	l.byLayer = make([][]int, dag.NumLayers())
	for n := 0; n < dag.Len(); n++ {
		l.byLayer[dag.Layer(n)] = append(l.byLayer[dag.Layer(n)], n)
	}
	for _, nodes := range l.byLayer {
		sort.Slice(nodes, func(a, b int) bool {
			ha, hb := dag.Height(nodes[a]), dag.Height(nodes[b])
			if ha != hb {
				return ha > hb // critical path first
			}
			return nodes[a] < nodes[b]
		})
	}
	l.layer = -1
	l.drivers = make([]driver, dag.Len())
	return nil
}

func (l *layered) OnCycle(st *sim.State) {
	if l.left == 0 {
		l.layer++
		if l.layer >= len(l.byLayer) {
			return
		}
		nodes := l.byLayer[l.layer]
		l.left = len(nodes)
		for _, n := range nodes {
			l.drivers[n] = l.newDriver(st, n)
		}
	}
	if l.layer >= len(l.byLayer) {
		return
	}
	for _, n := range l.byLayer[l.layer] {
		if d := l.drivers[n]; d != nil {
			d.tick(st)
		}
	}
}

func (l *layered) OnOpDone(st *sim.State, op *sim.Op, success bool) {
	if op.Node < 0 || op.Node >= len(l.drivers) {
		return // not a gate's op (e.g. a bare preparation)
	}
	d := l.drivers[op.Node]
	if d == nil {
		return
	}
	if d.opDone(st, op, success) {
		l.drivers[op.Node] = nil
		l.left--
	}
}

// newDriver builds the state machine for one gate.
func (l *layered) newDriver(st *sim.State, n int) driver {
	g := st.DAG().Gate(n)
	switch g.Kind {
	case circuit.KindCNOT:
		return &cnotDriver{node: n, control: g.Control(), target: g.Target(), find: l.path}
	case circuit.KindRz:
		return &rzDriver{node: n, q: g.Qubit(), angle: g.Angle}
	case circuit.KindH:
		return &hDriver{node: n, q: g.Qubit()}
	default:
		panic(fmt.Sprintf("sched: unschedulable gate kind %v", g.Kind))
	}
}

// blockedByOps returns the standard "tile is reserved" predicate.
func blockedByOps(st *sim.State) func(lattice.Coord) bool {
	return func(c lattice.Coord) bool { return !st.TileFree(c) }
}

// freeAdjacentAncilla returns a free ancilla tile adjacent to qubit q, or
// ok=false.
func freeAdjacentAncilla(st *sim.State, q int) (lattice.Coord, bool) {
	var buf []lattice.Coord
	buf = st.Grid().AncillaNeighbors(st.Grid().DataTile(q), buf)
	for _, c := range buf {
		if st.TileFree(c) {
			return c, true
		}
	}
	return lattice.Coord{}, false
}
