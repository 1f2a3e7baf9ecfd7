// Package sched implements the paper's two baseline schedulers: the greedy
// shortest-path scheduler (after Javadi-Abhari et al.) and the
// AutoBraid-style row/column braid scheduler (after Hua et al.). Both are
// *static, layered* schedulers, exactly as the paper evaluates them
// (section 5.1): gates execute layer by layer in ASAP order, and the next
// layer starts only after every gate of the current layer has finished —
// including all its non-deterministic RUS retries. Both use the naive Rz
// protocol: exactly one ancilla is reserved for preparing |m_theta>, with
// no parallel preparation and no eager preparation of the correction state.
// New builds any of the paper's three schedulers by name, RESCQ included
// (from internal/core).
package sched

import (
	"fmt"
	"slices"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/sim"
)

// PathFinder selects a routing path for a CNOT: it appends to buf a
// contiguous sequence of free ancilla tiles starting at one of srcs and
// ending at one of dsts and returns the extended slice, or returns nil if
// none is currently available.
type PathFinder func(g *lattice.Grid, srcs, dsts []lattice.Coord, blocked func(lattice.Coord) bool, buf []lattice.Coord) []lattice.Coord

// NewGreedy returns the greedy shortest-path baseline: BFS over free
// ancilla tiles from the control's Z edge to the target's X edge.
func NewGreedy() sim.Scheduler {
	return &layered{
		name: "greedy",
		path: func(g *lattice.Grid, srcs, dsts []lattice.Coord, blocked func(lattice.Coord) bool, buf []lattice.Coord) []lattice.Coord {
			return g.ShortestAncillaPathInto(srcs, dsts, blocked, buf)
		},
	}
}

// NewAutoBraid returns the AutoBraid-style baseline: row/column braid
// ("L"-shaped) corridors between endpoint ancillas, trying every
// (source, destination) endpoint combination and keeping the shortest
// braid. When no braid corridor is open it falls back to BFS so the
// schedule can always make progress.
func NewAutoBraid() sim.Scheduler {
	var cand []lattice.Coord // per-run scratch for the braid being tried
	return &layered{
		name: "autobraid",
		path: func(g *lattice.Grid, srcs, dsts []lattice.Coord, blocked func(lattice.Coord) bool, buf []lattice.Coord) []lattice.Coord {
			n, best := len(buf), -1 // best: length of the shortest braid so far
			for _, s := range srcs {
				if blocked(s) || g.Kind(s) != lattice.TileAncilla {
					continue
				}
				for _, d := range dsts {
					if blocked(d) || g.Kind(d) != lattice.TileAncilla {
						continue
					}
					p := g.BraidPathInto(s, d, blocked, cand[:0])
					if p == nil {
						continue
					}
					cand = p
					if best < 0 || len(p) < best {
						buf, best = append(buf[:n], p...), len(p)
					}
				}
			}
			if best >= 0 {
				return buf
			}
			return g.ShortestAncillaPathInto(srcs, dsts, blocked, buf)
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

	// Driver pools, sized in Init to the widest layer of each gate kind
	// and reused layer after layer, so running a layer allocates nothing.
	cnots []cnotDriver
	rzs   []rzDriver
	hs    []hDriver

	sc scratch
}

// scratch is per-run storage shared by all drivers. Drivers run one at a
// time and none keeps a scratch slice across calls.
type scratch struct {
	blocked func(lattice.Coord) bool // "tile is reserved", built once in Init

	nbrs, zEdge, xEdge []lattice.Coord
	dsts               []lattice.Coord
	cands              []prepCandidate
}

// driver advances one gate's execution state machine each cycle.
type driver interface {
	tick(st *sim.State, sc *scratch)
	opDone(st *sim.State, op *sim.Op, success bool) (finished bool)
}

func (l *layered) Name() string { return l.name }

func (l *layered) Init(st *sim.State) error {
	dag := st.DAG()
	// Bucket the nodes by layer in one flat array (a counting sort).
	start := make([]int, dag.NumLayers()+1)
	for n := 0; n < dag.Len(); n++ {
		start[dag.Layer(n)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	flat := make([]int, dag.Len())
	l.byLayer = make([][]int, dag.NumLayers())
	for i := range l.byLayer {
		l.byLayer[i] = flat[start[i]:start[i]:start[i+1]]
	}
	for n := 0; n < dag.Len(); n++ {
		l.byLayer[dag.Layer(n)] = append(l.byLayer[dag.Layer(n)], n)
	}
	var widest [3]int // CNOT, Rz, H drivers needed by the widest layer
	for _, nodes := range l.byLayer {
		slices.SortFunc(nodes, func(a, b int) int {
			if ha, hb := dag.Height(a), dag.Height(b); ha != hb {
				return hb - ha // critical path first
			}
			return a - b
		})
		var count [3]int
		for _, n := range nodes {
			count[driverPool(dag.Gate(n).Kind)]++
		}
		for i := range widest {
			widest[i] = max(widest[i], count[i])
		}
	}
	l.cnots = make([]cnotDriver, widest[0])
	l.rzs = make([]rzDriver, widest[1])
	l.hs = make([]hDriver, widest[2])
	l.layer = -1
	l.drivers = make([]driver, dag.Len())
	l.sc.blocked = func(c lattice.Coord) bool { return !st.TileFree(c) }
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
		var used [3]int
		for _, n := range nodes {
			l.drivers[n] = l.newDriver(st, n, &used)
		}
	}
	if l.layer >= len(l.byLayer) {
		return
	}
	for _, n := range l.byLayer[l.layer] {
		if d := l.drivers[n]; d != nil {
			d.tick(st, &l.sc)
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

// driverPool maps a gate kind to its driver pool index.
func driverPool(k circuit.Kind) int {
	switch k {
	case circuit.KindCNOT:
		return 0
	case circuit.KindRz:
		return 1
	case circuit.KindH:
		return 2
	default:
		panic(fmt.Sprintf("sched: unschedulable gate kind %v", k))
	}
}

// newDriver resets the next free pooled state machine for gate n; used
// counts the pool slots the current layer has taken.
func (l *layered) newDriver(st *sim.State, n int, used *[3]int) driver {
	g := st.DAG().Gate(n)
	i := driverPool(g.Kind)
	slot := used[i]
	used[i]++
	switch i {
	case 0:
		d := &l.cnots[slot]
		*d = cnotDriver{node: n, control: g.Control(), target: g.Target(), find: l.path, path: d.path[:0]}
		return d
	case 1:
		d := &l.rzs[slot]
		*d = rzDriver{node: n, q: g.Qubit(), angle: g.Angle}
		return d
	default:
		d := &l.hs[slot]
		*d = hDriver{node: n, q: g.Qubit()}
		return d
	}
}

// freeAdjacentAncilla returns a free ancilla tile adjacent to qubit q, or
// ok=false.
func freeAdjacentAncilla(st *sim.State, q int, sc *scratch) (lattice.Coord, bool) {
	sc.nbrs = st.Grid().AncillaNeighbors(st.Grid().DataTile(q), sc.nbrs[:0])
	for _, c := range sc.nbrs {
		if st.TileFree(c) {
			return c, true
		}
	}
	return lattice.Coord{}, false
}
