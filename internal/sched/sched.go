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
	"repro/internal/freelist"
	"repro/internal/lattice"
	"repro/internal/sim"
)

// PathFinder selects a routing path for a CNOT: it appends to buf a
// contiguous sequence of free ancilla tiles starting at one of srcs and
// ending at one of dsts and returns the extended slice, or returns nil if
// none is currently available. reserved marks the busy tiles by tile
// index (sim.State.Reserved).
type PathFinder func(g *lattice.Grid, srcs, dsts []lattice.Coord, reserved []bool, buf []lattice.Coord) []lattice.Coord

// The baselines' free lists keep released instances, whose Init reuses
// the storage of the run they last scheduled. Each list holds one policy,
// so a pooled instance keeps its name and router for life.
var (
	greedyFree    = freelist.New(newGreedy)
	autoBraidFree = freelist.New(newAutoBraid)
)

// NewGreedy returns the greedy shortest-path baseline: BFS over free
// ancilla tiles from the control's Z edge to the target's X edge.
func NewGreedy() sim.Scheduler { return take(greedyFree) }

// NewAutoBraid returns the AutoBraid-style baseline: row/column braid
// ("L"-shaped) corridors between endpoint ancillas, trying every
// (source, destination) endpoint combination and keeping the shortest
// braid. When no braid corridor is open it falls back to BFS so the
// schedule can always make progress.
func NewAutoBraid() sim.Scheduler { return take(autoBraidFree) }

// take hands out an instance of free's policy, reused when one has been
// released.
func take(free *freelist.List[layered]) *layered {
	l := free.Get()
	l.free = free
	return l
}

func newGreedy() *layered {
	return &layered{
		name: "greedy",
		path: func(g *lattice.Grid, srcs, dsts []lattice.Coord, reserved []bool, buf []lattice.Coord) []lattice.Coord {
			return g.ShortestAncillaPathInto(srcs, dsts, reserved, buf)
		},
	}
}

func newAutoBraid() *layered {
	var cand []lattice.Coord // per-instance scratch for the braid being tried
	return &layered{
		name: "autobraid",
		path: func(g *lattice.Grid, srcs, dsts []lattice.Coord, reserved []bool, buf []lattice.Coord) []lattice.Coord {
			n, best := len(buf), -1 // best: length of the shortest braid so far
			for _, s := range srcs {
				if !open(g, s, reserved) {
					continue
				}
				for _, d := range dsts {
					if !open(g, d, reserved) {
						continue
					}
					p := g.BraidPathInto(s, d, reserved, cand[:0])
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
			return g.ShortestAncillaPathInto(srcs, dsts, reserved, buf)
		},
	}
}

// open reports whether c is a live ancilla that reserved does not mark.
func open(g *lattice.Grid, c lattice.Coord, reserved []bool) bool {
	i, ok := g.Index(c)
	return ok && g.KindAt(i) == lattice.TileAncilla && !reserved[i]
}

// layered is the shared static-scheduler machinery. It implements
// sim.Scheduler.
type layered struct {
	name string
	path PathFinder
	free *freelist.List[layered] // the list to release to; nil once released

	layer   int      // current executing layer
	left    int      // unfinished gates in the current layer
	byLayer [][]int  // layer -> node IDs, sorted by descending height
	flat    []int    // byLayer's backing array
	start   []int    // byLayer's bucket starts in flat (Init's counting sort)
	running []int    // the current layer's unfinished nodes, in byLayer order
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

// Release implements sim.Scheduler: it returns l to the free list it came
// from. Releasing twice is harmless; using l after Release is not.
func (l *layered) Release() {
	if f := l.free; f != nil {
		l.free = nil
		f.Put(l)
	}
}

// Init resets every piece of per-run state, keeping the capacity an
// earlier run gave it.
func (l *layered) Init(st *sim.State) error {
	dag := st.DAG()
	// Bucket the nodes by layer in one flat array (a counting sort).
	l.start = slices.Grow(l.start[:0], dag.NumLayers()+1)[:dag.NumLayers()+1]
	start := l.start
	clear(start)
	for n := 0; n < dag.Len(); n++ {
		start[dag.Layer(n)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	l.flat = slices.Grow(l.flat[:0], dag.Len())[:dag.Len()]
	l.byLayer = slices.Grow(l.byLayer[:0], dag.NumLayers())[:dag.NumLayers()]
	for i := range l.byLayer {
		l.byLayer[i] = l.flat[start[i]:start[i]:start[i+1]]
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
	// newDriver overwrites a pooled driver whole, so the pools need no
	// clearing, and the CNOT drivers keep their path buffers.
	l.cnots = slices.Grow(l.cnots[:0], widest[0])[:widest[0]]
	l.rzs = slices.Grow(l.rzs[:0], widest[1])[:widest[1]]
	l.hs = slices.Grow(l.hs[:0], widest[2])[:widest[2]]
	l.layer, l.left = -1, 0
	l.running = l.running[:0]
	l.drivers = slices.Grow(l.drivers[:0], dag.Len())[:dag.Len()]
	clear(l.drivers)
	return nil
}

// OnCycle starts the next layer once the current one is finished, and
// ticks the current layer's unfinished gates in byLayer order, dropping
// the ones that finished since the last cycle from the running list.
func (l *layered) OnCycle(st *sim.State) {
	if l.left == 0 {
		l.layer++
		if l.layer >= len(l.byLayer) {
			return
		}
		nodes := l.byLayer[l.layer]
		l.left = len(nodes)
		l.running = append(l.running[:0], nodes...)
		var used [3]int
		for _, n := range nodes {
			l.drivers[n] = l.newDriver(st, n, &used)
		}
	}
	w := 0
	for _, n := range l.running {
		if d := l.drivers[n]; d != nil {
			l.running[w] = n
			w++
			d.tick(st, &l.sc)
		}
	}
	l.running = l.running[:w]
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
