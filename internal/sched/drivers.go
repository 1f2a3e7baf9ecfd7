package sched

import (
	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/rus"
	"repro/internal/sim"
)

// drivers.go holds the per-gate state machines shared by the static
// baseline schedulers: CNOT routing with on-demand edge rotations, the
// naive single-ancilla Rz protocol, and Hadamard execution.

// cnotDriver executes one CNOT the way the paper's static baselines do
// (section 3.1 / Figure 5): the routing path is selected once, by length
// alone, between *any* ancilla neighbours of the two qubits — without
// regard to which edges the endpoints expose — and edge-rotation gates are
// then inserted as required. A path through the single ancilla between two
// adjacent qubits therefore costs 3+2=5 cycles when one endpoint edge is
// wrong and 3+3+2=8 when both are (rotations are sequential), reproducing
// the 5- and 8-cycle modes of the paper's Figure 5 histogram.
type cnotDriver struct {
	node            int
	control, target int
	find            PathFinder

	path       []lattice.Coord // chosen once, then kept (static schedule); empty until then
	rotC, rotT bool
	rotating   bool // an edge rotation op is in flight
	inFlight   bool // the CNOT op is in flight
}

func (d *cnotDriver) tick(st *sim.State, sc *scratch) {
	if d.rotating || d.inFlight {
		return
	}
	g := st.Grid()
	if len(d.path) == 0 {
		if !st.QubitFree(d.control) || !st.QubitFree(d.target) {
			return
		}
		sc.nbrs = g.AncillaNeighbors(g.DataTile(d.control), sc.nbrs[:0])
		sc.dsts = g.AncillaNeighbors(g.DataTile(d.target), sc.dsts[:0])
		p := d.find(g, sc.nbrs, sc.dsts, st.Reserved(), d.path[:0])
		if p == nil {
			return // congested; retry next cycle
		}
		d.path = p
		d.rotC = !adjacentAcross(g, d.control, p[0], g.ZEdgeDirs(d.control))
		d.rotT = !adjacentAcross(g, d.target, p[len(p)-1], g.XEdgeDirs(d.target))
	}
	// Rotations first, strictly sequentially (control then target).
	if d.rotC {
		if st.QubitFree(d.control) && st.TileFree(d.path[0]) {
			if _, err := st.StartEdgeRotation(d.node, d.control, d.path[0]); err == nil {
				d.rotating = true
			}
		}
		return
	}
	if d.rotT {
		last := d.path[len(d.path)-1]
		if st.QubitFree(d.target) && st.TileFree(last) {
			if _, err := st.StartEdgeRotation(d.node, d.target, last); err == nil {
				d.rotating = true
			}
		}
		return
	}
	if !st.QubitFree(d.control) || !st.QubitFree(d.target) {
		return
	}
	for _, c := range d.path {
		if !st.TileFree(c) {
			return
		}
	}
	if _, err := st.StartCNOT(d.node, d.control, d.target, d.path); err == nil {
		d.inFlight = true
	}
}

func (d *cnotDriver) opDone(st *sim.State, op *sim.Op, success bool) bool {
	switch op.Kind {
	case sim.OpEdgeRotation:
		d.rotating = false
		if op.Qubits[0] == d.control {
			d.rotC = false
		} else {
			d.rotT = false
		}
		return false
	case sim.OpCNOT:
		st.CompleteGate(d.node)
		return true
	}
	return false
}

// adjacentAcross reports whether tile t neighbours qubit q in one of dirs.
func adjacentAcross(g *lattice.Grid, q int, t lattice.Coord, dirs [2]lattice.Dir) bool {
	c := g.DataTile(q)
	return c.Step(dirs[0]) == t || c.Step(dirs[1]) == t
}

// rzDriver executes one Rz with the baselines' naive protocol (paper
// section 5.1): exactly one ancilla is reserved; |m_theta> is prepared on
// it, injected, and on failure the doubled correction angle is prepared on
// the *same* ancilla from scratch — no parallel attempts, no eager
// preparation.
type rzDriver struct {
	node  int
	q     int
	angle circuit.Angle

	prepTile lattice.Coord
	helper   lattice.Coord
	injKind  rus.InjectionKind

	phase rzPhase
}

type rzPhase uint8

const (
	rzIdle rzPhase = iota
	rzRotating
	rzPreparing
	rzPrepared
	rzInjecting
)

func (d *rzDriver) tick(st *sim.State, sc *scratch) {
	switch d.phase {
	case rzIdle:
		d.begin(st, sc)
	case rzPrepared:
		d.tryInject(st)
	}
}

// begin reserves an ancilla and starts preparing the current angle.
// Preference order mirrors the STAR protocol: a Z-edge neighbour with the
// 1-cycle ZZ injection, else a diagonal ancilla routed through an X-edge
// helper with the 2-cycle CNOT injection, else an edge rotation to expose
// a usable edge.
func (d *rzDriver) begin(st *sim.State, sc *scratch) {
	g := st.Grid()
	sc.zEdge = g.ZEdgeAncillas(d.q, sc.zEdge[:0])
	for _, t := range sc.zEdge {
		if !st.TileFree(t) {
			continue
		}
		if _, err := st.StartPrep(d.node, t, d.angle); err == nil {
			d.prepTile, d.injKind = t, rus.InjectZZ
			d.phase = rzPreparing
			return
		}
	}
	if cand := cnotInjectionCandidates(st, d.q, sc); len(cand) > 0 {
		for _, pc := range cand {
			if !st.TileFree(pc.prep) {
				continue
			}
			if _, err := st.StartPrep(d.node, pc.prep, d.angle); err == nil {
				d.prepTile, d.helper, d.injKind = pc.prep, pc.helper, rus.InjectCNOT
				d.phase = rzPreparing
				return
			}
		}
		return // candidates exist but are busy; wait
	}
	if len(sc.zEdge) > 0 {
		return // Z-edge tiles exist but are busy; wait
	}
	// No usable geometry in this orientation: rotate the qubit.
	if !st.QubitFree(d.q) {
		return
	}
	if helper, ok := freeAdjacentAncilla(st, d.q, sc); ok {
		if _, err := st.StartEdgeRotation(d.node, d.q, helper); err == nil {
			d.phase = rzRotating
		}
	}
}

func (d *rzDriver) tryInject(st *sim.State) {
	if !st.QubitFree(d.q) {
		return
	}
	if d.injKind == rus.InjectCNOT && !st.TileFree(d.helper) {
		return
	}
	if _, err := st.StartInjection(d.node, d.q, d.prepTile, d.injKind, d.helper, d.angle); err == nil {
		d.phase = rzInjecting
	}
}

func (d *rzDriver) opDone(st *sim.State, op *sim.Op, success bool) bool {
	switch op.Kind {
	case sim.OpEdgeRotation:
		d.phase = rzIdle
		return false
	case sim.OpPrep:
		d.phase = rzPrepared
		d.tryInject(st)
		return false
	case sim.OpInjection:
		if success {
			st.CompleteGate(d.node)
			return true
		}
		d.angle = d.angle.Double()
		if d.angle.IsClifford() {
			// The required correction is Clifford: absorbed into the
			// frame, the gate is done.
			st.CompleteGate(d.node)
			return true
		}
		d.phase = rzIdle // re-prepare from scratch: the naive protocol
		return false
	}
	return false
}

// prepCandidate pairs a diagonal preparation tile with its X-edge routing
// helper for CNOT-type injection.
type prepCandidate struct {
	prep, helper lattice.Coord
}

// cnotInjectionCandidates enumerates (prep, helper) pairs for qubit q into
// sc.cands: the helper must be an ancilla on q's X edge and the prep tile
// an ancilla adjacent to the helper (diagonal to q, or further along the
// row/column).
func cnotInjectionCandidates(st *sim.State, q int, sc *scratch) []prepCandidate {
	g := st.Grid()
	out := sc.cands[:0]
	dataTile := g.DataTile(q)
	sc.xEdge = g.XEdgeAncillas(q, sc.xEdge[:0])
	for _, helper := range sc.xEdge {
		for dir := lattice.North; dir <= lattice.West; dir++ {
			p := helper.Step(dir)
			if p == dataTile || g.Kind(p) != lattice.TileAncilla {
				continue
			}
			out = append(out, prepCandidate{prep: p, helper: helper})
		}
	}
	sc.cands = out
	return out
}

// hDriver executes one Hadamard via patch deformation with one adjacent
// ancilla.
type hDriver struct {
	node     int
	q        int
	inFlight bool
}

func (d *hDriver) tick(st *sim.State, sc *scratch) {
	if d.inFlight || !st.QubitFree(d.q) {
		return
	}
	if helper, ok := freeAdjacentAncilla(st, d.q, sc); ok {
		if _, err := st.StartHadamard(d.node, d.q, helper); err == nil {
			d.inFlight = true
		}
	}
}

func (d *hDriver) opDone(st *sim.State, op *sim.Op, success bool) bool {
	if op.Kind == sim.OpHadamard {
		st.CompleteGate(d.node)
		return true
	}
	return false
}
