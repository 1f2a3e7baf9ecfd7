package core

import (
	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/rus"
	"repro/internal/sim"
)

// drive.go advances each live gate one scheduling step per cycle and
// handles op completions: the realtime half of RESCQ.

// defaultMaxParallelPreps bounds how many ancillas one Rz gate prepares on
// simultaneously. Preparation at the paper's operating points succeeds
// within one or two attempts, so two parallel attempts already make the
// first-cycle success probability ~95%+; reserving more starves
// neighbouring gates (paper sections 1 and 3.2).
const defaultMaxParallelPreps = 2

// driveCNOT performs pending edge rotations as soon as their endpoint
// ancilla reaches the gate, then fires the 2-cycle surgery once every path
// ancilla is simultaneously free with this gate at its queue head.
func (s *Scheduler) driveCNOT(st *sim.State, gs *gateState) {
	if gs.opBusy {
		return
	}
	head := gs.path[0]
	tail := gs.path[len(gs.path)-1]
	if gs.rotC && !gs.rotCBusy && st.QubitFree(gs.control) &&
		s.tileReady(st, head, gs.node) {
		if _, err := st.StartEdgeRotation(gs.node, gs.control, head); err == nil {
			gs.rotCBusy = true
		}
	}
	if gs.rotT && !gs.rotTBusy && st.QubitFree(gs.target) &&
		s.tileReady(st, tail, gs.node) {
		if _, err := st.StartEdgeRotation(gs.node, gs.target, tail); err == nil {
			gs.rotTBusy = true
		}
	}
	if gs.rotC || gs.rotT {
		return
	}
	if !st.QubitFree(gs.control) || !st.QubitFree(gs.target) {
		return
	}
	for _, c := range gs.path {
		if !s.tileReady(st, c, gs.node) {
			return
		}
	}
	if _, err := st.StartCNOT(gs.node, gs.control, gs.target, gs.path); err == nil {
		gs.opBusy = true
	}
}

// tileReady reports whether tile c is a free ancilla and the gate owns the
// head of its queue.
func (s *Scheduler) tileReady(st *sim.State, c lattice.Coord, node int) bool {
	g := st.Grid()
	i, ok := g.Index(c)
	if !ok {
		return false
	}
	id := g.AncillaIDAt(i)
	return id >= 0 && !st.Reserved()[i] && s.queues.head(id) == node
}

// driveRz runs the parallel-preparation protocol: start (or retarget)
// preparations on every candidate tile the gate currently heads, and
// inject as soon as a matching state is parked and the data qubit plus any
// routing helper are available. While an injection of angle a is in
// flight, the other candidates prepare the correction state |m_2a> —
// the paper's eager in-place queue rewrite.
func (s *Scheduler) driveRz(st *sim.State, gs *gateState) {
	if gs.needRotate {
		s.driveRzRotation(st, gs)
		return
	}
	desired := gs.angle
	if gs.injecting {
		if s.cfg.DisableEagerPrep {
			return // ablation: no correction-state preparation in flight
		}
		desired = gs.angle.Double()
	}
	if !desired.IsClifford() {
		// Count this gate's useful preparations and clear stale ones.
		// Over-provisioning is capped: "allocating excessive ancilla for
		// a single gate operation will starve ancillas for neighbouring
		// gate operations" (paper section 1), and assigned ancillas are
		// reclaimed when redundant (section 3.2).
		active := 0
		for _, cand := range gs.cands {
			op := st.TileOp(cand.prep)
			if op == nil || op.Kind != sim.OpPrep || op.Node != gs.node {
				continue
			}
			if op.Angle.Equal(desired) {
				active++
				continue
			}
			// Stale target: rewrite in place (discard/cancel, restart at
			// the doubled angle below).
			if op.Prepared() {
				_ = st.DiscardPrepared(cand.prep)
			} else {
				_ = st.CancelPrep(cand.prep)
			}
		}
		for _, cand := range gs.cands {
			if active >= s.cfg.MaxParallelPreps {
				break
			}
			if st.TileOp(cand.prep) == nil && s.tileReady(st, cand.prep, gs.node) {
				if _, err := st.StartPrep(gs.node, cand.prep, desired); err == nil {
					active++
				}
			}
		}
	}
	if !gs.injecting {
		s.tryInject(st, gs)
	}
}

// driveRzRotation handles the no-viable-geometry fallback: rotate the data
// qubit using the first reserved ancilla that reaches the gate.
func (s *Scheduler) driveRzRotation(st *sim.State, gs *gateState) {
	if gs.rotBusy || !st.QubitFree(gs.q) {
		return
	}
	grid := st.Grid()
	s.nbrBufA = grid.AncillaNeighbors(grid.DataTile(gs.q), s.nbrBufA[:0])
	for _, c := range s.nbrBufA {
		if s.tileReady(st, c, gs.node) {
			if _, err := st.StartEdgeRotation(gs.node, gs.q, c); err == nil {
				gs.rotBusy = true
				return
			}
		}
	}
}

// tryInject starts an injection if a prepared |m_angle> is parked on some
// candidate and the geometry's resources are available.
func (s *Scheduler) tryInject(st *sim.State, gs *gateState) {
	if gs.injecting || gs.needRotate || !st.QubitFree(gs.q) {
		return
	}
	for _, cand := range gs.cands {
		op := st.TileOp(cand.prep)
		if op == nil || op.Kind != sim.OpPrep || op.Node != gs.node ||
			!op.Prepared() || !op.Angle.Equal(gs.angle) {
			continue
		}
		if cand.kind == rus.InjectCNOT && !s.tileReady(st, cand.helper, gs.node) {
			continue
		}
		if _, err := st.StartInjection(gs.node, gs.q, cand.prep, cand.kind, cand.helper, gs.angle); err == nil {
			gs.injecting = true
			return
		}
	}
}

// driveH fires the Hadamard on the first reserved ancilla that reaches the
// gate.
func (s *Scheduler) driveH(st *sim.State, gs *gateState) {
	if gs.opBusy || !st.QubitFree(gs.q) {
		return
	}
	grid := st.Grid()
	s.nbrBufA = grid.AncillaNeighbors(grid.DataTile(gs.q), s.nbrBufA[:0])
	for _, c := range s.nbrBufA {
		if s.tileReady(st, c, gs.node) {
			if _, err := st.StartHadamard(gs.node, gs.q, c); err == nil {
				gs.opBusy = true
				return
			}
		}
	}
}

// rotationDone clears rotation flags and, for the Rz fallback, recomputes
// the injection candidates under the new orientation.
func (s *Scheduler) rotationDone(st *sim.State, gs *gateState, op *sim.Op) {
	switch gs.kind {
	case circuit.KindCNOT:
		if op.Qubits[0] == gs.control {
			gs.rotC, gs.rotCBusy = false, false
		} else {
			gs.rotT, gs.rotTBusy = false, false
		}
	case circuit.KindRz:
		gs.rotBusy = false
		gs.cands = s.rzCandidates(st.Grid(), gs.q, gs.cands[:0])
		gs.needRotate = len(gs.cands) == 0
		// If even the flipped orientation offers nothing the fabric is
		// unusable for this qubit; Compress guarantees this cannot
		// happen, but rotating back keeps the scheduler live regardless.
	}
}

// injectionDone resolves the coin flip: success completes the gate (all
// remaining preparations are dropped); failure doubles the required angle
// — if the doubled angle is Clifford the correction is free and the gate
// completes, otherwise the eager |m_2a> preparations keep the retry chain
// moving.
func (s *Scheduler) injectionDone(st *sim.State, gs *gateState, success bool) {
	gs.injecting = false
	if success {
		s.complete(st, gs)
		return
	}
	gs.angle = gs.angle.Double()
	if gs.angle.IsClifford() {
		s.complete(st, gs)
		return
	}
	// Retry immediately if an eager correction state is already parked.
	s.tryInject(st, gs)
}
