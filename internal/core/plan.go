package core

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/rus"
	"repro/internal/sim"
)

// gateState carries RESCQ's per-gate scheduling state — the Table 2
// metadata plus the routing plan produced at enqueue time.
type gateState struct {
	node int
	kind circuit.Kind
	done bool

	// ancs lists every ancilla (by ID) whose queue holds this gate.
	ancs []int

	// CNOT plan (Algorithm 1).
	control, target    int
	path               []lattice.Coord
	rotC, rotT         bool // edge rotations still required
	rotCBusy, rotTBusy bool
	opBusy             bool // the main op (CNOT / H) is in flight

	// Rz state.
	q          int
	angle      circuit.Angle // current required rotation; doubles on failure
	cands      []injCand
	injecting  bool
	needRotate bool // no viable injection geometry until the qubit rotates
	rotBusy    bool
}

// injCand is one way to deliver |m_theta> into the data qubit.
type injCand struct {
	prep   lattice.Coord
	helper lattice.Coord // X-edge routing ancilla; unused for ZZ
	kind   rus.InjectionKind
}

// plan builds the gateState for a newly ready node, including the CNOT
// routing decision and the Rz preparation-candidate set, and collects the
// ancilla queues the gate must join.
func (s *Scheduler) plan(st *sim.State, n int) *gateState {
	g := st.DAG().Gate(n)
	gs := s.newGateState(n, g.Kind)
	switch g.Kind {
	case circuit.KindCNOT:
		gs.control, gs.target = g.Control(), g.Target()
		s.planCNOT(st, gs)
	case circuit.KindRz:
		gs.q, gs.angle = g.Qubit(), g.Angle
		s.planRz(st, gs)
	case circuit.KindH:
		gs.q = g.Qubit()
		s.planH(st, gs)
	}
	return gs
}

// planRz reserves, per paper section 4.1, every ancilla adjacent to the
// data qubit plus the diagonal ancillas reachable through an X-edge
// routing helper, and derives the injection candidates:
//   - each Z-edge neighbour supports the 1-cycle ZZ injection;
//   - each (diagonal, X-edge helper) pair supports the 2-cycle CNOT
//     injection.
//
// If the current orientation exposes no viable candidate (possible on
// heavily compressed grids), the gate first performs an edge rotation.
func (s *Scheduler) planRz(st *sim.State, gs *gateState) {
	grid := st.Grid()
	reserve := func(c lattice.Coord) {
		id := grid.AncillaID(c)
		if id >= 0 && !containsInt(gs.ancs, id) {
			gs.ancs = append(gs.ancs, id)
		}
	}
	s.nbrBufA = grid.AncillaNeighbors(grid.DataTile(gs.q), s.nbrBufA[:0])
	for _, c := range s.nbrBufA {
		reserve(c)
	}
	s.nbrBufB = grid.DiagonalAncillas(gs.q, s.nbrBufB[:0])
	for _, c := range s.nbrBufB {
		reserve(c)
	}
	gs.cands = s.rzCandidates(grid, gs.q, gs.cands[:0])
	gs.needRotate = len(gs.cands) == 0
}

// rzCandidates appends to cands the injection options for qubit q under
// its current orientation. It uses nbrBufA and nbrBufB as scratch.
func (s *Scheduler) rzCandidates(grid *lattice.Grid, q int, cands []injCand) []injCand {
	s.nbrBufA = grid.ZEdgeAncillas(q, s.nbrBufA[:0])
	for _, t := range s.nbrBufA {
		cands = append(cands, injCand{prep: t, kind: rus.InjectZZ})
	}
	dataTile := grid.DataTile(q)
	s.nbrBufB = grid.XEdgeAncillas(q, s.nbrBufB[:0])
	for _, helper := range s.nbrBufB {
		for dir := lattice.North; dir <= lattice.West; dir++ {
			p := helper.Step(dir)
			if p == dataTile || grid.Kind(p) != lattice.TileAncilla {
				continue
			}
			// Preparation happens on the diagonal neighbours only (the
			// reserved set of section 4.1); tiles further out are not
			// enqueued and so cannot be used.
			dr, dc := p.Row-dataTile.Row, p.Col-dataTile.Col
			if dr*dr != 1 || dc*dc != 1 {
				continue
			}
			cands = append(cands, injCand{prep: p, helper: helper, kind: rus.InjectCNOT})
		}
	}
	return cands
}

// planH reserves all ancillas adjacent to the qubit; the Hadamard runs on
// whichever reaches the gate first.
func (s *Scheduler) planH(st *sim.State, gs *gateState) {
	grid := st.Grid()
	s.nbrBufA = grid.AncillaNeighbors(grid.DataTile(gs.q), s.nbrBufA[:0])
	for _, c := range s.nbrBufA {
		if id := grid.AncillaID(c); id >= 0 {
			gs.ancs = append(gs.ancs, id)
		}
	}
}

// pathLenPenalty is the expected extra wait per reserved path tile used in
// Algorithm 1's completion estimate.
const pathLenPenalty = 0.3

// planCNOT is Algorithm 1: consider every (control-neighbour,
// target-neighbour) ancilla pair — up to 16 — route between them on the
// latest published MST, estimate the completion time from the expected
// free times of the path's ancillas plus 3 cycles per required edge
// rotation, and keep the best plan.
func (s *Scheduler) planCNOT(st *sim.State, gs *gateState) {
	if s.cfg.DisableMSTRouting {
		s.planCNOTShortest(st, gs)
		return
	}
	grid := st.Grid()
	tree := s.mst.current()
	s.efEpoch++ // new planning pass: invalidate the expectedFree memo

	s.nbrBufA = grid.AncillaNeighbors(grid.DataTile(gs.control), s.nbrBufA[:0])
	s.nbrBufB = grid.AncillaNeighbors(grid.DataTile(gs.target), s.nbrBufB[:0])
	cNbrs, tNbrs := s.nbrBufA, s.nbrBufB
	zDirs := grid.ZEdgeDirs(gs.control)
	xDirs := grid.XEdgeDirs(gs.target)
	cTile := grid.DataTile(gs.control)
	tTile := grid.DataTile(gs.target)

	best := math.Inf(1)
	bestLen := math.MaxInt
	for _, eC := range cNbrs {
		rotC := eC != cTile.Step(zDirs[0]) && eC != cTile.Step(zDirs[1])
		u := grid.AncillaID(eC)
		for _, eT := range tNbrs {
			rotT := eT != tTile.Step(xDirs[0]) && eT != tTile.Step(xDirs[1])
			v := grid.AncillaID(eT)
			ids := tree.PathInto(s.pathBuf, u, v)
			s.pathBuf = ids[:0]
			if ids == nil {
				continue
			}
			start := 0.0
			for _, id := range ids {
				if f := s.expectedFree(st, id); f > start {
					start = f
				}
			}
			if rotC {
				if f := s.expectedFree(st, u) + sim.EdgeRotationCycles; f > start {
					start = f
				}
			}
			if rotT {
				if f := s.expectedFree(st, v) + sim.EdgeRotationCycles; f > start {
					start = f
				}
			}
			// Expected completion (paper section 4.2):
			// 3*rC + 3*rT + E[tau_CNOT] + max free time, plus a small
			// per-tile term: a longer reservation has a lower chance of
			// finding all its ancillas simultaneously free, so expected
			// wait grows with path length.
			score := start + sim.CNOTCycles + pathLenPenalty*float64(len(ids))
			if rotC {
				score += sim.EdgeRotationCycles
			}
			if rotT {
				score += sim.EdgeRotationCycles
			}
			if score < best || (score == best && len(ids) < bestLen) {
				best, bestLen = score, len(ids)
				gs.rotC, gs.rotT = rotC, rotT
				gs.path = gs.path[:0]
				for _, id := range ids {
					gs.path = append(gs.path, grid.AncillaTile(id))
				}
			}
		}
	}
	if len(gs.path) == 0 {
		// The ancilla network is connected by construction, so every
		// neighbour pair yields a tree path; reaching here means the
		// data qubit lost all neighbours, which Compress forbids.
		panic("core: no CNOT plan found")
	}
	collectPathAncs(grid, gs)
}

// collectPathAncs fills gs.ancs with the distinct ancilla IDs along
// gs.path. Paths are short, so a linear containment scan beats a map.
func collectPathAncs(grid *lattice.Grid, gs *gateState) {
	for _, c := range gs.path {
		id := grid.AncillaID(c)
		if !containsInt(gs.ancs, id) {
			gs.ancs = append(gs.ancs, id)
		}
	}
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// planCNOTShortest is the DisableMSTRouting ablation: pick the plain BFS
// shortest path between the control's Z edge and the target's X edge with
// no activity information, adding edge rotations only when an edge exposes
// no ancilla.
func (s *Scheduler) planCNOTShortest(st *sim.State, gs *gateState) {
	grid := st.Grid()
	s.nbrBufA = grid.ZEdgeAncillas(gs.control, s.nbrBufA[:0])
	if len(s.nbrBufA) == 0 {
		gs.rotC = true
		s.nbrBufA = grid.AncillaNeighbors(grid.DataTile(gs.control), s.nbrBufA)
	}
	s.nbrBufB = grid.XEdgeAncillas(gs.target, s.nbrBufB[:0])
	if len(s.nbrBufB) == 0 {
		gs.rotT = true
		s.nbrBufB = grid.AncillaNeighbors(grid.DataTile(gs.target), s.nbrBufB)
	}
	path := grid.ShortestAncillaPathInto(s.nbrBufA, s.nbrBufB, nil, gs.path[:0])
	if path == nil {
		panic("core: no shortest-path CNOT plan found")
	}
	gs.path = path
	collectPathAncs(grid, gs)
}

// expectedFree estimates when ancilla anc will be free: the expected
// remaining time of its current op plus the expected cost of every queued
// gate (paper: E[f_a] = sum over queue of E[tau_o]). The estimate is
// memoized per planning pass (see efEpoch): planCNOT scores up to 16
// candidate paths that revisit the same ancillas, and nothing starts or
// finishes between those scores, so one computation per ancilla suffices.
func (s *Scheduler) expectedFree(st *sim.State, anc int) float64 {
	if s.efMark[anc] == s.efEpoch {
		return s.efVal[anc]
	}
	grid := st.Grid()
	tile := grid.AncillaTile(anc)
	est := 0.0
	if op := st.TileOp(tile); op != nil {
		est += op.ExpectedRemaining(st.PrepExpectedCycles())
	}
	prepCost := st.PrepExpectedCycles() + 2 // prep + injection estimate
	for _, n := range s.queues.q[anc] {
		gs := s.gates[n]
		if gs == nil {
			continue
		}
		switch gs.kind {
		case circuit.KindCNOT:
			est += sim.CNOTCycles
			if gs.rotC || gs.rotT {
				est += sim.EdgeRotationCycles
			}
		case circuit.KindRz:
			est += prepCost
		case circuit.KindH:
			est += sim.HadamardCycles
		}
	}
	s.efMark[anc] = s.efEpoch
	s.efVal[anc] = est
	return est
}
