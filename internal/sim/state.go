package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/rus"
)

// GateStatus tracks a DAG node through its lifecycle.
type GateStatus uint8

const (
	// GatePending means some dependency has not completed.
	GatePending GateStatus = iota
	// GateReady means all dependencies completed; the scheduler may act.
	GateReady
	// GateDone means the scheduler reported completion.
	GateDone
)

// Config parameterizes one simulation.
type Config struct {
	// Distance is the surface code distance d.
	Distance int
	// PhysError is the physical qubit error rate p.
	PhysError float64
	// ActivityWindow is c, the sliding window (in cycles) over which
	// ancilla activity is measured. Defaults to 100.
	ActivityWindow int
	// MaxCycles aborts runaway simulations. Defaults to 20,000,000.
	MaxCycles int
	// StallLimit aborts if this many consecutive cycles pass with
	// pending gates but no op in flight and none started (a scheduler
	// deadlock). Defaults to 50,000.
	StallLimit int
}

func (c Config) withDefaults() Config {
	if c.ActivityWindow <= 0 {
		c.ActivityWindow = 100
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 20_000_000
	}
	if c.StallLimit <= 0 {
		c.StallLimit = 50_000
	}
	return c
}

// RUSParams returns the preparation-model parameters for this config.
func (c Config) RUSParams() rus.Params {
	return rus.Params{Distance: c.Distance, PhysError: c.PhysError}
}

// State is the complete simulation state visible to schedulers.
type State struct {
	cfg  Config
	grid *lattice.Grid
	dag  *circuit.DAG
	rng  *rand.Rand

	cycle int

	// prepSuccess is the per-cycle completion probability of a prep op;
	// prepExpected is its mean duration in cycles.
	prepSuccess  float64
	prepExpected float64

	// Occupancy: tileOp[tileIndex] and qubitOp[q] hold the reserving op,
	// or nil. Every write goes through setTileOp / setQubitOp, which mark
	// the ancilla or qubit dirty for the next accounting pass. reserved
	// mirrors tileOp[i] != nil for the routers; setTileOp is its only
	// writer.
	tileOp   []*Op
	reserved []bool
	qubitOp  []*Op

	nextOp int
	// active is the advancing subset of ops (prepared preps are parked),
	// kept in ID order: IDs increase monotonically and ops are appended at
	// creation, so no per-cycle sort is needed. Entries that park or
	// complete outside the engine's advance loop (e.g. CancelPrep) stay in
	// place until the next advance compacts them away.
	active []*Op

	// Op recycling. An op that has left the engine for good (finished,
	// consumed, discarded, or cancelled and compacted out of active) is
	// retired; retired ops become reusable at the next cycle boundary, so
	// completion callbacks can still read them (see Op).
	retired []*Op
	free    []*Op

	// Gate bookkeeping.
	status     []GateStatus
	predLeft   []int
	readyAt    []int // cycle at which the node became ready
	doneAt     []int
	numDone    int
	readyCount int

	// Per-cycle outputs collected by the engine.
	startedThisCycle int

	// Activity tracking by events. Each ancilla's busy cycles are kept as
	// runs: runStart is the first cycle of the open run (0 while free),
	// runs holds the closed runs that may still overlap the activity
	// window (older ones are pruned as runs are appended), and actTotal
	// counts the busy cycles of every closed run for the utilization
	// heatmap. Only ancillas whose tile changed hands since the last
	// accounting pass (dirtyAnc) are visited.
	actWindow  int
	actCycle   int // last accounted cycle
	runStart   []int32
	runs       [][]busyRun
	actTotal   []int
	ancDirty   []bool
	dirtyAnc   []int32
	ancTileIdx []int32 // ancilla ID -> dense tile index

	// Idle tracking per data qubit, by the same events: idleSince is the
	// first cycle of the qubit's current idle run (0 while not idle), and
	// idleCycles counts the cycles of its closed idle runs.
	idleCycles []int
	idleSince  []int
	qubitDirty []bool
	dirtyQubit []int32
	lastGateAt []int // cycle when the qubit's last gate finished (-1 while pending)
	gatesLeft  []int // outstanding scheduled gates per qubit

	// Counters for Result, by op kind: ops started and ops retired.
	started           [numOpKinds]int
	retiredCount      [numOpKinds]int
	injectionFailures int
}

// busyRun is a closed run of busy cycles [start, end] of one ancilla.
type busyRun struct{ start, end int32 }

// runsPerAncilla is the initial run capacity of each ancilla.
const runsPerAncilla = 16

// newState wires a State for the engine; schedulers receive it via Init.
func newState(g *lattice.Grid, dag *circuit.DAG, cfg Config, seed int64) *State {
	cfg = cfg.withDefaults()
	params := cfg.RUSParams()
	st := &State{
		cfg:          cfg,
		grid:         g,
		dag:          dag,
		rng:          rand.New(rand.NewSource(seed)),
		prepSuccess:  params.PrepSuccessPerCycle(),
		prepExpected: params.ExpectedPrepCycles(),
		tileOp:       make([]*Op, g.NumTiles()),
		reserved:     make([]bool, g.NumTiles()),
		qubitOp:      make([]*Op, g.NumQubits()),
		active:       make([]*Op, 0, 64),
		status:       make([]GateStatus, dag.Len()),
		predLeft:     make([]int, dag.Len()),
		readyAt:      make([]int, dag.Len()),
		doneAt:       make([]int, dag.Len()),
		actWindow:    cfg.ActivityWindow,
		runStart:     make([]int32, g.NumAncilla()),
		runs:         make([][]busyRun, g.NumAncilla()),
		actTotal:     make([]int, g.NumAncilla()),
		ancDirty:     make([]bool, g.NumAncilla()),
		ancTileIdx:   make([]int32, g.NumAncilla()),
		idleCycles:   make([]int, g.NumQubits()),
		idleSince:    make([]int, g.NumQubits()),
		qubitDirty:   make([]bool, g.NumQubits()),
		dirtyQubit:   make([]int32, 0, g.NumQubits()),
		lastGateAt:   make([]int, g.NumQubits()),
		gatesLeft:    make([]int, g.NumQubits()),
	}
	for i := 0; i < dag.Len(); i++ {
		st.predLeft[i] = dag.InDegree(i)
		if st.predLeft[i] == 0 {
			st.status[i] = GateReady
			st.readyAt[i] = 1 // ready from the first cycle
			st.readyCount++
		}
		st.doneAt[i] = -1
		g := dag.Gate(i)
		for j := 0; j < g.Kind.NumQubits(); j++ {
			st.gatesLeft[g.Qubits[j]]++
		}
	}
	for q := range st.lastGateAt {
		st.lastGateAt[q] = -1
		st.markQubit(q) // every qubit's idle state is evaluated in cycle 1
	}
	// Every ancilla's runs start in one shared backing array, so only
	// ancillas with unusually many runs per window ever grow their own.
	arena := make([]busyRun, runsPerAncilla*g.NumAncilla())
	for a := range st.ancTileIdx {
		i, _ := g.Index(g.AncillaTile(a))
		st.ancTileIdx[a] = int32(i)
		st.runs[a] = arena[a*runsPerAncilla : a*runsPerAncilla : (a+1)*runsPerAncilla]
	}
	return st
}

// Cycle returns the current simulation cycle (first cycle is 1).
func (st *State) Cycle() int { return st.cycle }

// Grid returns the lattice fabric.
func (st *State) Grid() *lattice.Grid { return st.grid }

// DAG returns the gate dependency DAG.
func (st *State) DAG() *circuit.DAG { return st.dag }

// RNG returns the simulation's seeded random source. Schedulers may use it
// for tie-breaking so whole runs stay reproducible from one seed.
func (st *State) RNG() *rand.Rand { return st.rng }

// Config returns the simulation configuration.
func (st *State) Config() Config { return st.cfg }

// PrepExpectedCycles returns the mean |m_theta> preparation time used for
// expected-free-time estimates.
func (st *State) PrepExpectedCycles() float64 { return st.prepExpected }

// Status returns the lifecycle status of DAG node n.
func (st *State) Status(n int) GateStatus { return st.status[n] }

// AllDone reports whether every scheduled gate has completed.
func (st *State) AllDone() bool { return st.numDone == st.dag.Len() }

// TileFree reports whether the tile at c is a live ancilla not reserved by
// any op.
func (st *State) TileFree(c lattice.Coord) bool {
	i, ok := st.grid.Index(c)
	return ok && st.grid.KindAt(i) == lattice.TileAncilla && st.tileOp[i] == nil
}

// TileOp returns the op reserving ancilla tile c, or nil.
func (st *State) TileOp(c lattice.Coord) *Op {
	if i, ok := st.grid.Index(c); ok {
		return st.tileOp[i]
	}
	return nil
}

// Reserved returns the tile reservation flags, indexed by Grid.Index:
// entry i is true while an op holds tile i. The routers read it in place
// of per-tile queries; it is the engine's, so callers must not modify it.
func (st *State) Reserved() []bool { return st.reserved }

// QubitFree reports whether data qubit q is not reserved by any op.
func (st *State) QubitFree(q int) bool { return st.qubitOp[q] == nil }

// Activity returns the fraction of the last c cycles during which ancilla
// ancID was reserved (paper section 4.2). It sums the ancilla's busy runs
// that overlap the window ending at the last accounted cycle.
func (st *State) Activity(ancID int) float64 {
	last := int32(st.actCycle)
	lo := last - int32(st.actWindow) + 1
	busy := int32(0)
	for _, r := range st.runs[ancID] {
		if r.end >= lo {
			busy += r.end - max(r.start, lo) + 1
		}
	}
	if s := st.runStart[ancID]; s > 0 {
		busy += last - max(s, lo) + 1
	}
	return float64(busy) / float64(st.actWindow)
}

// --- Op starters -----------------------------------------------------

// newOp starts an op, reusing a retired one when available: the reused
// op keeps its reservation slices' capacity, so even a long CNOT path
// stops allocating once one op has carried it.
func (st *State) newOp(kind OpKind, node int, dur int) *Op {
	var op *Op
	if n := len(st.free); n > 0 {
		op = st.free[n-1]
		st.free[n-1] = nil
		st.free = st.free[:n-1]
		*op = Op{Qubits: op.Qubits[:0], Tiles: op.Tiles[:0]}
	} else {
		op = new(Op)
		op.Qubits = op.qubitsBuf[:0]
		op.Tiles = op.tilesBuf[:0]
	}
	st.nextOp++
	op.ID, op.Kind, op.Node, op.start, op.remaining = st.nextOp, kind, node, st.cycle, dur
	st.active = append(st.active, op)
	st.started[kind]++
	st.startedThisCycle++
	return op
}

// retire records that op has left the engine: no tile, qubit or active
// entry refers to it any more.
func (st *State) retire(op *Op) {
	st.retired = append(st.retired, op)
	st.retiredCount[op.Kind]++
}

// recycle makes the ops retired before this cycle reusable. The engine
// calls it at each cycle boundary, after the previous cycle's completion
// callbacks are done with them.
func (st *State) recycle() {
	st.free = append(st.free, st.retired...)
	st.retired = st.retired[:0]
}

// setTileOp changes the holder of the ancilla tile at index i and marks
// the ancilla for the next activity accounting pass.
func (st *State) setTileOp(i int, op *Op) {
	st.tileOp[i] = op
	st.reserved[i] = op != nil
	if a := st.grid.AncillaIDAt(i); !st.ancDirty[a] {
		st.ancDirty[a] = true
		st.dirtyAnc = append(st.dirtyAnc, int32(a))
	}
}

// setQubitOp changes the holder of qubit q and marks it for the next idle
// accounting pass.
func (st *State) setQubitOp(q int, op *Op) {
	st.qubitOp[q] = op
	st.markQubit(q)
}

func (st *State) markQubit(q int) {
	if !st.qubitDirty[q] {
		st.qubitDirty[q] = true
		st.dirtyQubit = append(st.dirtyQubit, int32(q))
	}
}

func (st *State) reserveTile(op *Op, c lattice.Coord) {
	i, _ := st.grid.Index(c) // callers checked TileFree(c)
	st.setTileOp(i, op)
	op.Tiles = append(op.Tiles, c)
}

func (st *State) reserveQubit(op *Op, q int) {
	st.setQubitOp(q, op)
	op.Qubits = append(op.Qubits, q)
}

// StartCNOT begins a two-cycle lattice-surgery CNOT for DAG node n between
// control and target along the given ancilla path. The path must be a
// contiguous sequence of free ancilla tiles whose first tile is adjacent to
// the control across a Z edge and whose last tile is adjacent to the target
// across an X edge; both qubits must be free.
func (st *State) StartCNOT(n, control, target int, path []lattice.Coord) (*Op, error) {
	if err := st.checkNode(n); err != nil {
		return nil, err
	}
	if len(path) == 0 {
		return nil, fmt.Errorf("sim: CNOT needs a non-empty ancilla path")
	}
	if !st.QubitFree(control) || !st.QubitFree(target) {
		return nil, fmt.Errorf("sim: CNOT qubits %d,%d not free", control, target)
	}
	if !st.grid.PathContiguous(path) {
		return nil, fmt.Errorf("sim: CNOT path %v not contiguous ancillas", path)
	}
	for _, c := range path {
		if !st.TileFree(c) {
			return nil, fmt.Errorf("sim: CNOT path tile %v busy", c)
		}
	}
	if !st.adjacentAcross(control, path[0], st.grid.ZEdgeDirs(control)) {
		return nil, fmt.Errorf("sim: path head %v not on Z edge of control %d", path[0], control)
	}
	if !st.adjacentAcross(target, path[len(path)-1], st.grid.XEdgeDirs(target)) {
		return nil, fmt.Errorf("sim: path tail %v not on X edge of target %d", path[len(path)-1], target)
	}
	op := st.newOp(OpCNOT, n, CNOTCycles)
	st.reserveQubit(op, control)
	st.reserveQubit(op, target)
	for _, c := range path {
		st.reserveTile(op, c)
	}
	return op, nil
}

// StartEdgeRotation begins a three-cycle edge rotation on qubit q using the
// adjacent free ancilla helper; on completion the qubit's orientation
// toggles. node attributes the rotation to a DAG node for statistics (-1
// is allowed).
func (st *State) StartEdgeRotation(node, q int, helper lattice.Coord) (*Op, error) {
	if !st.QubitFree(q) {
		return nil, fmt.Errorf("sim: edge rotation qubit %d busy", q)
	}
	if !st.TileFree(helper) {
		return nil, fmt.Errorf("sim: edge rotation helper %v not free", helper)
	}
	if !tilesAdjacent(st.grid.DataTile(q), helper) {
		return nil, fmt.Errorf("sim: helper %v not adjacent to qubit %d", helper, q)
	}
	op := st.newOp(OpEdgeRotation, node, EdgeRotationCycles)
	st.reserveQubit(op, q)
	st.reserveTile(op, helper)
	return op, nil
}

// StartHadamard begins a three-cycle Hadamard for DAG node n on qubit q
// using one adjacent free ancilla tile.
func (st *State) StartHadamard(n, q int, helper lattice.Coord) (*Op, error) {
	if err := st.checkNode(n); err != nil {
		return nil, err
	}
	if !st.QubitFree(q) {
		return nil, fmt.Errorf("sim: hadamard qubit %d busy", q)
	}
	if !st.TileFree(helper) {
		return nil, fmt.Errorf("sim: hadamard helper %v not free", helper)
	}
	if !tilesAdjacent(st.grid.DataTile(q), helper) {
		return nil, fmt.Errorf("sim: helper %v not adjacent to qubit %d", helper, q)
	}
	op := st.newOp(OpHadamard, n, HadamardCycles)
	st.reserveQubit(op, q)
	st.reserveTile(op, helper)
	return op, nil
}

// StartPrep begins a repeat-until-success |m_theta> preparation on the
// free ancilla tile. The op completes stochastically; once complete it
// parks in the Prepared state, holding the tile until injected or
// discarded.
func (st *State) StartPrep(node int, tile lattice.Coord, angle circuit.Angle) (*Op, error) {
	if !st.TileFree(tile) {
		return nil, fmt.Errorf("sim: prep tile %v not free", tile)
	}
	if angle.IsClifford() {
		return nil, fmt.Errorf("sim: prep of Clifford angle %v is pointless", angle)
	}
	op := st.newOp(OpPrep, node, 0)
	op.Angle = angle
	st.reserveTile(op, tile)
	return op, nil
}

// StartInjection consumes the prepared state on prepTile and injects it
// into qubit q for DAG node n. For InjectZZ the prep tile must be adjacent
// to q across a Z edge (1 cycle). For InjectCNOT a free helper ancilla
// adjacent to both the prep tile and q across q's X edge is required
// (2 cycles). The injected angle must match the prepared angle.
func (st *State) StartInjection(n, q int, prepTile lattice.Coord, kind rus.InjectionKind, helper lattice.Coord, angle circuit.Angle) (*Op, error) {
	if err := st.checkNode(n); err != nil {
		return nil, err
	}
	if !st.QubitFree(q) {
		return nil, fmt.Errorf("sim: injection qubit %d busy", q)
	}
	prepOp := st.TileOp(prepTile)
	if prepOp == nil || prepOp.Kind != OpPrep || !prepOp.Prepared() {
		return nil, fmt.Errorf("sim: no prepared state at %v", prepTile)
	}
	if !prepOp.Angle.Equal(angle) {
		return nil, fmt.Errorf("sim: prepared angle %v != requested %v", prepOp.Angle, angle)
	}
	spec := rus.SpecFor(kind)
	switch kind {
	case rus.InjectZZ:
		if !st.adjacentAcross(q, prepTile, st.grid.ZEdgeDirs(q)) {
			return nil, fmt.Errorf("sim: ZZ injection needs prep tile %v on Z edge of %d", prepTile, q)
		}
	case rus.InjectCNOT:
		if !st.TileFree(helper) {
			return nil, fmt.Errorf("sim: CNOT injection helper %v not free", helper)
		}
		if !tilesAdjacent(prepTile, helper) {
			return nil, fmt.Errorf("sim: helper %v not adjacent to prep tile %v", helper, prepTile)
		}
		if !st.adjacentAcross(q, helper, st.grid.XEdgeDirs(q)) {
			return nil, fmt.Errorf("sim: CNOT injection helper %v not on X edge of %d", helper, q)
		}
	default:
		return nil, fmt.Errorf("sim: unknown injection kind %v", kind)
	}
	// Consume the parked prep: its tile transfers to the injection op.
	prepOp.consumed = true
	prepOp.done = true
	st.retire(prepOp)
	i, _ := st.grid.Index(prepTile)
	st.setTileOp(i, nil)

	op := st.newOp(OpInjection, n, spec.Cycles)
	op.Angle = angle
	op.InjKind = kind
	st.reserveQubit(op, q)
	st.reserveTile(op, prepTile)
	if kind == rus.InjectCNOT {
		st.reserveTile(op, helper)
	}
	return op, nil
}

// DiscardPrepared releases a prepared-but-unneeded |m_theta> state,
// freeing its ancilla tile immediately.
func (st *State) DiscardPrepared(tile lattice.Coord) error {
	op := st.TileOp(tile)
	if op == nil || op.Kind != OpPrep || !op.Prepared() {
		return fmt.Errorf("sim: no prepared state at %v to discard", tile)
	}
	op.done = true
	st.retire(op) // parked, so already out of active
	i, _ := st.grid.Index(tile)
	st.setTileOp(i, nil)
	return nil
}

// CancelPrep aborts an in-progress (not yet prepared) preparation,
// reclaiming the ancilla for other work — the paper's "we can reclaim them
// and try to prepare the state using n-m ancilla in the next cycle".
func (st *State) CancelPrep(tile lattice.Coord) error {
	op := st.TileOp(tile)
	if op == nil || op.Kind != OpPrep || op.prepared {
		return fmt.Errorf("sim: no cancellable preparation at %v", tile)
	}
	op.done = true // retired once advance compacts it out of active
	i, _ := st.grid.Index(tile)
	st.setTileOp(i, nil)
	return nil
}

// CompleteGate marks DAG node n done, unlocking its successors at the next
// cycle. Schedulers call this after the op(s) realizing the gate finish
// (for Rz, after a successful final injection).
func (st *State) CompleteGate(n int) {
	if st.status[n] != GateReady {
		panic(fmt.Sprintf("sim: CompleteGate(%d) in status %d", n, st.status[n]))
	}
	st.status[n] = GateDone
	st.doneAt[n] = st.cycle
	st.numDone++
	st.readyCount--
	g := st.dag.Gate(n)
	for j := 0; j < g.Kind.NumQubits(); j++ {
		q := g.Qubits[j]
		st.gatesLeft[q]--
		if st.gatesLeft[q] == 0 {
			st.lastGateAt[q] = st.cycle
			st.markQubit(q) // no work left: the qubit stops counting idle
		}
	}
	for _, s := range st.dag.Succ(n) {
		st.predLeft[s]--
		if st.predLeft[s] == 0 {
			st.status[s] = GateReady
			st.readyAt[s] = st.cycle + 1
			st.readyCount++
		}
	}
}

// --- helpers ----------------------------------------------------------

func (st *State) checkNode(n int) error {
	if n < 0 || n >= st.dag.Len() {
		return fmt.Errorf("sim: node %d out of range", n)
	}
	if st.status[n] != GateReady {
		return fmt.Errorf("sim: node %d not ready (status %d)", n, st.status[n])
	}
	return nil
}

// adjacentAcross reports whether tile t is the neighbour of qubit q in one
// of the given directions.
func (st *State) adjacentAcross(q int, t lattice.Coord, dirs [2]lattice.Dir) bool {
	c := st.grid.DataTile(q)
	return c.Step(dirs[0]) == t || c.Step(dirs[1]) == t
}

func tilesAdjacent(a, b lattice.Coord) bool {
	dr, dc := a.Row-b.Row, a.Col-b.Col
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr+dc == 1
}
