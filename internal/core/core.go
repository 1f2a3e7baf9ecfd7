// Package core implements RESCQ, the paper's realtime scheduler for
// continuous-angle QEC architectures. RESCQ is built on the two data
// structures the name abbreviates (paper section 4):
//
//   - a Rescheduled, activity-weighted minimum spanning tree over the
//     ancilla network, recomputed every K cycles with a modeled
//     computation latency TauMST — so routing always uses a slightly
//     stale tree, exactly like Figure 8's pipeline — and used to pick
//     minimax-bottleneck CNOT paths (Algorithm 1);
//   - a Queue per ancilla tile holding the gates that reserved it, with
//     per-gate metadata (Table 2). A gate acts on an ancilla only while
//     it is at the head of that ancilla's queue, which makes resource
//     allocation race-free and ordered by seniority.
//
// Rz gates are enqueued preemptively on every viable preparation ancilla
// (Z-edge neighbours for ZZ injection, diagonal neighbours routed through
// an X-edge helper for CNOT injection); all of them prepare |m_theta> in
// parallel, and the moment one preparation succeeds the others are
// rewritten in place to the doubled correction angle so a failed injection
// can retry immediately (Figure 1e / Figure 7).
package core

import (
	"slices"

	"repro/internal/circuit"
	"repro/internal/freelist"
	"repro/internal/lattice"
	"repro/internal/sim"
)

// Config tunes RESCQ's classical-control model.
type Config struct {
	// K is the MST recomputation period in lattice-surgery cycles
	// (paper sweeps 25, 50, 100, 200). Default 25.
	K int
	// TauMST is the modeled MST computation latency in cycles: a tree
	// snapshotted at cycle t becomes usable at t+TauMST (paper: ~100).
	TauMST int

	// The remaining fields are ablation switches used by the ablation
	// study (they each disable one of RESCQ's mechanisms).

	// MaxParallelPreps overrides how many ancillas one Rz prepares on
	// simultaneously; 0 means the default (2), 1 disables parallel
	// preparation (the baseline protocol's single attempt).
	MaxParallelPreps int
	// DisableEagerPrep stops candidates from preparing the doubled
	// correction state while an injection is in flight.
	DisableEagerPrep bool
	// DisableMSTRouting replaces Algorithm 1's MST paths with plain BFS
	// shortest paths (no activity awareness).
	DisableMSTRouting bool
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 25
	}
	if c.TauMST < 0 {
		c.TauMST = 0
	} else if c.TauMST == 0 {
		c.TauMST = 100
	}
	if c.MaxParallelPreps <= 0 {
		c.MaxParallelPreps = defaultMaxParallelPreps
	}
	return c
}

// DefaultConfig returns the paper's operating point: K=25, TauMST=100.
func DefaultConfig() Config { return Config{}.withDefaults() }

// released keeps released schedulers, whose Init reuses the storage of
// the run they last scheduled.
var released = freelist.New(func() *Scheduler { return new(Scheduler) })

// New returns a RESCQ scheduler instance, reused from an earlier run when
// one has been released (see Release).
func New(cfg Config) sim.Scheduler {
	s := released.Get()
	s.cfg = cfg.withDefaults()
	s.pooled = true
	return s
}

// Scheduler is the RESCQ realtime scheduler. It implements sim.Scheduler.
type Scheduler struct {
	cfg    Config
	pooled bool // handed out by New and not yet released

	queues queueSet
	mst    mstPipeline

	gates   []*gateState // node -> live gate state, nil once completed
	spare   []*gateState // completed gate states, reused by plan
	live    []int        // live node ids in enqueue order
	pending []int        // ready nodes awaiting planning/enqueue
	staged  []bool       // node already staged for enqueue (dedup guard)

	// expectedFree memoization, valid within one planning pass: efMark[anc]
	// == efEpoch means efVal[anc] holds this pass's estimate.
	efVal   []float64
	efMark  []int32
	efEpoch int32

	pathBuf []int // reused by planCNOT's tree path queries

	// nbrBufA/nbrBufB are reused by the per-cycle drive steps and the
	// planners for AncillaNeighbors queries (two, because planCNOT needs
	// the control and target neighbour sets alive at the same time).
	nbrBufA, nbrBufB []lattice.Coord
}

// Name implements sim.Scheduler.
func (s *Scheduler) Name() string { return "rescq" }

// Release implements sim.Scheduler: it returns s to the free list New
// draws from. Releasing twice is harmless; using s after Release is not.
func (s *Scheduler) Release() {
	if s.pooled {
		s.pooled = false
		released.Put(s)
	}
}

// Init implements sim.Scheduler. It resets every piece of per-run state,
// keeping the capacity an earlier run gave it.
func (s *Scheduler) Init(st *sim.State) error {
	dag := st.DAG()
	na := st.Grid().NumAncilla()
	s.queues.reset(na)
	s.mst.reset(st, s.cfg)
	for _, gs := range s.gates {
		if gs != nil { // live when an earlier run was cut short
			s.spare = append(s.spare, gs)
		}
	}
	s.gates = slices.Grow(s.gates[:0], dag.Len())[:dag.Len()]
	s.staged = slices.Grow(s.staged[:0], dag.Len())[:dag.Len()]
	s.efVal = slices.Grow(s.efVal[:0], na)[:na] // read only where efMark says
	s.efMark = slices.Grow(s.efMark[:0], na)[:na]
	clear(s.gates)
	clear(s.staged)
	clear(s.efMark)
	s.efEpoch = 0
	s.live, s.pending = s.live[:0], s.pending[:0]
	for n := 0; n < dag.Len(); n++ {
		if st.Status(n) == sim.GateReady {
			s.staged[n] = true
			s.pending = append(s.pending, n)
		}
	}
	return nil
}

// OnCycle implements sim.Scheduler.
func (s *Scheduler) OnCycle(st *sim.State) {
	s.mst.tick(st)
	s.enqueuePending(st)
	s.drive(st)
}

// enqueuePending plans newly ready gates and installs them in the ancilla
// queues, highest critical-path height first (Figure 7 caption).
func (s *Scheduler) enqueuePending(st *sim.State) {
	if len(s.pending) == 0 {
		return
	}
	dag := st.DAG()
	// Insertion sort: the pending set is small most cycles, and this
	// avoids sort.Slice's per-call closure and swapper allocations.
	less := func(a, b int) bool {
		ha, hb := dag.Height(a), dag.Height(b)
		if ha != hb {
			return ha > hb
		}
		return a < b
	}
	for i := 1; i < len(s.pending); i++ {
		for j := i; j > 0 && less(s.pending[j], s.pending[j-1]); j-- {
			s.pending[j], s.pending[j-1] = s.pending[j-1], s.pending[j]
		}
	}
	for _, n := range s.pending {
		gs := s.plan(st, n)
		s.gates[n] = gs
		s.live = append(s.live, n)
		for _, anc := range gs.ancs {
			s.queues.enqueue(anc, n)
		}
	}
	s.pending = s.pending[:0]
}

// drive advances every live gate's state machine by one scheduling step.
func (s *Scheduler) drive(st *sim.State) {
	w := 0
	for _, n := range s.live {
		gs := s.gates[n]
		if gs == nil || gs.done {
			continue // completed; compact away
		}
		s.live[w] = n
		w++
		switch gs.kind {
		case circuit.KindCNOT:
			s.driveCNOT(st, gs)
		case circuit.KindRz:
			s.driveRz(st, gs)
		case circuit.KindH:
			s.driveH(st, gs)
		}
	}
	s.live = s.live[:w]
}

// OnOpDone implements sim.Scheduler.
func (s *Scheduler) OnOpDone(st *sim.State, op *sim.Op, success bool) {
	if op.Node < 0 {
		return // helper op not attributed to a gate
	}
	gs := s.gates[op.Node]
	if gs == nil || gs.done {
		return
	}
	switch op.Kind {
	case sim.OpCNOT:
		s.complete(st, gs)
	case sim.OpHadamard:
		s.complete(st, gs)
	case sim.OpEdgeRotation:
		s.rotationDone(st, gs, op)
	case sim.OpPrep:
		if gs.kind == circuit.KindRz {
			s.tryInject(st, gs)
		}
	case sim.OpInjection:
		s.injectionDone(st, gs, success)
	}
}

// complete finishes a gate: release queue slots, drop any outstanding
// preparations, report completion, and stage newly-ready successors.
func (s *Scheduler) complete(st *sim.State, gs *gateState) {
	gs.done = true
	for _, anc := range gs.ancs {
		s.queues.remove(anc, gs.node)
	}
	if gs.kind == circuit.KindRz {
		s.dropPreps(st, gs, circuit.Angle{}, true)
	}
	st.CompleteGate(gs.node)
	s.gates[gs.node] = nil
	s.spare = append(s.spare, gs) // reachable from nothing else now
	for _, succ := range st.DAG().Succ(gs.node) {
		if st.Status(succ) == sim.GateReady && !s.staged[succ] {
			s.staged[succ] = true
			s.pending = append(s.pending, succ)
		}
	}
}

// newGateState returns a zeroed gate state for node n, reusing a completed
// one (and the capacity of its slices) when available.
func (s *Scheduler) newGateState(n int, kind circuit.Kind) *gateState {
	k := len(s.spare)
	if k == 0 {
		return &gateState{node: n, kind: kind}
	}
	gs := s.spare[k-1]
	s.spare = s.spare[:k-1]
	*gs = gateState{node: n, kind: kind, ancs: gs.ancs[:0], path: gs.path[:0], cands: gs.cands[:0]}
	return gs
}

// dropPreps cancels in-progress and discards parked preparations belonging
// to gs. When all is false, preparations whose angle equals keep survive.
func (s *Scheduler) dropPreps(st *sim.State, gs *gateState, keep circuit.Angle, all bool) {
	for _, cand := range gs.cands {
		op := st.TileOp(cand.prep)
		if op == nil || op.Kind != sim.OpPrep || op.Node != gs.node {
			continue
		}
		if !all && op.Angle.Equal(keep) {
			continue
		}
		if op.Prepared() {
			_ = st.DiscardPrepared(cand.prep)
		} else {
			_ = st.CancelPrep(cand.prep)
		}
	}
}
