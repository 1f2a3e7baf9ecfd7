package sim

import (
	"fmt"

	"repro/internal/lattice"
)

// invariants_test.go is the engine's invariant checker. It is compiled
// into this package's tests only, and exported so the external engine
// tests (which drive the real schedulers) can call it after every cycle.

// Checker verifies the engine's lattice-surgery and bookkeeping rules on
// a State. Its scratch maps are reused between calls.
type Checker struct {
	inActive map[*Op]bool
	pooled   map[*Op]string // retired or free op -> which list
	live     map[*Op]bool
}

// NewChecker returns a Checker with empty scratch.
func NewChecker() *Checker {
	return &Checker{inActive: map[*Op]bool{}, pooled: map[*Op]string{}, live: map[*Op]bool{}}
}

// Check asserts the per-cycle invariants. Call it between cycles (from a
// scheduler's OnCycle, before it starts anything, or after Run):
//   - no tile or qubit is held by two ops, and every holder lists what it
//     holds;
//   - the reservation flags the routers read equal TileOp(c) != nil on
//     every tile;
//   - no retired or free op is still referenced from tileOp, qubitOp or
//     active, and no op sits on those lists twice;
//   - every live op works for a ready gate and started no earlier than
//     that gate became ready;
//   - per op kind, ops started = live + awaiting retirement + retired,
//     injection failures never exceed finished injections, and every
//     injection consumed one preparation;
//   - an ancilla or qubit not marked dirty is accounted in the state it
//     is in now (the event-driven accounting missed no change).
func (c *Checker) Check(st *State) error {
	clear(c.inActive)
	clear(c.pooled)
	clear(c.live)
	for _, op := range st.active {
		if c.inActive[op] {
			return fmt.Errorf("%v is in active twice", op)
		}
		c.inActive[op] = true
	}
	for name, list := range map[string][]*Op{"retired": st.retired, "free": st.free} {
		for _, op := range list {
			if where, dup := c.pooled[op]; dup {
				return fmt.Errorf("op %p is on the %s and %s lists", op, where, name)
			}
			c.pooled[op] = name
			if c.inActive[op] {
				return fmt.Errorf("%s op %v is still in active", name, op)
			}
		}
	}

	var pendingRetire, liveCount [numOpKinds]int
	for op := range c.inActive {
		switch {
		case op.done && !op.prepared:
			pendingRetire[op.Kind]++ // cancelled; retired at the next advance
		case op.done || op.prepared:
			return fmt.Errorf("parked or finished %v left in active", op)
		default:
			c.live[op] = true
		}
	}
	for i, op := range st.tileOp {
		if op == nil {
			continue
		}
		tile := lattice.At(i/st.grid.Cols(), i%st.grid.Cols())
		if where, ok := c.pooled[op]; ok {
			return fmt.Errorf("tile %v held by %s op %p", tile, where, op)
		}
		if st.grid.Kind(tile) != lattice.TileAncilla {
			return fmt.Errorf("non-ancilla tile %v reserved by %v", tile, op)
		}
		if !containsCoord(op.Tiles, tile) {
			return fmt.Errorf("tile %v held by %v, which does not list it", tile, op)
		}
		if !c.inActive[op] && !(op.Kind == OpPrep && op.Prepared()) {
			return fmt.Errorf("tile %v held by %v, which is neither advancing nor parked", tile, op)
		}
		c.live[op] = true
	}
	for r := 0; r < st.grid.Rows(); r++ {
		for col := 0; col < st.grid.Cols(); col++ {
			tile := lattice.At(r, col)
			i, _ := st.grid.Index(tile)
			if held := st.TileOp(tile) != nil; st.Reserved()[i] != held {
				return fmt.Errorf("tile %v reserved flag %v, but held: %v", tile, st.Reserved()[i], held)
			}
		}
	}
	for q, op := range st.qubitOp {
		if op == nil {
			continue
		}
		if where, ok := c.pooled[op]; ok {
			return fmt.Errorf("qubit %d held by %s op %p", q, where, op)
		}
		if !c.inActive[op] || op.done {
			return fmt.Errorf("qubit %d held by %v, which is not advancing", q, op)
		}
	}
	for op := range c.live {
		liveCount[op.Kind]++
		for _, t := range op.Tiles {
			if i, ok := st.grid.Index(t); !ok || st.tileOp[i] != op {
				return fmt.Errorf("%v lists tile %v, held by %v", op, t, st.TileOp(t))
			}
		}
		for _, q := range op.Qubits {
			if holder := st.qubitOp[q]; holder != op {
				return fmt.Errorf("%v lists qubit %d, held by %v", op, q, holder)
			}
		}
		if op.Node >= 0 {
			if s := st.status[op.Node]; s != GateReady {
				return fmt.Errorf("%v works for gate %d in status %d", op, op.Node, s)
			}
			if op.start < st.readyAt[op.Node] {
				return fmt.Errorf("%v started at cycle %d, before gate %d was ready (cycle %d)",
					op, op.start, op.Node, st.readyAt[op.Node])
			}
		}
	}

	for k := OpKind(0); k < numOpKinds; k++ {
		if got := liveCount[k] + pendingRetire[k] + st.retiredCount[k]; got != st.started[k] {
			return fmt.Errorf("%s ops: %d started, but %d live + %d awaiting retirement + %d retired",
				k, st.started[k], liveCount[k], pendingRetire[k], st.retiredCount[k])
		}
	}
	if st.injectionFailures > st.retiredCount[OpInjection] {
		return fmt.Errorf("%d injection failures but only %d injections finished",
			st.injectionFailures, st.retiredCount[OpInjection])
	}
	if st.retiredCount[OpPrep] < st.started[OpInjection] {
		return fmt.Errorf("%d injections started but only %d preparations left the engine",
			st.started[OpInjection], st.retiredCount[OpPrep])
	}

	for a, tile := range st.ancTileIdx {
		if !st.ancDirty[a] && (st.runStart[a] > 0) != (st.tileOp[tile] != nil) {
			return fmt.Errorf("ancilla %d changed occupancy without being marked dirty", a)
		}
	}
	for q := range st.qubitOp {
		idle := st.gatesLeft[q] > 0 && st.qubitOp[q] == nil
		if !st.qubitDirty[q] && (st.idleSince[q] > 0) != idle {
			return fmt.Errorf("qubit %d changed idle state without being marked dirty", q)
		}
	}
	return nil
}

// CheckGateOrder asserts, after a run, that every gate became ready only
// after all its predecessors completed and completed no earlier than it
// became ready.
func CheckGateOrder(st *State) error {
	for n := 0; n < st.dag.Len(); n++ {
		if st.status[n] == GatePending {
			continue
		}
		if st.status[n] == GateDone && st.doneAt[n] < st.readyAt[n] {
			return fmt.Errorf("gate %d done at cycle %d, before it was ready (cycle %d)", n, st.doneAt[n], st.readyAt[n])
		}
		for _, s := range st.dag.Succ(n) {
			if st.status[s] == GatePending {
				continue
			}
			if st.status[n] != GateDone || st.doneAt[n] >= st.readyAt[s] {
				return fmt.Errorf("gate %d ready at cycle %d, but predecessor %d done at cycle %d (status %d)",
					s, st.readyAt[s], n, st.doneAt[n], st.status[n])
			}
		}
	}
	return nil
}

func containsCoord(cs []lattice.Coord, c lattice.Coord) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}
