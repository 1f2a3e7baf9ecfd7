package sim

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/lattice"
)

// Scheduler is the policy plugged into the engine. The engine calls
// OnCycle once per cycle (the scheduler may start ops, which are active in
// the same cycle), then advances all active ops and delivers completion
// callbacks (ops started inside callbacks become active the next cycle).
type Scheduler interface {
	// Name identifies the scheduler in results ("rescq", "greedy", ...).
	Name() string
	// Init is called once before the first cycle.
	Init(st *State) error
	// OnCycle runs at the start of every cycle.
	OnCycle(st *State)
	// OnOpDone reports op completion. For OpInjection, success carries
	// the measurement outcome (true with probability 1/2); for all other
	// kinds success is true. The scheduler owns gate-completion logic
	// (calling st.CompleteGate) and failure handling.
	OnOpDone(st *State, op *Op, success bool)
}

// Engine couples a State with a Scheduler and runs to completion.
type Engine struct {
	st    *State
	sched Scheduler

	// completions is the reused per-cycle callback buffer of advance.
	completions []completion
}

type completion struct {
	op      *Op
	success bool
}

// NewEngine builds an engine over a fresh simulation state.
func NewEngine(g *lattice.Grid, dag *circuit.DAG, cfg Config, seed int64, sched Scheduler) *Engine {
	return &Engine{st: newState(g, dag, cfg, seed), sched: sched}
}

// State exposes the engine's state (mainly for tests).
func (e *Engine) State() *State { return e.st }

// Run executes the simulation until every gate completes and returns the
// collected statistics. It fails on scheduler deadlock (no progress for
// cfg.StallLimit cycles) or when cfg.MaxCycles is exceeded.
func (e *Engine) Run() (*Result, error) {
	return e.RunContext(context.Background())
}

// cancelCheckMask gates how often RunContext polls ctx: every 256 cycles.
// Polling costs a nil-channel select, but even a mutex-guarded ctx would be
// noise at this stride, while 256 cycles is a tiny fraction of any real
// circuit's makespan — cancellation lands promptly mid-run.
const cancelCheckMask = 255

// RunContext is Run with cooperative cancellation: the per-cycle loop
// polls ctx every few hundred cycles and aborts with ctx's error, so a
// cancelled serving request stops a long simulation mid-configuration
// instead of running it to completion.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	st := e.st
	if err := e.sched.Init(st); err != nil {
		return nil, fmt.Errorf("sim: scheduler init: %w", err)
	}
	done := ctx.Done() // nil for Background: the select below never fires
	stall := 0
	for !st.AllDone() {
		if st.cycle&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("sim: aborted at cycle %d (%d/%d gates done): %w",
					st.cycle, st.numDone, st.dag.Len(), ctx.Err())
			default:
			}
		}
		st.cycle++
		if st.cycle > st.cfg.MaxCycles {
			return nil, fmt.Errorf("sim: exceeded max cycles %d (%d/%d gates done)",
				st.cfg.MaxCycles, st.numDone, st.dag.Len())
		}
		st.startedThisCycle = 0
		e.sched.OnCycle(st)
		// Occupancy is accounted before ops advance so that a tile or
		// qubit counts as busy through the final cycle of its op.
		e.accountActivity()
		e.accountIdle()
		progressed := e.advance()
		if st.startedThisCycle == 0 && !progressed && len(st.active) == 0 {
			stall++
			if stall > st.cfg.StallLimit {
				return nil, fmt.Errorf("sim: scheduler %s stalled for %d cycles at cycle %d (%d/%d gates done)",
					e.sched.Name(), stall, st.cycle, st.numDone, st.dag.Len())
			}
		} else {
			stall = 0
		}
	}
	return e.collect(), nil
}

// advance progresses all active ops by one cycle and fires completion
// callbacks. It reports whether any op advanced. Iteration order is
// deterministic without sorting: st.active is kept in creation (= ID)
// order, and this loop compacts out entries that complete here or parked /
// finished elsewhere since the last cycle. Ops the callbacks start are
// appended behind the compaction point and advance next cycle.
func (e *Engine) advance() bool {
	st := e.st
	if len(st.active) == 0 {
		return false
	}
	prev := st.active
	live := st.active[:0]
	completions := e.completions[:0]
	progressed := false
	for _, op := range prev {
		if op.done || (op.Kind == OpPrep && op.prepared) {
			continue // finished or parked outside this loop (e.g. CancelPrep)
		}
		if op.start > st.cycle {
			live = append(live, op) // starts next cycle (created inside a callback)
			continue
		}
		progressed = true
		switch op.Kind {
		case OpPrep:
			if st.rng.Float64() < st.prepSuccess {
				op.prepared = true // parks holding its tile
				completions = append(completions, completion{op, true})
			} else {
				live = append(live, op)
			}
		default:
			op.remaining--
			if op.remaining <= 0 {
				success := true
				if op.Kind == OpInjection {
					success = st.rng.Float64() < 0.5
					if !success {
						st.injectionFailures++
					}
				}
				e.finish(op)
				completions = append(completions, completion{op, success})
			} else {
				live = append(live, op)
			}
		}
	}
	for i := len(live); i < len(prev); i++ {
		prev[i] = nil // drop compacted-out op references for the GC
	}
	st.active = live
	for _, c := range completions {
		e.sched.OnOpDone(st, c.op, c.success)
	}
	for i := range completions {
		completions[i] = completion{} // drop op references for the GC
	}
	e.completions = completions[:0]
	return progressed
}

// finish releases a fixed-duration op's reservations. Prep ops are not
// finished here: they park holding their tile until consumed or discarded.
func (e *Engine) finish(op *Op) {
	st := e.st
	op.done = true
	for _, q := range op.Qubits {
		if st.qubitOp[q] == op {
			st.qubitOp[q] = nil
		}
	}
	for _, t := range op.Tiles {
		i := st.grid.TileIndex(t)
		if st.tileOp[i] == op {
			st.tileOp[i] = nil
		}
	}
	if op.Kind == OpEdgeRotation {
		st.grid.ToggleOrientation(op.Qubits[0])
	}
}

// accountActivity updates the sliding-window busy counters per ancilla,
// using the tile indices precomputed at state construction.
func (e *Engine) accountActivity() {
	st := e.st
	slot := st.cycle % st.actWindow
	for ancID, tile := range st.ancTileIdx {
		busy := uint8(0)
		if st.tileOp[tile] != nil {
			busy = 1
		}
		pos := ancID*st.actWindow + slot
		st.actSum[ancID] += int(busy) - int(st.actBuf[pos])
		st.actBuf[pos] = busy
		st.actTotal[ancID] += int(busy)
	}
}

// accountIdle counts cycles in which a data qubit still has work but is
// not participating in any op.
func (e *Engine) accountIdle() {
	st := e.st
	for q := range st.idleCycles {
		if st.gatesLeft[q] > 0 && st.qubitOp[q] == nil {
			st.idleCycles[q]++
		}
	}
}

// collect builds the Result after completion.
func (e *Engine) collect() *Result {
	st := e.st
	r := &Result{
		Scheduler:          e.sched.Name(),
		TotalCycles:        st.cycle,
		AncillaUtilization: make([]float64, st.grid.NumAncilla()),
		PrepsStarted:       st.prepsStarted,
		InjectionsStarted:  st.injectionsStarted,
		InjectionFailures:  st.injectionFailures,
		EdgeRotations:      st.edgeRotations,
		IdlePerQubit:       make([]float64, st.grid.NumQubits()),
	}
	for n := 0; n < st.dag.Len(); n++ {
		lat := st.doneAt[n] - st.readyAt[n] + 1
		switch st.dag.Gate(n).Kind {
		case circuit.KindCNOT:
			r.CNOTLatencies = append(r.CNOTLatencies, lat)
		case circuit.KindRz:
			r.RzLatencies = append(r.RzLatencies, lat)
		}
	}
	if st.cycle > 0 {
		for a := range r.AncillaUtilization {
			r.AncillaUtilization[a] = float64(st.actTotal[a]) / float64(st.cycle)
		}
	}
	var idleSum float64
	for q := range r.IdlePerQubit {
		span := st.lastGateAt[q]
		if span <= 0 {
			span = st.cycle
		}
		f := float64(st.idleCycles[q]) / float64(span)
		r.IdlePerQubit[q] = f
		idleSum += f
	}
	r.MeanIdleFraction = idleSum / float64(len(r.IdlePerQubit))
	return r
}
