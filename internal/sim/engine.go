package sim

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/rus"
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
	// (calling st.CompleteGate) and failure handling. op is valid only
	// until the end of the current cycle (see Op): the scheduler must not
	// retain it.
	OnOpDone(st *State, op *Op, success bool)
	// Release is called once, when the run ends, whatever the outcome;
	// the instance must not be used after that. Pooled schedulers (the
	// static baselines and RESCQ, as sched.New hands them out) go back
	// to their free list here; a wrapper that embeds a Scheduler forwards
	// it by method promotion.
	Release()
}

// Engine couples a State with a Scheduler and runs to completion.
type Engine struct {
	st    *State
	sched Scheduler
}

type completion struct {
	op      *Op
	success bool
}

// NewEngine builds an engine over a fresh simulation state. The state's
// storage comes from a pool and goes back to it when the run ends, so
// engines that run one after another reuse each other's buffers.
func NewEngine(g *lattice.Grid, dag *circuit.DAG, cfg Config, seed int64, sched Scheduler) *Engine {
	return &Engine{st: newState(g, dag, cfg, seed), sched: sched}
}

// cancelCheckMask gates how often RunContext polls ctx and yields its P:
// every 256 cycles. Polling costs a nil-channel select and a Gosched, noise
// at this stride, while 256 cycles is a tiny fraction of any real circuit's
// makespan — cancellation lands promptly mid-run, and a goroutine that
// became runnable meanwhile waits at most one stride for a P.
const cancelCheckMask = 255

// RunContext executes the simulation until every gate completes and
// returns the collected statistics. It fails on scheduler deadlock (no
// progress for cfg.StallLimit cycles) or when cfg.MaxCycles is exceeded. An
// engine runs once: RunContext returns the state's storage to the pool and
// releases the scheduler.
//
// Cancellation is cooperative: the per-cycle loop polls ctx every few
// hundred cycles and aborts with ctx's error, so a cancelled serving
// request stops a long simulation mid-configuration instead of running it
// to completion. At the same poll it yields its P.
// A configuration never blocks, so when every P runs one, the goroutines
// that read a request, wake on its completion or write its reply would
// otherwise wait for the runtime's preemption, about every 10 ms. The
// yield touches no RNG draw or decision, so every result is unchanged.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	st := e.st
	defer e.release()
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
			runtime.Gosched()
		}
		st.cycle++
		if st.cycle > st.cfg.MaxCycles {
			return nil, fmt.Errorf("sim: exceeded max cycles %d (%d/%d gates done)",
				st.cfg.MaxCycles, st.numDone, st.dag.Len())
		}
		st.recycle()
		st.startedThisCycle = 0
		e.sched.OnCycle(st)
		// Occupancy is accounted before ops advance so that a tile or
		// qubit counts as busy through the final cycle of its op.
		st.account()
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

// release hands the state's storage back to the pool and the scheduler
// back to its owner. collect has copied out everything the Result holds.
func (e *Engine) release() {
	e.st.release()
	e.st = nil
	e.sched.Release()
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
	completions := st.completions[:0]
	progressed := false
	for _, op := range prev {
		if op.done && !op.prepared {
			st.retire(op) // cancelled mid-preparation (CancelPrep)
			continue
		}
		if op.done || op.prepared {
			continue // parked, or parked and then consumed / discarded
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
					success = st.rng.Float64() < rus.InjectionSuccessProb
					if !success {
						st.injectionFailures++
					}
				}
				e.finish(op)
				st.retire(op)
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
	st.completions = completions[:0]
	return progressed
}

// finish releases a fixed-duration op's reservations. Prep ops are not
// finished here: they park holding their tile until consumed or discarded.
func (e *Engine) finish(op *Op) {
	st := e.st
	op.done = true
	for _, q := range op.Qubits {
		if st.qubitOp[q] == op {
			st.setQubitOp(q, nil)
		}
	}
	for _, t := range op.Tiles {
		if i, _ := st.grid.Index(t); st.tileOp[i] == op {
			st.setTileOp(i, nil)
		}
	}
	if op.Kind == OpEdgeRotation {
		st.grid.ToggleOrientation(op.Qubits[0])
	}
}

// account records the occupancy of the current cycle. Only ancillas and
// qubits marked dirty since the previous pass can have changed state, so
// the pass costs O(changes), not O(ancillas + qubits); the counts it keeps
// equal a full per-cycle scan's.
func (st *State) account() {
	t := st.cycle
	for _, a := range st.dirtyAnc {
		st.ancDirty[a] = false
		busy := st.tileOp[st.ancTileIdx[a]] != nil
		switch open := st.runStart[a] > 0; {
		case busy && !open:
			st.runStart[a] = int32(t)
		case !busy && open:
			st.closeRun(int(a), int32(t-1))
		}
	}
	st.dirtyAnc = st.dirtyAnc[:0]
	st.actCycle = t

	for _, q := range st.dirtyQubit {
		st.qubitDirty[q] = false
		idle := st.gatesLeft[q] > 0 && st.qubitOp[q] == nil
		switch since := st.idleSince[q]; {
		case idle && since == 0:
			st.idleSince[q] = t
		case !idle && since > 0:
			st.idleCycles[q] += t - since
			st.idleSince[q] = 0
		}
	}
	st.dirtyQubit = st.dirtyQubit[:0]
}

// closeRun ends ancilla a's open busy run at cycle end. Runs that can no
// longer overlap any future activity window are pruned first, so each
// ancilla keeps at most about actWindow/2 runs.
func (st *State) closeRun(a int, end int32) {
	start := st.runStart[a]
	st.runStart[a] = 0
	st.actTotal[a] += int(end - start + 1)
	lo := end + 2 - int32(st.actWindow) // first cycle of the next window
	rs := st.runs[a]
	k := 0
	for k < len(rs) && rs[k].end < lo {
		k++
	}
	if k > 0 {
		rs = append(rs[:0], rs[k:]...)
	}
	if end >= lo {
		rs = append(rs, busyRun{start, end})
	}
	st.runs[a] = rs
}

// collect builds the Result after completion. The Result shares no
// storage with the State, which goes back to the pool after the run: its
// per-gate latencies and its per-ancilla and per-qubit fractions are each
// copied into one fresh array, sized from the DAG's gate counts and the
// grid.
func (e *Engine) collect() *Result {
	st := e.st
	na, nq := st.grid.NumAncilla(), st.grid.NumQubits()
	fracs := make([]float64, na+nq)
	r := &Result{
		Scheduler:          e.sched.Name(),
		TotalCycles:        st.cycle,
		AncillaUtilization: fracs[:na:na],
		PrepsStarted:       st.started[OpPrep],
		InjectionsStarted:  st.started[OpInjection],
		InjectionFailures:  st.injectionFailures,
		EdgeRotations:      st.started[OpEdgeRotation],
		IdlePerQubit:       fracs[na:],
	}
	lats := make([]int, 0, st.numCNOT+st.numRz) // a gate kind the DAG lacks keeps nil
	if st.numCNOT > 0 {
		r.CNOTLatencies = lats[:0:st.numCNOT]
	}
	if st.numRz > 0 {
		r.RzLatencies = lats[st.numCNOT:st.numCNOT]
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
			busy := st.actTotal[a]
			if s := int(st.runStart[a]); s > 0 {
				busy += st.cycle - s + 1 // the run still open at the end
			}
			r.AncillaUtilization[a] = float64(busy) / float64(st.cycle)
		}
	}
	var idleSum float64
	for q := range r.IdlePerQubit {
		span := st.lastGateAt[q]
		if span <= 0 {
			span = st.cycle
		}
		idle := st.idleCycles[q]
		if s := st.idleSince[q]; s > 0 {
			idle += st.cycle - s + 1
		}
		f := float64(idle) / float64(span)
		r.IdlePerQubit[q] = f
		idleSum += f
	}
	r.MeanIdleFraction = idleSum / float64(len(r.IdlePerQubit))
	return r
}
