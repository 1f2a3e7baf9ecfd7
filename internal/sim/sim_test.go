package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/rus"
)

// scriptSched is a programmable scheduler for engine tests.
type scriptSched struct {
	name    string
	init    func(st *State) error
	onCycle func(st *State)
	onDone  func(st *State, op *Op, success bool)
}

func (s *scriptSched) Name() string {
	if s.name == "" {
		return "script"
	}
	return s.name
}
func (s *scriptSched) Init(st *State) error {
	if s.init != nil {
		return s.init(st)
	}
	return nil
}
func (s *scriptSched) OnCycle(st *State) {
	if s.onCycle != nil {
		s.onCycle(st)
	}
}
func (s *scriptSched) OnOpDone(st *State, op *Op, success bool) {
	if s.onDone != nil {
		s.onDone(st, op, success)
	}
}
func (s *scriptSched) Release() {}

func testCfg() Config { return Config{Distance: 7, PhysError: 1e-4} }

func TestEmptyCircuitCompletesImmediately(t *testing.T) {
	g := lattice.MustBuild("star", 2, nil)
	c := circuit.New("empty", 2)
	c.X(0) // frame-only: DAG is empty
	res, err := RunDAGContext(context.Background(), g, circuit.NewDAG(c), testCfg(), 1, &scriptSched{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 0 {
		t.Errorf("TotalCycles = %d, want 0", res.TotalCycles)
	}
}

func TestCNOTTakesTwoCycles(t *testing.T) {
	g := lattice.MustBuild("star", 4, nil)
	c := circuit.New("cnot", 4)
	c.CNOT(0, 1)
	started := false
	sched := &scriptSched{
		onCycle: func(st *State) {
			if started {
				return
			}
			// Control 0 at (1,1): Z edge tiles (0,1)/(2,1). Target 1 at
			// (1,3): X edge tiles (1,2)/(1,4).
			path := []lattice.Coord{lattice.At(2, 1), lattice.At(2, 2), lattice.At(1, 2)}
			if _, err := st.StartCNOT(0, 0, 1, path); err != nil {
				t.Fatalf("StartCNOT: %v", err)
			}
			started = true
		},
		onDone: func(st *State, op *Op, success bool) {
			if op.Kind != OpCNOT || !success {
				t.Fatalf("unexpected completion %v success=%v", op, success)
			}
			st.CompleteGate(op.Node)
		},
	}
	res, err := RunDAGContext(context.Background(), g, circuit.NewDAG(c), testCfg(), 1, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != CNOTCycles {
		t.Errorf("TotalCycles = %d, want %d", res.TotalCycles, CNOTCycles)
	}
	if len(res.CNOTLatencies) != 1 || res.CNOTLatencies[0] != 2 {
		t.Errorf("CNOTLatencies = %v, want [2]", res.CNOTLatencies)
	}
}

func TestCNOTValidationErrors(t *testing.T) {
	g := lattice.MustBuild("star", 4, nil)
	c := circuit.New("cnot", 4)
	c.CNOT(0, 1)
	dag := circuit.NewDAG(c)
	eng := NewEngine(g, dag, testCfg(), 1, &scriptSched{})
	st := eng.st
	st.cycle = 1

	// Path not touching control's Z edge.
	if _, err := st.StartCNOT(0, 0, 1, []lattice.Coord{lattice.At(1, 2)}); err == nil {
		t.Error("expected Z-edge violation")
	}
	// Path not touching target's X edge.
	if _, err := st.StartCNOT(0, 0, 1, []lattice.Coord{lattice.At(0, 1), lattice.At(0, 2), lattice.At(0, 3)}); err == nil {
		t.Error("expected X-edge violation")
	}
	// Non-contiguous path.
	if _, err := st.StartCNOT(0, 0, 1, []lattice.Coord{lattice.At(0, 1), lattice.At(1, 2)}); err == nil {
		t.Error("expected contiguity violation")
	}
	// Empty path.
	if _, err := st.StartCNOT(0, 0, 1, nil); err == nil {
		t.Error("expected empty-path error")
	}
	// Valid path works.
	if _, err := st.StartCNOT(0, 0, 1, []lattice.Coord{lattice.At(2, 1), lattice.At(2, 2), lattice.At(1, 2)}); err != nil {
		t.Errorf("valid CNOT rejected: %v", err)
	}
	// Second CNOT on same qubits: busy.
	if _, err := st.StartCNOT(0, 0, 1, []lattice.Coord{lattice.At(0, 1), lattice.At(0, 2), lattice.At(1, 2)}); err == nil {
		t.Error("expected busy-qubit error")
	}
}

func TestEdgeRotationTogglesOrientation(t *testing.T) {
	g := lattice.MustBuild("star", 4, nil)
	c := circuit.New("h", 4)
	c.H(0) // just to have a nonempty DAG; we complete it after rotating
	rotDone := false
	sched := &scriptSched{
		onCycle: func(st *State) {
			if st.Cycle() == 1 {
				if _, err := st.StartEdgeRotation(-1, 0, lattice.At(0, 1)); err != nil {
					t.Fatalf("StartEdgeRotation: %v", err)
				}
			}
		},
		onDone: func(st *State, op *Op, success bool) {
			switch op.Kind {
			case OpEdgeRotation:
				rotDone = true
				if st.Grid().Orientation(0) != lattice.ZEastWest {
					t.Error("orientation should toggle after edge rotation")
				}
				if st.Cycle() != EdgeRotationCycles {
					t.Errorf("edge rotation finished at cycle %d, want %d", st.Cycle(), EdgeRotationCycles)
				}
				if _, err := st.StartHadamard(0, 0, lattice.At(1, 0)); err != nil {
					t.Fatalf("StartHadamard: %v", err)
				}
			case OpHadamard:
				st.CompleteGate(0)
			}
		},
	}
	res, err := RunDAGContext(context.Background(), g, circuit.NewDAG(c), testCfg(), 1, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !rotDone {
		t.Fatal("edge rotation never completed")
	}
	// Rotation finishes at the end of cycle 3; the Hadamard started in
	// its completion callback is active cycles 4-6: total 6.
	if res.TotalCycles != 6 {
		t.Errorf("TotalCycles = %d, want 6", res.TotalCycles)
	}
}

func TestPrepInjectLifecycle(t *testing.T) {
	g := lattice.MustBuild("star", 4, nil)
	c := circuit.New("rz", 4)
	angle := circuit.NewAngle(1, 3) // non-dyadic: RUS never leaves injection
	c.Rz(0, angle)
	cur := angle
	sched := &scriptSched{
		onCycle: func(st *State) {
			// Keep a prep going on the Z-edge ancilla whenever idle.
			tile := lattice.At(0, 1)
			if st.TileFree(tile) && st.Status(0) == GateReady {
				if _, err := st.StartPrep(0, tile, cur); err != nil {
					t.Fatalf("StartPrep: %v", err)
				}
			}
		},
		onDone: func(st *State, op *Op, success bool) {
			switch op.Kind {
			case OpPrep:
				if !op.Prepared() {
					t.Fatal("prep completion without Prepared state")
				}
				if _, err := st.StartInjection(0, 0, op.Tiles[0], rus.InjectZZ, lattice.Coord{}, cur); err != nil {
					t.Fatalf("StartInjection: %v", err)
				}
			case OpInjection:
				if success {
					st.CompleteGate(0)
				} else {
					cur = cur.Double()
				}
			}
		},
	}
	res, err := RunDAGContext(context.Background(), g, circuit.NewDAG(c), testCfg(), 42, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles < 2 {
		t.Errorf("suspiciously fast Rz: %d cycles", res.TotalCycles)
	}
	if res.InjectionsStarted < 1 || res.PrepsStarted < 1 {
		t.Errorf("counters: preps=%d injections=%d", res.PrepsStarted, res.InjectionsStarted)
	}
	if res.InjectionsStarted != res.InjectionFailures+1 {
		t.Errorf("injection bookkeeping: %d started, %d failed (want exactly one success)",
			res.InjectionsStarted, res.InjectionFailures)
	}
}

func TestInjectionValidation(t *testing.T) {
	g := lattice.MustBuild("star", 4, nil)
	c := circuit.New("rz", 4)
	angle := circuit.NewAngle(1, 3)
	c.Rz(0, angle)
	dag := circuit.NewDAG(c)
	eng := NewEngine(g, dag, testCfg(), 1, &scriptSched{})
	st := eng.st
	st.cycle = 1

	// No prepared state anywhere.
	if _, err := st.StartInjection(0, 0, lattice.At(0, 1), rus.InjectZZ, lattice.Coord{}, angle); err == nil {
		t.Error("expected error: nothing prepared")
	}
	// Prepare by hand: run a prep op to completion.
	op, err := st.StartPrep(0, lattice.At(0, 1), angle)
	if err != nil {
		t.Fatal(err)
	}
	op.prepared = true

	// Wrong angle.
	if _, err := st.StartInjection(0, 0, op.Tiles[0], rus.InjectZZ, lattice.Coord{}, angle.Double()); err == nil {
		t.Error("expected angle mismatch error")
	}
	// ZZ injection from an X-edge tile must fail: prepare on (1,0).
	op2, err := st.StartPrep(0, lattice.At(1, 0), angle)
	if err != nil {
		t.Fatal(err)
	}
	op2.prepared = true
	if _, err := st.StartInjection(0, 0, lattice.At(1, 0), rus.InjectZZ, lattice.Coord{}, angle); err == nil {
		t.Error("expected Z-edge violation for ZZ injection")
	}
	// CNOT injection via diagonal prep (0,0) and helper (1,0) on X edge:
	if _, err := st.StartInjection(0, 0, lattice.At(0, 1), rus.InjectCNOT, lattice.At(1, 0), angle); err == nil {
		t.Error("expected helper-adjacency violation (helper not adjacent to prep tile)")
	}
	// Free the helper tile by discarding the parked state on (1,0).
	if err := st.DiscardPrepared(lattice.At(1, 0)); err != nil {
		t.Fatalf("DiscardPrepared: %v", err)
	}
	// Valid CNOT injection: prep at (0,0) — adjacent to helper (1,0) which
	// is on the X edge (west) of qubit 0 at (1,1).
	op3, err := st.StartPrep(0, lattice.At(0, 0), angle)
	if err != nil {
		t.Fatal(err)
	}
	op3.prepared = true
	inj, err := st.StartInjection(0, 0, lattice.At(0, 0), rus.InjectCNOT, lattice.At(1, 0), angle)
	if err != nil {
		t.Fatalf("valid CNOT injection rejected: %v", err)
	}
	if inj.remaining != rus.SpecFor(rus.InjectCNOT).Cycles {
		t.Errorf("CNOT injection duration = %d, want 2", inj.remaining)
	}
}

func TestDiscardAndCancelPrep(t *testing.T) {
	g := lattice.MustBuild("star", 4, nil)
	c := circuit.New("rz", 4)
	c.Rz(0, circuit.NewAngle(1, 3))
	dag := circuit.NewDAG(c)
	eng := NewEngine(g, dag, testCfg(), 1, &scriptSched{})
	st := eng.st
	st.cycle = 1
	tile := lattice.At(0, 1)

	op, err := st.StartPrep(0, tile, circuit.NewAngle(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel while still in progress.
	if err := st.CancelPrep(tile); err != nil {
		t.Fatalf("CancelPrep: %v", err)
	}
	if !st.TileFree(tile) {
		t.Error("tile should be free after cancel")
	}
	// Discard requires a prepared state.
	if err := st.DiscardPrepared(tile); err == nil {
		t.Error("discard of empty tile should fail")
	}
	op, err = st.StartPrep(0, tile, circuit.NewAngle(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	op.prepared = true
	if err := st.CancelPrep(tile); err == nil {
		t.Error("cancel of prepared state should fail (use Discard)")
	}
	if err := st.DiscardPrepared(tile); err != nil {
		t.Fatalf("DiscardPrepared: %v", err)
	}
	if !st.TileFree(tile) {
		t.Error("tile should be free after discard")
	}
}

func TestStallDetection(t *testing.T) {
	g := lattice.MustBuild("star", 2, nil)
	c := circuit.New("stall", 2)
	c.CNOT(0, 1)
	cfg := testCfg()
	cfg.StallLimit = 10
	_, err := RunDAGContext(context.Background(), g, circuit.NewDAG(c), cfg, 1, &scriptSched{}) // never schedules anything
	if err == nil {
		t.Fatal("expected stall error")
	}
}

func TestMaxCyclesAbort(t *testing.T) {
	g := lattice.MustBuild("star", 2, nil)
	c := circuit.New("slow", 2)
	c.CNOT(0, 1)
	cfg := testCfg()
	cfg.MaxCycles = 5
	busy := &scriptSched{
		onCycle: func(st *State) {
			// Permanently spin an edge rotation so there is "progress"
			// but the gate never completes.
			if st.QubitFree(0) {
				if _, err := st.StartEdgeRotation(-1, 0, lattice.At(0, 1)); err != nil {
					t.Fatalf("StartEdgeRotation: %v", err)
				}
			}
		},
	}
	if _, err := RunDAGContext(context.Background(), g, circuit.NewDAG(c), cfg, 1, busy); err == nil {
		t.Fatal("expected max-cycles error")
	}
}

func TestInjectionFailureRateNearHalf(t *testing.T) {
	// Run many single-Rz circuits with a non-dyadic angle: across all
	// injections the failure rate must approach 1/2.
	var started, failed int
	for seed := int64(0); seed < 40; seed++ {
		g := lattice.MustBuild("star", 4, nil)
		c := circuit.New("rz", 4)
		angle := circuit.NewAngle(1, 3)
		c.Rz(0, angle)
		cur := angle
		sched := &scriptSched{
			onCycle: func(st *State) {
				tile := lattice.At(0, 1)
				if st.TileFree(tile) && st.Status(0) == GateReady {
					if _, err := st.StartPrep(0, tile, cur); err != nil {
						t.Fatal(err)
					}
				}
			},
			onDone: func(st *State, op *Op, success bool) {
				switch op.Kind {
				case OpPrep:
					if _, err := st.StartInjection(0, 0, op.Tiles[0], rus.InjectZZ, lattice.Coord{}, cur); err != nil {
						t.Fatal(err)
					}
				case OpInjection:
					if success {
						st.CompleteGate(0)
					} else {
						cur = cur.Double()
					}
				}
			},
		}
		res, err := RunDAGContext(context.Background(), g, circuit.NewDAG(c), testCfg(), seed, sched)
		if err != nil {
			t.Fatal(err)
		}
		started += res.InjectionsStarted
		failed += res.InjectionFailures
		cur = angle
	}
	rate := float64(failed) / float64(started)
	if math.Abs(rate-0.5) > 0.15 {
		t.Errorf("injection failure rate = %v over %d injections, want ~0.5", rate, started)
	}
	// Expected injections per gate is 2 (Equation 1).
	perGate := float64(started) / 40
	if perGate < 1.4 || perGate > 2.8 {
		t.Errorf("injections per gate = %v, want ~2", perGate)
	}
}

func TestActivityWindowTracksBusyAncilla(t *testing.T) {
	g := lattice.MustBuild("star", 4, nil)
	c := circuit.New("busy", 4)
	c.CNOT(0, 1)
	cfg := testCfg()
	cfg.ActivityWindow = 10
	dag := circuit.NewDAG(c)
	var observed float64
	sched := &scriptSched{
		onCycle: func(st *State) {
			if st.Cycle() == 1 {
				path := []lattice.Coord{lattice.At(2, 1), lattice.At(2, 2), lattice.At(1, 2)}
				if _, err := st.StartCNOT(0, 0, 1, path); err != nil {
					t.Fatal(err)
				}
			}
		},
		onDone: func(st *State, op *Op, success bool) {
			observed = st.Activity(st.Grid().AncillaID(lattice.At(2, 2)))
			st.CompleteGate(op.Node)
		},
	}
	eng := NewEngine(g, dag, cfg, 1, sched)
	if _, err := eng.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The path ancilla was busy both cycles of a 2-cycle run; window 10.
	if math.Abs(observed-0.2) > 1e-9 {
		t.Errorf("activity = %v, want 0.2", observed)
	}
}

// TestIdleStopsWhenLastGateCompletesWithoutOp completes a qubit's only
// gate straight from OnCycle, with no op releasing the qubit: its idle
// count must still stop at that cycle.
func TestIdleStopsWhenLastGateCompletesWithoutOp(t *testing.T) {
	g := lattice.MustBuild("star", 2, nil)
	c := circuit.New("h", 2)
	c.H(0)
	sched := &scriptSched{
		onCycle: func(st *State) {
			if st.Cycle() == 5 {
				st.CompleteGate(0)
			}
		},
	}
	res, err := RunDAGContext(context.Background(), g, circuit.NewDAG(c), testCfg(), 1, sched)
	if err != nil {
		t.Fatal(err)
	}
	// Idle in cycles 1-4; from cycle 5 the qubit has no work left.
	if got, want := res.IdlePerQubit[0], 4.0/5; got != want {
		t.Errorf("idle fraction = %v, want %v", got, want)
	}
}

func TestAggregateResults(t *testing.T) {
	rs := []*Result{
		{Scheduler: "s", Benchmark: "b", TotalCycles: 10, MeanIdleFraction: 0.2, CNOTLatencies: []int{2}},
		{Scheduler: "s", Benchmark: "b", TotalCycles: 20, MeanIdleFraction: 0.4, CNOTLatencies: []int{5}},
	}
	a := AggregateResults(rs)
	if a.MeanCycles != 15 || a.MinCycles != 10 || a.MaxCycles != 20 {
		t.Errorf("aggregate cycles = %v/%v/%v", a.MeanCycles, a.MinCycles, a.MaxCycles)
	}
	if math.Abs(a.MeanIdle-0.3) > 1e-12 {
		t.Errorf("MeanIdle = %v, want 0.3", a.MeanIdle)
	}
	if math.Abs(a.StdCycles-5) > 1e-9 {
		t.Errorf("StdCycles = %v, want 5", a.StdCycles)
	}
}

func TestDeterministicUnderSameSeed(t *testing.T) {
	run := func(seed int64) *Result {
		g := lattice.MustBuild("star", 4, nil)
		c := circuit.New("rz", 4)
		angle := circuit.NewAngle(1, 3)
		c.Rz(0, angle)
		cur := angle
		sched := &scriptSched{
			onCycle: func(st *State) {
				tile := lattice.At(0, 1)
				if st.TileFree(tile) && st.Status(0) == GateReady {
					st.StartPrep(0, tile, cur)
				}
			},
			onDone: func(st *State, op *Op, success bool) {
				switch op.Kind {
				case OpPrep:
					st.StartInjection(0, 0, op.Tiles[0], rus.InjectZZ, lattice.Coord{}, cur)
				case OpInjection:
					if success {
						st.CompleteGate(0)
					} else {
						cur = cur.Double()
					}
				}
			},
		}
		res, err := RunDAGContext(context.Background(), g, circuit.NewDAG(c), testCfg(), seed, sched)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if a.TotalCycles != b.TotalCycles || a.InjectionsStarted != b.InjectionsStarted {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}
