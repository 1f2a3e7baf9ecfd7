package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sched"
	"repro/internal/sim"
)

// checkedScheduler wraps a scheduler and runs the engine invariant
// checker at the start of every cycle, i.e. on the state the previous
// cycle left behind. The state after the last cycle goes back to the
// engine's pool when Run returns, so the final checks run inside the last
// cycle instead: on every completion callback once all gates are done,
// keeping the verdict of the last one, which sees the state Run ends in.
type checkedScheduler struct {
	sim.Scheduler
	c     *sim.Checker
	err   error
	final error // the final checks' verdict
	ended bool  // the final checks ran
}

func (s *checkedScheduler) OnOpDone(st *sim.State, op *sim.Op, success bool) {
	s.Scheduler.OnOpDone(st, op, success)
	if st.AllDone() {
		s.ended = true
		if s.final = s.c.Check(st); s.final != nil {
			s.final = fmt.Errorf("after the last cycle: %w", s.final)
		} else {
			s.final = sim.CheckGateOrder(st)
		}
	}
}

func (s *checkedScheduler) OnCycle(st *sim.State) {
	if s.err == nil {
		if err := s.c.Check(st); err != nil {
			s.err = fmt.Errorf("after cycle %d: %w", st.Cycle()-1, err)
		}
	}
	s.Scheduler.OnCycle(st)
}

// matrixGrid builds layout for n qubits. The "custom" layout is fed the
// linear strip's tiling, so it runs a different fabric than "star".
func matrixGrid(t *testing.T, layout string, n int) *lattice.Grid {
	t.Helper()
	var p lattice.Params
	switch layout {
	case "custom":
		rows := strings.Split(strings.TrimSuffix(lattice.MustBuild("linear", n, nil).Render(), "\n"), "\n")
		spec, err := json.Marshal(map[string][]string{"tiles": rows})
		if err != nil {
			t.Fatal(err)
		}
		p = lattice.Params{"spec": string(spec)}
	case "compact":
		p = lattice.Params{"fraction": "0.5"}
	}
	g, err := lattice.Build(layout, n, p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEngineInvariantsAcrossMatrix runs every benchmark circuit under
// every registered layout and scheduler at d=5 and checks the engine's
// invariants after every cycle, plus the gate order after the run.
func TestEngineInvariantsAcrossMatrix(t *testing.T) {
	for _, spec := range qbench.All() {
		dag := circuit.NewDAG(spec.Circuit())
		for _, layout := range lattice.Layouts() {
			for _, name := range sched.Names() {
				t.Run(spec.Name+"/"+layout+"/"+name, func(t *testing.T) {
					t.Parallel()
					inner, err := sched.New(name, sched.Params{})
					if err != nil {
						t.Fatal(err)
					}
					s := &checkedScheduler{Scheduler: inner, c: sim.NewChecker()}
					g := matrixGrid(t, layout, dag.Circuit().NumQubits)
					e := sim.NewEngine(g, dag, sim.Config{Distance: 5, PhysError: 1e-4}, 1, s)
					if _, err := e.RunContext(context.Background()); err != nil {
						t.Fatal(err)
					}
					if s.err != nil {
						t.Fatal(s.err)
					}
					if !s.ended {
						t.Fatal("the run ended without a completion callback")
					}
					if s.final != nil {
						t.Fatal(s.final)
					}
				})
			}
		}
	}
}

// TestEngineCycleAllocationFree guards the allocation-free cycle loop:
// after the reused buffers have grown, running more cycles must not
// allocate more. It compares a full run against the same run cut off
// halfway by MaxCycles; a per-cycle allocation anywhere in the engine or
// the scheduler shows up as at least one allocation per cycle.
func TestEngineCycleAllocationFree(t *testing.T) {
	spec, _ := qbench.ByName("gcm_n13")
	dag := circuit.NewDAG(spec.Circuit())
	base := lattice.MustBuild("star", dag.Circuit().NumQubits, nil)
	for _, name := range []string{"greedy", "autobraid", "rescq"} {
		for _, d := range []int{5, 11} {
			run := func(maxCycles int) (cycles int) {
				s, err := sched.New(name, sched.Params{})
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Config{Distance: d, PhysError: 1e-4, MaxCycles: maxCycles}
				res, _ := sim.RunDAGContext(context.Background(), base.Clone(), dag, cfg, 1, s)
				if res != nil {
					cycles = res.TotalCycles
				}
				return cycles
			}
			full := run(0)
			if full == 0 {
				t.Fatalf("%s d=%d: run failed", name, d)
			}
			half := full / 2
			allocsFull := testing.AllocsPerRun(3, func() { run(0) })
			allocsHalf := testing.AllocsPerRun(3, func() { run(half) })
			perCycle := (allocsFull - allocsHalf) / float64(full-half)
			t.Logf("%s d=%d: %d cycles, %.0f allocs (%.0f at cycle %d), %.3f allocs/cycle after warm-up",
				name, d, full, allocsFull, allocsHalf, half, perCycle)
			if perCycle > 0.1 {
				t.Errorf("%s d=%d: %.2f allocations per cycle over cycles %d..%d (%.0f -> %.0f), want none",
					name, d, perCycle, half, full, allocsHalf, allocsFull)
			}
		}
	}
}

// scanScheduler records every ancilla's occupancy at the accounting point
// (right after OnCycle) the way a full per-cycle scan would, and checks
// the event-driven Activity against that history at the next cycle.
type scanScheduler struct {
	sim.Scheduler
	window int
	busy   [][]bool // cycle-1 -> ancilla -> reserved
	err    error
}

func (s *scanScheduler) OnCycle(st *sim.State) {
	g := st.Grid()
	if s.err == nil {
		for a := 0; a < g.NumAncilla(); a++ {
			n := 0
			for c := max(0, len(s.busy)-s.window); c < len(s.busy); c++ {
				if s.busy[c][a] {
					n++
				}
			}
			if want := float64(n) / float64(s.window); st.Activity(a) != want {
				s.err = fmt.Errorf("cycle %d ancilla %d: Activity %v, full scan %v", st.Cycle(), a, st.Activity(a), want)
				break
			}
		}
	}
	s.Scheduler.OnCycle(st)
	row := make([]bool, g.NumAncilla())
	for a := range row {
		row[a] = st.TileOp(g.AncillaTile(a)) != nil
	}
	s.busy = append(s.busy, row)
}

// TestEventActivityMatchesFullScan checks that activity accounted by
// events equals a full per-cycle scan, both for the sliding window every
// cycle and for the whole-run utilization.
func TestEventActivityMatchesFullScan(t *testing.T) {
	for _, bench := range []string{"vqe_n13", "qft_n18"} {
		spec, _ := qbench.ByName(bench)
		dag := circuit.NewDAG(spec.Circuit())
		for _, name := range sched.Names() {
			for _, window := range []int{100, 7} {
				inner, err := sched.New(name, sched.Params{})
				if err != nil {
					t.Fatal(err)
				}
				s := &scanScheduler{Scheduler: inner, window: window}
				g := lattice.MustBuild("star", dag.Circuit().NumQubits, nil)
				cfg := sim.Config{Distance: 7, PhysError: 1e-4, ActivityWindow: window}
				res, err := sim.NewEngine(g, dag, cfg, 3, s).RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if s.err != nil {
					t.Fatalf("%s/%s/window %d: %v", bench, name, window, s.err)
				}
				for a, u := range res.AncillaUtilization {
					n := 0
					for _, row := range s.busy {
						if row[a] {
							n++
						}
					}
					if want := float64(n) / float64(res.TotalCycles); u != want {
						t.Fatalf("%s/%s: ancilla %d utilization %v, full scan %v", bench, name, a, u, want)
					}
				}
			}
		}
	}
}
