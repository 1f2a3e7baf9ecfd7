package core

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sim"
)

// stallDumper runs a RESCQ instance without handing it back to the pool
// (its own no-op Release hides the embedded one), so the test still owns
// it after the run, and prints the stall diagnosis from inside cycle
// dumpAt: the engine's state goes back to its pool when Run returns.
type stallDumper struct {
	sim.Scheduler
	s      *Scheduler
	last   int // the last cycle run
	dumpAt int // the cycle to diagnose (the last one of a stalled run), 0 for none
}

func (d *stallDumper) Release() {}

func (d *stallDumper) OnCycle(st *sim.State) {
	d.Scheduler.OnCycle(st)
	d.last = st.Cycle()
	if d.last == d.dumpAt {
		dumpStall(st, d.s)
	}
}

func TestDebugQAOAFSwap(t *testing.T) {
	spec, _ := qbench.ByName("qaoafswap_n15")
	c := spec.Circuit()
	dag := circuit.NewDAG(c)
	scfg := sim.Config{Distance: 7, PhysError: 1e-4, StallLimit: 2000}
	run := func(dumpAt int) (*stallDumper, error) {
		s := New(DefaultConfig()).(*Scheduler)
		d := &stallDumper{Scheduler: s, s: s, dumpAt: dumpAt}
		_, err := sim.NewEngine(lattice.NewSTARGrid(c.NumQubits), dag, scfg, 0, d).Run()
		return d, err
	}
	d, err := run(0)
	if err == nil {
		t.Skip("no stall")
	}
	fmt.Println("ERR:", err)
	// The run is deterministic, so a second one reaches the same last
	// cycle in the same state, and a stalled cycle changes nothing after
	// the scheduler's OnCycle.
	run(d.last)
}

// dumpStall prints the first few unfinished gates of s and the tiles and
// qubits they wait on.
func dumpStall(st *sim.State, s *Scheduler) {
	dag := st.DAG()
	count := 0
	for _, n := range s.live {
		gs := s.gates[n]
		if gs == nil || gs.done {
			continue
		}
		count++
		if count > 8 {
			break
		}
		gate := dag.Gate(n)
		fmt.Printf("node %d %v status=%v gs={rotC:%v rotT:%v rotCBusy:%v rotTBusy:%v opBusy:%v inj:%v needRot:%v angle:%v path:%v}\n",
			n, gate, st.Status(n), gs.rotC, gs.rotT, gs.rotCBusy, gs.rotTBusy, gs.opBusy, gs.injecting, gs.needRotate, gs.angle, gs.path)
		if gs.kind == circuit.KindCNOT {
			for _, tc := range gs.path {
				id := st.Grid().AncillaID(tc)
				fmt.Printf("   tile %v free=%v head=%d queue=%v op=%v\n", tc, st.TileFree(tc), s.queues.head(id), s.queues.q[id], st.TileOp(tc))
			}
			fmt.Printf("   qubits free: c=%v t=%v orientC=%v orientT=%v\n", st.QubitFree(gs.control), st.QubitFree(gs.target), st.Grid().Orientation(gs.control), st.Grid().Orientation(gs.target))
		}
		if gs.kind == circuit.KindRz {
			fmt.Printf("   qubit %d free=%v cands=%v\n", gs.q, st.QubitFree(gs.q), gs.cands)
			for _, cand := range gs.cands {
				id := st.Grid().AncillaID(cand.prep)
				fmt.Printf("   cand prep %v free=%v head=%d op=%v\n", cand.prep, st.TileFree(cand.prep), s.queues.head(id), st.TileOp(cand.prep))
			}
		}
	}
}
