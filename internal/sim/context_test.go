package sim

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/lattice"
)

// TestRunContextPreCancelled: a cancelled context aborts before the first
// cycle, with the context error wrapped for callers to classify.
func TestRunContextPreCancelled(t *testing.T) {
	g := lattice.MustBuild("star", 4, nil)
	c := circuit.New("cnot", 4)
	c.CNOT(0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunDAGContext(ctx, g, circuit.NewDAG(c), testCfg(), 1, &scriptSched{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidRun: cancellation lands inside the cycle loop —
// within one cancel-check stride — instead of waiting for the run to end.
func TestRunContextCancelMidRun(t *testing.T) {
	g := lattice.MustBuild("star", 2, nil)
	c := circuit.New("slow", 2)
	c.CNOT(0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cycles := 0
	// The never-completing scheduler from the max-cycles test: it spins
	// edge rotations forever (progress every cycle, the gate never done),
	// so only the context check can end the run.
	busy := &scriptSched{
		onCycle: func(st *State) {
			cycles++
			if cycles == 3 {
				cancel()
			}
			if st.QubitFree(0) {
				if _, err := st.StartEdgeRotation(-1, 0, lattice.At(0, 1)); err != nil {
					t.Errorf("StartEdgeRotation: %v", err)
				}
			}
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunDAGContext(ctx, g, circuit.NewDAG(c), testCfg(), 1, busy)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not abort")
	}
	if cycles > cancelCheckMask+4 {
		t.Errorf("run kept going for %d cycles after cancellation (stride %d)", cycles, cancelCheckMask+1)
	}
}

// TestRunContextYieldsAtPoll: with one P, a goroutine readied mid-run gets
// to run at the engine's next context poll, not at the runtime's next
// preemption. The runtime's 1-in-61 check of the global run queue can hand
// the P straight back to the yielding engine once, so the bound is four
// strides, not one.
func TestRunContextYieldsAtPoll(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := lattice.MustBuild("star", 2, nil)
	c := circuit.New("slow", 2)
	c.CNOT(0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const (
		wakeAt   = 3
		cancelAt = 20_000
	)
	started, wake := make(chan struct{}), make(chan struct{})
	var woke atomic.Bool
	go func() {
		close(started)
		<-wake
		woke.Store(true)
	}()
	<-started // the waker is parked on wake before the run starts
	cycles, seenAt := 0, 0
	// The busy scheduler of TestRunContextCancelMidRun: only the context
	// check ends the run.
	busy := &scriptSched{
		onCycle: func(st *State) {
			cycles++
			switch {
			case cycles == wakeAt:
				close(wake)
			case cycles == cancelAt:
				cancel()
			}
			if seenAt == 0 && woke.Load() {
				seenAt = cycles
			}
			if st.QubitFree(0) {
				if _, err := st.StartEdgeRotation(-1, 0, lattice.At(0, 1)); err != nil {
					t.Errorf("StartEdgeRotation: %v", err)
				}
			}
		},
	}
	if _, err := RunDAGContext(ctx, g, circuit.NewDAG(c), testCfg(), 1, busy); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if limit := wakeAt + 4*(cancelCheckMask+1); seenAt == 0 || seenAt > limit {
		t.Errorf("woken goroutine first seen at cycle %d (0 = never in %d cycles), want by cycle %d",
			seenAt, cycles, limit)
	}
}
