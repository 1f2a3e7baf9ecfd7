package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/lattice"
)

// TestSeededRunsErrors: the shared seeded-run step returns a scheduler
// constructor's error and a cancelled context as errors, and compresses
// only its clone, never the prebuilt grid.
func TestSeededRunsErrors(t *testing.T) {
	c := circuit.New("cnot", 4)
	c.CNOT(0, 1)
	runs := SeededRuns{
		Grid:         lattice.MustBuild("star", 4, nil),
		DAG:          circuit.NewDAG(c),
		Config:       testCfg(),
		Compression:  1,
		Seed:         10,
		NewScheduler: func() (Scheduler, error) { return &scriptSched{}, nil },
	}
	ancillas := runs.Grid.NumAncilla()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runs.Run(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
	if got := runs.Grid.NumAncilla(); got != ancillas {
		t.Fatalf("compression reached the prebuilt grid: %d ancillas, want %d", got, ancillas)
	}

	bad := errors.New("no such scheduler")
	failing := runs
	failing.NewScheduler = func() (Scheduler, error) { return nil, bad }
	if _, err := failing.Run(context.Background(), 0); !errors.Is(err, bad) {
		t.Fatalf("constructor error: err = %v, want %v", err, bad)
	}
}
