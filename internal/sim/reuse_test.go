package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sched"
	"repro/internal/sim"
)

// reuseConfig is one configuration of the storage-reuse sequence.
type reuseConfig struct {
	bench, layout string
	sched         pinScheduler
	compression   float64
	stop          string // "", or how the run is cut short: "cancel" or "stall"

	dag  *circuit.DAG
	grid *lattice.Grid
}

func (c reuseConfig) String() string {
	return fmt.Sprintf("%s/%s/%s/c=%g/%s", c.bench, c.layout, c.sched.label, c.compression, c.stop)
}

// reuseSequence covers every benchmark x scheduler pair once, cycling the
// layouts and compressions so that each appears with grids of every size,
// plus runs cut short mid-run, with live ops, queued gates and parked
// preparations: one cancelled through its context and two that fail on
// the stall limit, one per scheduler type.
func reuseSequence() []reuseConfig {
	schedulers := []pinScheduler{
		{"greedy", "greedy", sched.Params{}},
		{"autobraid", "autobraid", sched.Params{}},
		{"rescq", "rescq", sched.Params{}},
		{"rescq-k1-tau0", "rescq", sched.Params{K: 1, TauMST: -1}},
	}
	layouts := []string{"star", "compact", "linear"}
	var seq []reuseConfig
	for bi, bench := range []string{"gcm_n13", "qft_n160", "ising_n420"} {
		for si, s := range schedulers {
			k := bi*len(schedulers) + si
			seq = append(seq, reuseConfig{
				bench: bench, layout: layouts[k%len(layouts)], sched: s,
				compression: []float64{0, 0.5}[k/len(layouts)%2],
			})
		}
	}
	seq = append(seq[:5], append([]reuseConfig{
		{bench: "qft_n160", layout: "star", sched: schedulers[0], stop: "cancel"},
		{bench: "qft_n160", layout: "compact", sched: schedulers[2], compression: 0.5, stop: "stall"},
		{bench: "qft_n160", layout: "linear", sched: schedulers[1], stop: "stall"},
	}, seq[5:]...)...)
	return seq
}

// stopper cuts a run short from inside: from cycle at on it either cancels
// the run's context or stops scheduling, so the engine aborts on the
// context or on the stall limit. Release is promoted from the embedded
// scheduler, so the cut run's scheduler goes back to the pool with its
// live state.
type stopper struct {
	sim.Scheduler
	at     int
	cancel context.CancelFunc // nil: stall instead
}

func (s *stopper) OnCycle(st *sim.State) {
	if st.Cycle() < s.at {
		s.Scheduler.OnCycle(st)
	} else if s.cancel != nil {
		s.cancel()
		s.Scheduler.OnCycle(st)
	}
}

// prepare builds c's layout and looks up its DAG once, so the runs below
// only simulate.
func (c *reuseConfig) prepare(t *testing.T) {
	t.Helper()
	dag, ok := qbench.DAG(c.bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", c.bench)
	}
	var p lattice.Params
	if c.layout == "compact" {
		p = lattice.Params{"fraction": "0.5"}
	}
	g, err := lattice.Build(c.layout, dag.Circuit().NumQubits, p)
	if err != nil {
		t.Fatal(err)
	}
	c.dag, c.grid = dag, g
}

// run simulates c through the seeded-run step every caller shares, and
// returns its result or its error text.
func (c *reuseConfig) run() (*sim.Result, string) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := sim.Config{Distance: 7, PhysError: 5e-4}
	if c.stop == "stall" {
		cfg.StallLimit = 20
	}
	runs := sim.SeededRuns{
		Grid: c.grid, DAG: c.dag, Config: cfg, Compression: c.compression, Seed: 5,
		NewScheduler: func() (sim.Scheduler, error) {
			s, err := sched.New(c.sched.name, c.sched.params)
			switch {
			case err != nil:
				return nil, err
			case c.stop == "cancel":
				return &stopper{Scheduler: s, at: 100, cancel: cancel}, nil
			case c.stop == "stall":
				return &stopper{Scheduler: s, at: 60}, nil
			}
			return s, nil
		},
	}
	res, err := runs.Run(ctx, 0)
	if err != nil {
		return nil, err.Error()
	}
	return res, ""
}

// TestReuseLeaksNoState runs a fixed sequence of configurations back to
// back on the engine's and the schedulers' reused storage, forward, then
// in reverse, then split over two goroutines, and requires every result
// (or error) to equal the forward one, which itself starts on fresh
// storage only for the first run of each kind. A field that a reset misses leaks
// the previous configuration's state into the next one, and shows up as a
// result that depends on what ran before it.
func TestReuseLeaksNoState(t *testing.T) {
	// On one P the pools hand each run the storage that the last run of
	// its kind released, so the serial passes reuse deterministically.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	seq := reuseSequence()
	want := make([]*sim.Result, len(seq))
	wantErr := make([]string, len(seq))
	for i := range seq {
		seq[i].prepare(t)
		want[i], wantErr[i] = seq[i].run()
		if (wantErr[i] != "") != (seq[i].stop != "") {
			t.Fatalf("%v: error %q", seq[i], wantErr[i])
		}
	}
	check := func(order string, i int, got *sim.Result, gotErr string) {
		if gotErr != wantErr[i] || !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: %v differs from its forward run (error %q, want %q)", order, seq[i], gotErr, wantErr[i])
		}
	}
	for i := len(seq) - 1; i >= 0; i-- {
		got, gotErr := seq[i].run()
		check("reversed", i, got, gotErr)
	}
	runtime.GOMAXPROCS(procs)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(seq); i += 2 {
				got, gotErr := seq[i].run()
				check(fmt.Sprintf("goroutine %d", w), i, got, gotErr)
			}
		}()
	}
	wg.Wait()
}
