package rescq

import (
	"reflect"
	"sync"
	"testing"
)

// concurrentRuns calls Run with the same options from n goroutines at
// once, the way the rescqd daemon's engine slots do, and returns every
// Summary. The goroutines share the memoized benchmark DAG.
func concurrentRuns(t *testing.T, bench string, opts Options, n int) []Summary {
	t.Helper()
	sums := make([]Summary, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i], errs[i] = Run(bench, opts)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	return sums
}

// TestParallelDeterminism asserts that concurrent Run calls change only
// the execution strategy, never the results: each Summary must be
// identical to a lone serial Run, including per-run latencies and
// aggregate statistics, because each seeded run owns its grid, scheduler
// and RNG and only reads the shared DAG.
func TestParallelDeterminism(t *testing.T) {
	for _, sched := range []SchedulerKind{RESCQ, Greedy} {
		opts := Options{Scheduler: sched, Runs: 4}
		serial, err := Run("gcm_n13", opts)
		if err != nil {
			t.Fatalf("serial %s: %v", sched, err)
		}
		for i, got := range concurrentRuns(t, "gcm_n13", opts, 3) {
			if !reflect.DeepEqual(serial, got) {
				t.Errorf("%s: concurrent Summary %d differs from serial\nserial:     %+v\nconcurrent: %+v",
					sched, i, serial, got)
			}
		}
	}
}

// TestParallelDeterminismWithCompression covers the compressed-grid path,
// whose layout RNG is derived per run index and whose compression must
// touch only each run's clone of the prebuilt layout.
func TestParallelDeterminismWithCompression(t *testing.T) {
	opts := Options{Scheduler: RESCQ, Runs: 3, Compression: 0.5}
	serial, err := Run("vqe_n13", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range concurrentRuns(t, "vqe_n13", opts, 3) {
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("concurrent compressed-grid Summary %d differs from serial", i)
		}
	}
}
