package rescq

import "testing"

// TestRunAllocationBound checks that the engine, the schedulers and the
// grid clone reuse their storage across configurations: after one warm-up,
// a repeated single-seed Run of gcm_n13 allocates at most runAllocBound
// times under each scheduler. The bound covers what a configuration must
// allocate anew: its layout (lattice.Build: the Grid and its six tiling
// slices), the run's grid clone (two), the engine (one), the sim.Result
// (three: the struct, one latency array, one fraction array) and the
// Summary's runs; everything else comes back from the pools. A buffer
// that a reset reallocates instead of reusing costs at least one
// allocation per Run and trips the bound.
func TestRunAllocationBound(t *testing.T) {
	const runAllocBound = 20
	for _, s := range []SchedulerKind{Greedy, AutoBraid, RESCQ} {
		opts := Options{Scheduler: s, Runs: 1}
		run := func() {
			if _, err := Run("gcm_n13", opts); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: fills the pools
		allocs := testing.AllocsPerRun(20, run)
		t.Logf("%s: %.0f allocations per Run", s, allocs)
		if allocs > runAllocBound {
			t.Errorf("%s: %.0f allocations per Run after warm-up, want at most %d", s, allocs, runAllocBound)
		}
	}
}
