package rescq

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// TestMemoizedDAGSharedAcrossSlots runs one benchmark on two slots at once,
// each running its seeds serially. Both runs share the process-wide
// memoized circuit and DAG, so under -race any engine or scheduler write
// to them is reported; both must also equal a run on its own.
func TestMemoizedDAGSharedAcrossSlots(t *testing.T) {
	for _, sched := range []SchedulerKind{Greedy, RESCQ} {
		opts := Options{Scheduler: sched, Runs: 2, Seed: 5}
		want, err := Run("gcm_n13", opts)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		var wg sync.WaitGroup
		got := make([]Summary, 2)
		errs := make([]error, 2)
		for slot := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[slot], errs[slot] = RunContext(context.Background(), "gcm_n13", opts)
			}()
		}
		wg.Wait()
		for slot := range got {
			if errs[slot] != nil {
				t.Fatal(errs[slot])
			}
			if data, _ := json.Marshal(got[slot]); string(data) != string(wantJSON) {
				t.Fatalf("%s slot %d differs from the run on its own", sched, slot)
			}
		}
	}
}
