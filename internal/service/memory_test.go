package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/config"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedHeapPerCachedResult bounds what a live daemon — WAL and
// analytics attached — keeps in memory per delivered cached sweep result:
// the finished job's result slot and the store index's frame location.
// A completed job releases its specs and keys. The summary and canonical
// options belong to the cache entry and are shared by every result it
// serves, so they must not be copied per delivery, and neither must the
// WAL payload.
func TestRetainedHeapPerCachedResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	const sweeps = 100
	s, ts, _ := durableServer(t, config.Daemon{Workers: 2}, &countingRunner{}, t.TempDir())
	req := SweepRequest{
		Benchmarks: []string{"gcm_n13", "qft_n18", "vqe_n13", "qaoa_n15"},
		Distances:  []int{5, 7, 9, 11},
		PhysErrors: []float64{1e-4, 2e-4},
		Runs:       1,
		Stream:     StreamNDJSON,
	}
	sweep := func() int {
		data, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		lines := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines++
		}
		return lines - 1 // the terminal job view
	}
	perSweep := sweep() // cold: fills the cache
	sweep()             // first cached pass: one-time growth (cache boxes, pools)
	before := liveHeap()
	for i := 0; i < sweeps; i++ {
		if n := sweep(); n != perSweep {
			t.Fatalf("cached sweep delivered %d results, want %d", n, perSweep)
		}
	}
	after := liveHeap()
	results := sweeps * perSweep
	per := (float64(after) - float64(before)) / float64(results)
	t.Logf("%d cached results retained %.0f B each", results, per)
	if per > 300 {
		t.Fatalf("retained heap per cached sweep result = %.0f B, want <= 300", per)
	}
	runtime.KeepAlive(s)
}
