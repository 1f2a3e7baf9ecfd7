package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/config"
	"repro/internal/fault"
)

// chaosSeed is the fault schedule's PRNG seed: RESCQ_CHAOS_SEED when set
// (the CI fault matrix pins several), a fixed default otherwise. A failing
// run reproduces exactly by re-exporting the seed it logs.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	raw := os.Getenv("RESCQ_CHAOS_SEED")
	if raw == "" {
		return 1337
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("bad RESCQ_CHAOS_SEED %q: %v", raw, err)
	}
	return n
}

// TestChaosSweepUnderFaults is the resilience acceptance test: a real
// 1-coordinator/3-worker topology runs the 24-configuration sweep while a
// seeded fault schedule injects dispatch failures, worker-side latency,
// heartbeat failures and a WAL write burst. The sweep must still complete
// with zero lost or duplicated configurations and results byte-identical
// to a fault-free standalone run (modulo the cached flag), and the WAL
// burst must degrade durability instead of failing the submission.
func TestChaosSweepUnderFaults(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (reproduce with RESCQ_CHAOS_SEED=%d)", seed, seed)

	// Fault-free standalone baseline, recorded before anything is armed.
	_, baseTS := newTestServer(t, config.Daemon{Workers: 2}, nil)
	base := chaosSweep
	base.Async = false
	baseline := decode[JobView](t, postJSON(t, baseTS.URL+"/v1/sweep", base))
	if baseline.State != JobDone || len(baseline.Results) != 24 {
		t.Fatalf("baseline sweep: state=%s results=%d, want done/24", baseline.State, len(baseline.Results))
	}
	wantJSON := normalizeResults(t, baseline.Results)

	coord := startCoordinator(t, t.TempDir())
	for i := 0; i < 3; i++ {
		startWorker(t, coord.ts.URL, nil)
	}
	waitForWorkers(t, coord, 3)

	// Every fragile layer at once: dispatch RPCs fail, worker execution
	// stalls, heartbeats drop, and the WAL takes a two-write disk-full
	// burst on the coordinator.
	schedule := fault.ClusterDispatch + "=err(chaos: dispatch)%0.25;" +
		fault.ClusterExecute + "=delay(25ms)%0.4;" +
		fault.ClusterRegister + "=err(chaos: register)%0.1;" +
		fault.WALWrite + "=2*err(disk full)"
	if err := fault.Configure(schedule, seed); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	defer fault.Disable()

	resp := postJSON(t, coord.ts.URL+"/v1/sweep", chaosSweep)
	accepted := decode[JobView](t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed %d: sweep submit under faults: %d", seed, resp.StatusCode)
	}
	view := waitForJob(t, coord.ts.URL, accepted.ID)
	for _, name := range fault.Names() {
		st := fault.Stats()[name]
		t.Logf("failpoint %s: %d/%d evaluations fired", name, st.Fires, st.Evals)
	}
	if view.State != JobDone {
		t.Fatalf("seed %d: sweep finished %s (%s), want done", seed, view.State, view.Error)
	}
	if view.Progress.Done != 24 || view.Progress.Total != 24 {
		t.Fatalf("seed %d: progress = %+v, want 24/24", seed, view.Progress)
	}

	// Zero lost, zero duplicated configurations.
	full := decode[JobView](t, get(t, coord.ts.URL+"/v1/jobs/"+accepted.ID))
	seen := make(map[int]bool, len(full.Results))
	for _, r := range full.Results {
		if seen[r.Index] {
			t.Fatalf("seed %d: configuration %d delivered twice", seed, r.Index)
		}
		seen[r.Index] = true
	}
	if len(seen) != 24 {
		t.Fatalf("seed %d: %d distinct configurations, want 24", seed, len(seen))
	}
	gotJSON := normalizeResults(t, full.Results)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("seed %d: chaos sweep differs from the fault-free standalone run:\nchaos:\n%s\nbaseline:\n%s",
			seed, gotJSON, wantJSON)
	}

	// The faults ran over the production data plane: the workers advertise
	// the binary codec, so the surviving dispatches must have used it.
	if n := coord.srv.stats.WireBinaryBatches.Load(); n == 0 {
		t.Fatalf("seed %d: chaos sweep completed without a single binary-wire batch", seed)
	}

	// The schedule was not a no-op: at least one failpoint fired. (Which
	// ones, and how often, is the seed's business.)
	var fires int64
	for _, st := range fault.Stats() {
		fires += st.Fires
	}
	if fires == 0 {
		t.Fatalf("seed %d: no failpoint fired; the sweep was never actually under fault", seed)
	}

	// The WAL burst hit the submission's append and flipped the daemon to
	// lossy serving exactly once — it never surfaced as a request failure.
	if n := coord.srv.stats.DurabilityLost.Load(); n != 1 {
		t.Fatalf("seed %d: durability lost %d times, want 1", seed, n)
	}
	if n := coord.srv.stats.LossyWrites.Load(); n == 0 {
		t.Fatalf("seed %d: no writes were skipped in lossy mode", seed)
	}

	// An armed daemon is always distinguishable from production.
	health := decode[healthBody](t, get(t, coord.ts.URL+"/healthz"))
	if health.Failpoints != schedule {
		t.Fatalf("healthz failpoints = %q, want the armed schedule", health.Failpoints)
	}
}

// TestWALDiskFullDegradesToLossy: a WAL write failure must degrade the
// daemon to flagged non-durable serving — submissions keep succeeding,
// /healthz and /metrics show durable=false — and the periodic probe must
// restore durability once the disk takes writes again.
func TestWALDiskFullDegradesToLossy(t *testing.T) {
	cfg := config.Daemon{Workers: 1}.WithDefaults()
	s := New(cfg, nil)
	s.probeEvery = 25 * time.Millisecond // fast re-attach probe for the test
	if _, err := s.AttachStore(t.TempDir()); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	if err := fault.Configure(fault.WALWrite+"=err(disk full)", 1); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	defer fault.Disable()

	// The submission sails through: persistence degrades, requests don't.
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "gcm_n13", Options: rescq.Options{Runs: 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run under WAL failure: %d, want 200", resp.StatusCode)
	}
	if run := decode[RunResponse](t, resp); run.Summary == nil {
		t.Fatal("run under WAL failure returned no summary")
	}

	health := decode[healthBody](t, get(t, ts.URL+"/healthz"))
	if health.Durable == nil || *health.Durable {
		t.Fatalf("healthz durable = %v, want false", health.Durable)
	}
	if n := s.stats.DurabilityLost.Load(); n != 1 {
		t.Fatalf("durability lost %d times, want 1", n)
	}
	prom := scrapeMetrics(t, ts.URL)
	if v, ok := sampleValue(prom, "rescqd_store_durable"); !ok || v != 0 {
		t.Fatalf("rescqd_store_durable = %v (present %v), want 0 in lossy mode", v, ok)
	}
	if v, _ := sampleValue(prom, "rescqd_lossy_writes_total"); v == 0 {
		t.Fatal("/metrics shows no lossy writes while serving non-durably")
	}

	st, _ := s.StoreStats()
	recordsLossy := st.Records

	// Disarm the fault — the disk "takes writes again" — and the probe
	// re-attaches durability without a restart.
	fault.Disable()
	deadline := time.Now().Add(5 * time.Second)
	for {
		health = decode[healthBody](t, get(t, ts.URL+"/healthz"))
		if health.Durable != nil && *health.Durable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("durability was not restored after the fault cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.stats.DurabilityRestored.Load(); n != 1 {
		t.Fatalf("durability restored %d times, want 1", n)
	}

	// Appends reach the disk again: a fresh job grows the log.
	resp = postJSON(t, ts.URL+"/v1/run", RunRequest{Benchmark: "qft_n18", Options: rescq.Options{Runs: 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after re-attach: %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if st, _ = s.StoreStats(); st.Records <= recordsLossy {
		t.Fatalf("log did not grow after re-attach: %d -> %d records", recordsLossy, st.Records)
	}
}
