package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/analytics"
	"repro/internal/config"
	"repro/internal/experiments"
)

// TestDaemonSweepsMatchFigureDrivers regenerates the quick Figure 10 and
// Figure 14 grids twice: through the experiment drivers, and as sweeps on
// an in-process daemon with a real engine and a WAL. Every analytics
// group (benchmark x scheduler x k x compression) must read exactly the
// driver's mean, the compressed Figure 14 points included: both paths run
// each configuration through the one seeded-run step. The drivers fan
// their runs out over a worker pool and share the memoized benchmark DAGs
// with the daemon's slots, so under -race this also checks that sharing.
func TestDaemonSweepsMatchFigureDrivers(t *testing.T) {
	o := experiments.Options{Quick: true} // what rescq.Experiment runs
	fig10, err := experiments.Figure10(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	fig14, err := experiments.Figure14(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}

	// want maps benchmark/scheduler/k/compression to the driver's mean.
	// Canonical options zero k for the static schedulers.
	want := map[string]float64{}
	point := func(bench, sched string, k int, comp float64) string {
		return fmt.Sprintf("%s/%s/%d/%g", bench, sched, k, comp)
	}
	var benches10 []string
	var ks []int
	for _, row := range fig10.Rows {
		benches10 = append(benches10, row.Bench)
		want[point(row.Bench, "greedy", 0, 0)] = row.Greedy
		want[point(row.Bench, "autobraid", 0, 0)] = row.AutoBraid
		ks = ks[:0]
		for k, mean := range row.RescqByK {
			want[point(row.Bench, "rescq", k, 0)] = mean
			ks = append(ks, k)
		}
	}
	var benches14 []string
	for bench, bySched := range fig14.Cycles {
		benches14 = append(benches14, bench)
		for sched, means := range bySched {
			k := 0
			if sched == "rescq" {
				k = 25
			}
			for ci, comp := range fig14.Compressions {
				key := point(bench, sched, k, comp)
				if prev, ok := want[key]; ok && prev != means[ci] {
					t.Errorf("%s: Figure 10 reads %v, Figure 14 %v", key, prev, means[ci])
				}
				want[key] = means[ci]
			}
		}
	}

	s := New(config.Daemon{Workers: 2}, EngineRunner{})
	if _, err := s.AttachStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdownServer(t, s)
	})
	sweep := func(req SweepRequest) {
		t.Helper()
		view := decode[JobView](t, postJSON(t, ts.URL+"/v1/sweep", req))
		if view.State != JobDone {
			t.Fatalf("sweep %+v ended %s: %s", req, view.State, view.Error)
		}
	}
	runs := 2 // quick mode's seed count
	sweep(SweepRequest{Benchmarks: benches10, KValues: ks, Runs: runs, Seed: 1})
	sweep(SweepRequest{Benchmarks: benches14, KValues: []int{25}, Compressions: fig14.Compressions, Runs: runs, Seed: 1})

	got := decode[analytics.GroupByResponse](t, get(t, ts.URL+"/v1/analytics/groupby?by=benchmark,scheduler,k,compression"))
	if len(got.Groups) != len(want) {
		t.Errorf("daemon has %d groups, the drivers %d points", len(got.Groups), len(want))
	}
	for _, g := range got.Groups {
		var k int
		var comp float64
		fmt.Sscan(g.Key["k"], &k)
		fmt.Sscan(g.Key["compression"], &comp)
		key := point(g.Key["benchmark"], g.Key["scheduler"], k, comp)
		if mean, ok := want[key]; !ok {
			t.Errorf("%s: no driver point", key)
		} else if g.MeanCycles != mean {
			t.Errorf("%s: daemon reads %v cycles, driver %v", key, g.MeanCycles, mean)
		}
	}
}

// TestExperimentJobCancellation: DELETE on a full-size Figure 10 job (3.6s
// of simulation on a 2-vCPU host) reaches the drivers' seeded runs, so the
// job is cancelled within tens of milliseconds, even under -race, and frees
// its only engine slot for the next run.
func TestExperimentJobCancellation(t *testing.T) {
	_, ts := newTestServer(t, config.Daemon{Workers: 1}, EngineRunner{})
	job := decode[JobView](t, postJSON(t, ts.URL+"/v1/run", RunRequest{Experiment: "fig10", Async: true}))
	pollUntil(t, "the fig10 job running", func() bool { return getJob(t, ts.URL, job.ID).State == JobRunning })
	time.Sleep(100 * time.Millisecond) // let the drivers get into their runs
	start := time.Now()
	httpDelete(t, ts.URL+"/v1/jobs/"+job.ID)
	pollUntil(t, "the fig10 job to end", func() bool {
		switch getJob(t, ts.URL, job.ID).State {
		case JobQueued, JobRunning:
			return false
		}
		return true
	})
	if v := getJob(t, ts.URL, job.ID); v.State != JobCancelled {
		t.Fatalf("fig10 job state = %s (%s), want cancelled", v.State, v.Error)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("fig10 job took %v to cancel, want under 1s", d)
	}
	next := decode[JobView](t, postJSON(t, ts.URL+"/v1/run", RunRequest{
		Benchmark: "gcm_n13", Options: rescq.Options{Runs: 1}, Async: true,
	}))
	if v := waitForJob(t, ts.URL, next.ID); v.State != JobDone {
		t.Fatalf("run after the cancel: state = %s (%s), want done", v.State, v.Error)
	}
}
