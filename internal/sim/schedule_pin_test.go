package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sched"
	"repro/internal/sim"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/schedule_pin.golden from the current engine")

// pinScheduler is one scheduler configuration of the schedule-pin matrix.
type pinScheduler struct {
	label, name string
	params      sched.Params
}

// TestSchedulePin hashes every field of the sim.Result of a fixed run
// matrix (three schedulers, RESCQ also at K=1/TauMST=0; six benchmarks up
// to ising_n420; compression 0 and 0.5) and compares the digests with
// testdata/schedule_pin.golden. An engine or scheduler change that is
// meant to keep every schedule must leave the golden untouched; rewrite it
// with -update only for a change that is meant to move schedules.
func TestSchedulePin(t *testing.T) {
	schedulers := []pinScheduler{
		{"greedy", "greedy", sched.Params{}},
		{"autobraid", "autobraid", sched.Params{}},
		{"rescq", "rescq", sched.Params{}},
		{"rescq-k1-tau0", "rescq", sched.Params{K: 1, TauMST: -1}},
	}
	benchmarks := []string{"gcm_n13", "qft_n29", "dnn_n16", "qft_n160", "ising_n420", "multiplier_n75"}
	cfg := sim.Config{Distance: 7, PhysError: 5e-4}

	type job struct {
		bench       string
		s           pinScheduler
		compression float64
	}
	var jobs []job
	for _, b := range benchmarks {
		for _, compression := range []float64{0, 0.5} {
			for _, s := range schedulers {
				jobs = append(jobs, job{b, s, compression})
			}
		}
	}
	// The runs are independent, so they fan out over the CPUs; each line
	// lands in its own slot, so the golden does not depend on the order.
	lines := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	sim.ParallelFor(len(jobs), 0, func(i int) {
		j := jobs[i]
		dag, ok := qbench.DAG(j.bench)
		if !ok {
			errs[i] = fmt.Errorf("unknown benchmark %q", j.bench)
			return
		}
		runs := sim.SeededRuns{
			Grid: lattice.MustBuild("star", dag.Circuit().NumQubits, nil), DAG: dag, Config: cfg,
			Compression: j.compression, Seed: 11,
			NewScheduler: func() (sim.Scheduler, error) { return sched.New(j.s.name, j.s.params) },
		}
		res, err := runs.Run(context.Background(), 0)
		if err != nil {
			errs[i] = fmt.Errorf("%s/%s/c=%g: %w", j.bench, j.s.label, j.compression, err)
			return
		}
		lines[i] = fmt.Sprintf("%s %s c=%g cycles=%d %x\n", j.bench, j.s.label, j.compression, res.TotalCycles, resultDigest(res))
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(lines, "")

	path := filepath.Join("testdata", "schedule_pin.golden")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("schedules moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// resultDigest is a SHA-256 over every field of r, floats by their bits.
func resultDigest(r *sim.Result) []byte {
	h := sha256.New()
	var b []byte
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	num := func(v int64) { b = binary.AppendVarint(b, v) }
	ints := func(vs []int) {
		num(int64(len(vs)))
		for _, v := range vs {
			num(int64(v))
		}
	}
	floats := func(vs []float64) {
		num(int64(len(vs)))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	str(r.Scheduler)
	str(r.Benchmark)
	num(r.Seed)
	num(int64(r.TotalCycles))
	ints(r.CNOTLatencies)
	ints(r.RzLatencies)
	floats(r.IdlePerQubit)
	floats([]float64{r.MeanIdleFraction})
	floats(r.AncillaUtilization)
	for _, v := range []int{r.PrepsStarted, r.InjectionsStarted, r.InjectionFailures, r.EdgeRotations} {
		num(int64(v))
	}
	h.Write(b)
	return h.Sum(nil)
}
