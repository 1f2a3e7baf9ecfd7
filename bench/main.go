// Command bench measures the rescqd daemon end to end. It builds
// cmd/rescqd from the checkout, starts daemons on 127.0.0.1 with fresh WAL
// directories and analytics on, drives one of four workloads against them
// from this process, checks the outputs, and prints every metric as
// "workload metric value unit", ending with one JSON result line. With
// -trace 1 it then replays the same inputs through each layer's public
// functions in-process and reports per-layer metrics instead. See
// README.md for the workloads, the metrics and how to compare two commits.
//
// Usage (from this directory):
//
//	go run . -workload cold-sweep -seed 3 -seconds 20 -trace 0
//	go run . -seed 1            # all four workloads, with the traced replay
//	go run . -repeat 5          # calibration: median, quartiles, spread per metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is the timed phase length BENCHMARK.json runs with.
const defaultSeconds = 25

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type def struct{ name, unit string }

// e2eDefs are the end-to-end metrics every workload reports with -trace 0.
var e2eDefs = []def{
	{"setup_s", "s"},
	{"configs_per_s", "configs/s"},
	{"result_p50_ms", "ms"},
	{"result_tail_ms", "ms"},
	{"cpu_ms_per_config", "ms"},
	{"rss_mb", "MiB"},
}

// layerDefs are the per-layer metrics every workload reports with -trace 1.
var layerDefs = []def{
	{"qbench.circuit_us", "us"},
	{"circuit.dag_us", "us"},
	{"lattice.build_us", "us"},
	{"lattice.clone_us", "us"},
	{"sched.new_us", "us"},
	{"sched.init_us", "us"},
	{"sched.on_cycle_ms", "ms"},
	{"sched.on_op_done_ms", "ms"},
	{"sim.engine_self_ms", "ms"},
	{"sim.cycles", "cycles"},
	{"sim.host_ns_per_cycle", "ns"},
	{"sim.allocs_per_config", "allocs"},
	{"sim.bytes_per_config", "B"},
	{"stream.first_result_p50_ms", "ms"},
	{"analytics.http_p50_ms", "ms"},
	{"analytics.http_p99_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.exec_p50_ms", "ms"},
	{"service.preempted", "count"},
	{"service.cache_hit_ratio", "fraction"},
	{"service.coalesced", "count"},
	{"service.engine_runs", "count"},
	{"schedq.quantum_ns", "ns"},
	{"rescq.cache_key_us", "us"},
	{"stream.encode_us", "us"},
	{"stream.bytes_per_result", "B"},
	{"store.append_us", "us"},
	{"store.bytes_per_record", "B"},
	{"store.open_replay_ms", "ms"},
	{"analytics.ingest_ns", "ns"},
	{"analytics.query_us", "us"},
	{"cluster.wire_roundtrip_us", "us"},
	{"cluster.batches", "count"},
	{"cluster.batch_size_mean", "configs"},
	{"cluster.redispatch_ratio", "fraction"},
	{"cluster.wire_bytes_per_config", "B"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
	{"trace.attributed_frac", "fraction"},
	{"trace.serving_frac", "fraction"},
}

// env is where the harness builds and runs: the checkout, its
// .bench_build directory, and the rescqd binary built there.
type env struct {
	repo, work, bin string
}

func newEnv(repo string) (*env, error) {
	var err error
	if repo == "" {
		if repo, err = findRepo(); err != nil {
			return nil, err
		}
	}
	if repo, err = filepath.Abs(repo); err != nil {
		return nil, err
	}
	e := &env{repo: repo, work: filepath.Join(repo, ".bench_build")}
	e.bin = filepath.Join(e.work, "bin", "rescqd")
	return e, buildDaemon(repo, e.bin)
}

// report is everything one workload run produced; it is also written as
// the run's JSON report.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	E2E       []metric `json:"end_to_end"`
	Layers    []metric `json:"per_layer,omitempty"`
	Extras    []metric `json:"extras"`
	Digest    string   `json:"sim_digest"`
	Digested  int      `json:"sim_digest_results"`
	Checks    []check  `json:"checks"`
}

// runWorkload runs one workload in a scratch directory under the build
// directory and returns its report; with trace it adds the per-layer
// replay. Every daemon it starts is stopped before it returns.
func runWorkload(e *env, p params, workload string, seed int64, seconds int, trace bool) (*report, error) {
	dir := filepath.Join(e.work, "runs", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer killAll()
	r := &run{
		env: e, p: p, workload: workload, seed: seed, dir: dir,
		seconds: time.Duration(seconds) * time.Second,
		c:       newClient(2), jobs: map[string]bool{}, digest: newDigest(),
	}
	var err error
	switch workload {
	case "cold-sweep":
		err = r.sweeps(standalone)
	case "cluster-sweep":
		err = r.sweeps(clustered)
	case "warm-restart":
		err = r.warmRestart()
	case "interactive":
		err = r.interactive()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		killAll()
		dumpLogs(dir)
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return r.finish(seconds, trace)
}

// dumpLogs copies the tail of every daemon log to stderr.
func dumpLogs(dir string) {
	logs, _ := filepath.Glob(filepath.Join(dir, "*", "*.log"))
	for _, l := range logs {
		b, err := os.ReadFile(l)
		if err != nil {
			continue
		}
		if len(b) > 2000 {
			b = b[len(b)-2000:]
		}
		fmt.Fprintf(os.Stderr, "--- %s\n%s\n", l, b)
	}
}

// endToEnd derives the end-to-end metrics from what the client observed.
func (r *run) endToEnd() map[string]float64 {
	m := map[string]float64{}
	m["setup_s"] = newDist(r.setup).median()
	m["configs_per_s"] = float64(r.configs) / r.seconds.Seconds()
	res := newDist(r.resultMS)
	m["result_p50_ms"] = res.median()
	p, v := res.tail()
	m["result_tail_ms"] = v
	r.extra("result_tail_ms.percentile", p, "pct")
	r.extra("result_tail_ms.samples", float64(len(res)), "count")
	m["cpu_ms_per_config"] = ms(r.cpu) / float64(max(r.configs, 1))
	m["rss_mb"] = r.rssMB
	r.extra("rss_peak_mb", r.peakMB, "MiB")
	r.extra("configs", float64(r.configs), "count")
	return m
}

// daemonLayers derives the per-layer metrics the daemons themselves
// report: job-view timestamps, /metrics counter deltas over the timed
// phase, and the load generator's own lateness.
func (r *run) daemonLayers() map[string]float64 {
	m := map[string]float64{}
	var wait, exec []float64
	for _, v := range r.views {
		if v.Started == nil {
			continue
		}
		wait = append(wait, ms(v.Started.Sub(v.Created)))
		if v.Finished != nil {
			exec = append(exec, ms(v.Finished.Sub(*v.Started)))
		}
	}
	w := newDist(wait)
	m["service.queue_wait_p50_ms"] = w.median()
	m["service.queue_wait_p99_ms"] = w.pct(99)
	m["service.exec_p50_ms"] = newDist(exec).median()
	m["stream.first_result_p50_ms"] = newDist(r.firstMS).median()
	an := newDist(r.analyticsMS)
	m["analytics.http_p50_ms"] = an.median()
	m["analytics.http_p99_ms"] = an.pct(99)

	d := func(names ...string) float64 { return delta(r.before, r.after, names...) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["service.preempted"] = d("rescqd_jobs_preempted_total")
	hits := d("rescqd_cache_hits_total")
	m["service.cache_hit_ratio"] = ratio(hits, hits+d("rescqd_cache_misses_total"))
	m["service.coalesced"] = d("rescqd_coalesced_total")
	m["service.engine_runs"] = d("rescqd_engine_runs_total")
	batches, remote := d("rescqd_cluster_batches_dispatched_total"), d("rescqd_cluster_remote_configs_total")
	m["cluster.batches"] = batches
	m["cluster.batch_size_mean"] = ratio(remote, batches)
	m["cluster.redispatch_ratio"] = ratio(d("rescqd_cluster_batches_redispatched_total"), batches)
	m["cluster.wire_bytes_per_config"] = ratio(
		d("rescqd_cluster_wire_bytes_out_total", "rescqd_cluster_wire_bytes_in_total"), remote)
	m["loadgen.late_p99_ms"] = newDist(r.lateMS).pct(99)
	// A WAL compaction stalls appends while it rewrites the live state, so
	// a phase with one more compaction than another shows a longer tail.
	r.extra("store.appends", d("rescqd_store_appends_total"), "count")
	r.extra("store.compactions", d("rescqd_store_compactions_total"), "count")
	return m
}

// finish computes the metrics, runs the replay (trace) or a sampled
// recomputation (no trace), applies the run-wide checks and builds the
// report.
func (r *run) finish(seconds int, trace bool) (*report, error) {
	e2e := r.endToEnd()
	layers := r.daemonLayers()
	if trace {
		if err := r.replay(e2e, layers); err != nil {
			return nil, fmt.Errorf("%s: replay: %w", r.workload, err)
		}
	} else if err := r.verify(); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", r.workload, err)
	}
	if r.lateLimitMS > 0 {
		r.check("loadgen_on_time", layers["loadgen.late_p99_ms"] <= r.lateLimitMS,
			"generator sent %.3f ms late at its tail (limit %.3g ms)", layers["loadgen.late_p99_ms"], r.lateLimitMS)
	}
	r.check("no_failures", r.failed == 0, "%d of %d operations failed", r.failed, r.ops)

	rep := &report{
		Workload: r.workload, Seed: r.seed, Seconds: seconds, Correct: true,
		Attempted: r.ops, Failed: r.failed, Failures: r.failures, Extras: r.extras,
		Digest: r.digest.String(), Digested: r.digest.n, Checks: r.checks,
	}
	for _, c := range r.checks {
		rep.Correct = rep.Correct && c.OK
	}
	var err error
	if rep.E2E, err = collect(e2eDefs, e2e); err != nil {
		return nil, err
	}
	if trace {
		if rep.Layers, err = collect(layerDefs, layers); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// collect orders computed values by their definitions, refusing a missing
// or non-finite one.
func collect(defs []def, vals map[string]float64) ([]metric, error) {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		out = append(out, metric{d.name, v, d.unit})
	}
	return out, nil
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printHuman writes every metric as "workload metric value unit", then
// the digest and the checks.
func printHuman(w io.Writer, rep *report) {
	for _, group := range [][]metric{rep.E2E, rep.Layers, rep.Extras} {
		for _, m := range group {
			fmt.Fprintf(w, "%s %s %s %s\n", rep.Workload, m.Name, formatValue(m.Value), m.Unit)
		}
	}
	fmt.Fprintf(w, "%s sim_digest %s over %d results\n", rep.Workload, rep.Digest, rep.Digested)
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "%s check %s %s: %s\n", rep.Workload, c.Name, status, c.Detail)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "%s failure: %s\n", rep.Workload, f)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func writeReport(e *env, rep *report) (string, error) {
	dir := filepath.Join(e.work, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", rep.Workload, rep.Seed))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all (every workload, traced)")
		seed     = fs.Int64("seed", 1, "input seed: the same seed sends the same requests")
		seconds  = fs.Int("seconds", defaultSeconds, "length of each workload's timed phase")
		trace    = fs.Int("trace", 0, "1: after the end-to-end run, replay its inputs through each layer and report per-layer metrics")
		repeat   = fs.Int("repeat", 0, "calibration: run each workload this many times on consecutive seeds and print every metric's median, quartiles and spread")
		repo     = fs.String("repo", "", "checkout to build and run rescqd from (default: found above the working directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	workloads := workloadNames
	if *workload != "all" {
		workloads = []string{*workload}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()
	defer killAll()

	e, err := newEnv(*repo)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *repeat > 0 {
		return calibrate(e, workloads, *seed, *seconds, *repeat, *trace == 1, stdout, stderr)
	}
	traced := *trace == 1 || *workload == "all"
	var reps []*report
	for _, w := range workloads {
		rep, err := runWorkload(e, full, w, *seed, *seconds, traced)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printHuman(stdout, rep)
		if path, err := writeReport(e, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
		} else {
			fmt.Fprintf(stdout, "%s report %s\n", w, path)
		}
		reps = append(reps, rep)
	}

	line := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, rep := range reps {
		line.Correct = line.Correct && rep.Correct
		line.Attempted += rep.Attempted
		line.Failed += rep.Failed
		ms := rep.E2E
		if *trace == 1 {
			ms = rep.Layers
		}
		for _, m := range ms {
			name := m.Name
			if len(reps) > 1 {
				name = rep.Workload + "/" + m.Name
			}
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	if len(reps) > 1 {
		if err := sameDigest(reps, "cold-sweep", "cluster-sweep"); err != nil {
			fmt.Fprintln(stdout, "check cluster_equals_standalone FAILED:", err)
			line.Correct = false
		} else {
			fmt.Fprintln(stdout, "check cluster_equals_standalone ok: cold-sweep and cluster-sweep computed identical results")
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// sameDigest checks that two workloads that sent the same requests
// computed the same simulated statistics.
func sameDigest(reps []*report, a, b string) error {
	digests := map[string]string{}
	for _, rep := range reps {
		digests[rep.Workload] = rep.Digest
	}
	if digests[a] == "" || digests[b] == "" {
		return errors.New("both workloads must run")
	}
	if digests[a] != digests[b] {
		return fmt.Errorf("%s digest %s, %s digest %s", a, digests[a], b, digests[b])
	}
	return nil
}

// calibrate runs each workload n times on consecutive seeds and prints
// every metric's median, quartiles and spread (interquartile distance as
// a share of the median), with the regression bound that spread suggests:
// three times the spread rounded up to a multiple of 5%, at least 5% and
// at most 25%. A metric's bound in BENCHMARK.json is the largest this
// suggests on any workload.
func calibrate(e *env, workloads []string, seed int64, seconds, n int, trace bool, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "%-14s %-28s %14s %14s %14s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		vals := map[string][]float64{}
		var order []metric
		for i := 0; i < n; i++ {
			rep, err := runWorkload(e, full, w, seed+int64(i), seconds, trace)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if !rep.Correct || rep.Failed > 0 {
				printHuman(stderr, rep)
				fmt.Fprintf(stderr, "bench: %s seed %d failed its checks\n", w, seed+int64(i))
				return 1
			}
			for _, m := range append(rep.E2E, rep.Layers...) {
				if _, seen := vals[m.Name]; !seen {
					order = append(order, m)
				}
				vals[m.Name] = append(vals[m.Name], m.Value)
			}
		}
		for _, m := range order {
			xs := vals[m.Name]
			q1, med, q3 := quartiles(xs)
			s := spread(xs)
			fmt.Fprintf(stdout, "%-14s %-28s %14.6g %14.6g %14.6g %8.4f %8.2f\n",
				w, m.Name, med, q1, q3, s, suggestBound(s))
		}
	}
	return 0
}
