package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	rescq "repro"
	"repro/internal/analytics"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/lattice"
	"repro/internal/qbench"
	"repro/internal/sched"
	"repro/internal/schedq"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

// engineLayers accumulates the time each engine-side layer spent over the
// replayed configurations.
type engineLayers struct {
	configs, runs int
	cycles        int64

	circuit, dag, build, clone, schedNew time.Duration
	schedInit, onCycle, onOpDone         time.Duration
	engineSelf                           time.Duration // Engine.RunContext minus the scheduler callbacks
	engine                               time.Duration // NewEngine + RunContext, callbacks included
	total                                time.Duration // the whole configuration
	allocs, bytes                        uint64
}

func (l *engineLayers) add(o engineLayers) {
	l.configs += o.configs
	l.runs += o.runs
	l.cycles += o.cycles
	l.circuit += o.circuit
	l.dag += o.dag
	l.build += o.build
	l.clone += o.clone
	l.schedNew += o.schedNew
	l.schedInit += o.schedInit
	l.onCycle += o.onCycle
	l.onOpDone += o.onOpDone
	l.engineSelf += o.engineSelf
	l.engine += o.engine
	l.total += o.total
	l.allocs += o.allocs
	l.bytes += o.bytes
}

// timedScheduler times a scheduler's engine callbacks; the engine's self
// time is its run time minus these.
type timedScheduler struct {
	sim.Scheduler
	init, cycle, opDone time.Duration
}

func (t *timedScheduler) Init(st *sim.State) error {
	s := time.Now()
	err := t.Scheduler.Init(st)
	t.init += time.Since(s)
	return err
}

func (t *timedScheduler) OnCycle(st *sim.State) {
	s := time.Now()
	t.Scheduler.OnCycle(st)
	t.cycle += time.Since(s)
}

func (t *timedScheduler) OnOpDone(st *sim.State, op *sim.Op, success bool) {
	s := time.Now()
	t.Scheduler.OnOpDone(st, op, success)
	t.opDone += time.Since(s)
}

// simulate recomputes one configuration through the engine's layers in the
// order rescq.RunContext calls them, and returns the summary as the daemon
// reports it (per-gate latency arrays stripped). It repeats those steps
// because rescq.RunContext offers no hook to wrap the scheduler; replay
// checks that the copy still matches the real path in output and time.
// With traced set it also times the scheduler callbacks and counts the
// engine's allocations; the untraced call is the baseline the tracing
// overhead is measured against.
func simulate(benchmark string, o rescq.Options, traced bool) (rescq.Summary, engineLayers, error) {
	var l engineLayers
	begin := time.Now()
	t := begin
	lap := func(d *time.Duration) {
		now := time.Now()
		*d += now.Sub(t)
		t = now
	}
	spec, ok := qbench.ByName(benchmark)
	if !ok {
		return rescq.Summary{}, l, fmt.Errorf("unknown benchmark %q", benchmark)
	}
	c := spec.Circuit()
	lap(&l.circuit)
	base, err := lattice.Build(o.Layout, c.NumQubits, lattice.Params(o.LayoutParams))
	if err != nil {
		return rescq.Summary{}, l, err
	}
	lap(&l.build)
	cfg := sim.Config{Distance: o.Distance, PhysError: o.PhysError}
	results := make([]*sim.Result, o.Runs)
	for i := range results {
		seed := o.Seed + int64(i)
		g := base.Clone()
		if o.Compression > 0 {
			g.Compress(o.Compression, rand.New(rand.NewSource(o.Seed+int64(i)*7919)))
		}
		lap(&l.clone)
		s, err := sched.New(string(o.Scheduler), sched.Params{K: o.K, TauMST: o.TauMST})
		if err != nil {
			return rescq.Summary{}, l, err
		}
		lap(&l.schedNew)
		dag := circuit.NewDAG(c)
		lap(&l.dag)
		var ms0, ms1 runtime.MemStats
		ts := &timedScheduler{Scheduler: s}
		if traced {
			s = ts
			runtime.ReadMemStats(&ms0)
			t = time.Now()
		}
		res, err := sim.NewEngine(g, dag, cfg, seed, s).RunContext(context.Background())
		if err != nil {
			return rescq.Summary{}, l, err
		}
		lap(&l.engine)
		if traced {
			runtime.ReadMemStats(&ms1)
			l.allocs += ms1.Mallocs - ms0.Mallocs
			l.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			t = time.Now()
		}
		l.schedInit += ts.init
		l.onCycle += ts.cycle
		l.onOpDone += ts.opDone
		l.cycles += int64(res.TotalCycles)
		res.Benchmark, res.Seed = c.Name, seed
		results[i] = res
	}
	l.engineSelf = l.engine - l.schedInit - l.onCycle - l.onOpDone
	l.configs, l.runs = 1, len(results)

	sum := rescq.Summary{Benchmark: c.Name, Scheduler: string(o.Scheduler)}
	for _, res := range results {
		sum.Runs = append(sum.Runs, rescq.Result{
			Scheduler:        res.Scheduler,
			Benchmark:        res.Benchmark,
			Seed:             res.Seed,
			TotalCycles:      res.TotalCycles,
			MeanIdleFraction: res.MeanIdleFraction,
			PrepsStarted:     res.PrepsStarted,
			InjectionsCount:  res.InjectionsStarted,
			EdgeRotations:    res.EdgeRotations,
		})
	}
	agg := sim.AggregateResults(results)
	sum.MeanCycles, sum.MinCycles, sum.MaxCycles = agg.MeanCycles, agg.MinCycles, agg.MaxCycles
	sum.StdCycles, sum.MeanIdle = agg.StdCycles, agg.MeanIdle
	l.total = time.Since(begin)
	return sum, l, nil
}

// us is d divided over n calls, in microseconds.
func us(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(max(n, 1))
}

// spaced picks up to n items evenly spread over xs.
func spaced[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// verify recomputes a few of the run's results through the public engine
// API and checks they match the daemon's byte for byte.
func (r *run) verify() error {
	picks := spaced(r.results, r.p.verifyConfigs)
	bad := 0
	for _, res := range picks {
		sum, err := runReal(res.res.Benchmark, *res.res.Options)
		if err != nil {
			return err
		}
		got, err := json.Marshal(sum)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, res.summary) {
			bad++
		}
	}
	r.check("recompute_equals_daemon", bad == 0 && len(picks) > 0,
		"%d of %d recomputed configurations differ from the daemon's", bad, len(picks))
	return nil
}

// wireSpec mirrors the service's run specification as the coordinator
// encodes it for workers.
type wireSpec struct {
	Benchmark     string
	Name          string
	CircuitText   string
	Experiment    string
	Quick         bool
	Opts          rescq.Options
	KeepLatencies bool
}

// runReal runs one configuration on the path the daemon takes,
// rescq.RunContext, and returns the summary as the daemon reports it.
func runReal(benchmark string, o rescq.Options) (rescq.Summary, error) {
	sum, err := rescq.RunContext(context.Background(), benchmark, o)
	for i := range sum.Runs {
		sum.Runs[i].CNOTLatencies, sum.Runs[i].RzLatencies = nil, nil
	}
	return sum, err
}

// forkTolerance is how far simulate's untraced time may drift from
// rescq.RunContext's on the same configurations before the replay counts
// as no longer timing the daemon's engine path. The ratio is judged only
// over at least forkMinTime of RunContext time; on less (the package
// test's tiny scale) it is noise. Full runs measure 0.97–1.03 over
// 0.2–2 s.
const (
	forkTolerance = 0.25
	forkMinTime   = 100 * time.Millisecond
)

// replay sends the run's fixed result set through each layer's public
// functions in this process, timing every call, and adds the per-layer
// metrics to m, next to the daemon-side ones already there. It runs after
// the daemons have stopped, so nothing else competes for the CPU. Engine
// layers re-simulate a spaced subset of the configurations three times:
// through simulate without timers and with them, and through
// rescq.RunContext, in rotating order. All three summaries must equal the
// daemon's, and simulate's untraced time must stay within forkTolerance
// of RunContext's, because simulate repeats RunContext's steps in order
// to time them and would otherwise go on timing a path the daemon no
// longer takes.
func (r *run) replay(e2e, m map[string]float64) error {
	var eng engineLayers
	var plain, plainEngine, real time.Duration
	bad := 0
	picks := spaced(r.results, r.p.replayConfigs)
	for i, res := range picks {
		var sums [3]rescq.Summary
		var ls [2]engineLayers
		for k := 0; k < 3; k++ {
			var err error
			switch pass := (k + i) % 3; pass {
			case 0, 1: // simulate, untraced (0) and traced (1)
				sums[pass], ls[pass], err = simulate(res.res.Benchmark, *res.res.Options, pass == 1)
			case 2:
				t := time.Now()
				sums[pass], err = runReal(res.res.Benchmark, *res.res.Options)
				real += time.Since(t)
			}
			if err != nil {
				return err
			}
		}
		plain += ls[0].total
		plainEngine += ls[0].engine
		eng.add(ls[1])
		for _, sum := range sums {
			got, err := json.Marshal(sum)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, res.summary) {
				bad++
			}
		}
	}
	r.check("replay_equals_daemon", bad == 0 && len(picks) > 0,
		"%d of %d replayed summaries differ from the daemon's", bad, 3*len(picks))
	forkRatio := float64(plain) / float64(max(real, 1))
	r.extra("trace.fork_time_ratio", forkRatio, "fraction")
	r.check("replay_times_daemon_path", real < forkMinTime || math.Abs(forkRatio-1) <= forkTolerance,
		"the replay's engine path took %.3f times rescq.RunContext's %s on the same configurations (limit 1±%.2f over at least %s)",
		forkRatio, real.Round(time.Millisecond), forkTolerance, forkMinTime)
	n := eng.configs
	m["qbench.circuit_us"] = us(eng.circuit, n)
	m["circuit.dag_us"] = us(eng.dag, n)
	m["lattice.build_us"] = us(eng.build, n)
	m["lattice.clone_us"] = us(eng.clone, n)
	m["sched.new_us"] = us(eng.schedNew, n)
	m["sched.init_us"] = us(eng.schedInit, n)
	m["sched.on_cycle_ms"] = us(eng.onCycle, n) / 1000
	m["sched.on_op_done_ms"] = us(eng.onOpDone, n) / 1000
	m["sim.engine_self_ms"] = us(eng.engineSelf, n) / 1000
	m["sim.cycles"] = float64(eng.cycles) / float64(max(n, 1))
	m["sim.host_ns_per_cycle"] = float64(plainEngine) / float64(max(eng.cycles, 1))
	m["sim.allocs_per_config"] = float64(eng.allocs) / float64(max(n, 1))
	m["sim.bytes_per_config"] = float64(eng.bytes) / float64(max(n, 1))
	m["trace.overhead_frac"] = float64(eng.total)/float64(max(plain, 1)) - 1
	engineMS := us(eng.total, n) / 1000

	srv, err := r.serveReplay(m)
	if err != nil {
		return err
	}
	servingMS := srv / 1000
	m["trace.serving_frac"] = servingMS / (engineMS + servingMS)

	// Engine layers sit on the path only for configurations the engine
	// actually ran; the rest were cache hits.
	share := math.Min(1, m["service.engine_runs"]/float64(max(r.configs, 1)))
	attributed := engineMS*share + servingMS
	if m["cluster.batch_size_mean"] > 0 {
		attributed += m["cluster.wire_roundtrip_us"] / m["cluster.batch_size_mean"] / 1000
	}
	m["trace.attributed_frac"] = attributed / e2e["cpu_ms_per_config"]
	return nil
}

// serveReplay times the serving layers on the run's results: cache key,
// stream encoding, WAL append and replay, analytics ingest and queries,
// the cluster wire codec and the tenant scheduler. It returns the summed
// per-result microseconds of the layers every delivered result passes.
func (r *run) serveReplay(m map[string]float64) (float64, error) {
	results := spaced(r.results, r.p.replayResults)
	n := len(results)

	keys := make([]string, n)
	var keyT time.Duration
	for i, res := range results {
		t := time.Now()
		keys[i] = rescq.CacheKey("bench:"+res.res.Benchmark, *res.res.Options)
		keyT += time.Since(t)
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	var encT time.Duration
	encBytes, differ := 0, 0
	for _, res := range results {
		buf.Reset()
		t := time.Now()
		if err := enc.Encode(&res.res); err != nil {
			return 0, err
		}
		encT += time.Since(t)
		encBytes += buf.Len()
		if res.line != nil && !bytes.Equal(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), res.line) {
			differ++
		}
	}
	r.check("stream_roundtrip", differ == 0, "%d re-encoded results differ from the stream", differ)

	// WAL append, as the daemon's persist path does it: results grouped
	// into jobs the size of a sweep.
	const perJob = 192
	payloads := make([]json.RawMessage, n)
	specs := make([]json.RawMessage, n)
	for i, res := range results {
		var err error
		if payloads[i], err = json.Marshal(res.res); err != nil {
			return 0, err
		}
		if specs[i], err = json.Marshal(wireSpec{Benchmark: res.res.Benchmark, Opts: *res.res.Options}); err != nil {
			return 0, err
		}
	}
	dir := filepath.Join(r.dir, "replay-store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	var appendT time.Duration
	for i := range results {
		job := fmt.Sprintf("job-%06d", i/perJob+1)
		if i%perJob == 0 {
			hi := min(i+perJob, n)
			jobSpecs, err := json.Marshal(specs[i:hi])
			if err != nil {
				return 0, err
			}
			if err := st.AppendJob(store.JobRecord{ID: job, Kind: "sweep", Created: time.Unix(0, 0), Specs: jobSpecs}); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		err := st.AppendResult(store.ResultRecord{JobID: job, Index: i % perJob, Key: keys[i], Result: payloads[i]})
		appendT += time.Since(t)
		if err != nil {
			return 0, err
		}
	}
	ss := st.Stats()
	if err := st.Close(); err != nil {
		return 0, err
	}
	replayDir := dir
	if r.crashCopy != "" {
		replayDir = r.crashCopy
	}
	t := time.Now()
	st, err = store.Open(replayDir, store.Options{})
	openT := time.Since(t)
	if err != nil {
		return 0, err
	}
	st.Close()

	an := analytics.New(0)
	var ingestT time.Duration
	for i, res := range results {
		sm := sample(res)
		t := time.Now()
		an.Ingest("job-000001", i, sm)
		ingestT += time.Since(t)
	}
	queries := []func() error{
		func() error { _, err := an.GroupBy([]string{"scheduler", "distance"}, nil); return err },
		func() error { _, err := an.Sensitivity("scheduler", "greedy", "rescq", nil); return err },
	}
	for _, b := range r.queryBench {
		b := b
		queries = append(queries, func() error { _, err := an.Pareto(b, nil); return err })
	}
	var queryT time.Duration
	nq := 0
	for nq < 200 {
		for _, q := range queries {
			t := time.Now()
			if err := q(); err != nil {
				return 0, err
			}
			queryT += time.Since(t)
			nq++
		}
	}

	batch := 8 // the coordinator's default batch-size cap
	if b := m["cluster.batch_size_mean"]; b > 0 {
		batch = max(1, int(math.Round(b)))
	}
	var wireT time.Duration
	batches := 0
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		req := cluster.ExecuteRequest{JobID: "job-000001", Batch: batches}
		resp := cluster.ExecuteResponse{}
		for i := lo; i < hi; i++ {
			req.Configs = append(req.Configs, cluster.ExecuteConfig{Index: i, Spec: specs[i]})
			resp.Results = append(resp.Results, payloads[i])
		}
		t := time.Now()
		if err := wireRoundTrip(req, resp); err != nil {
			return 0, err
		}
		wireT += time.Since(t)
		batches++
	}

	quantum, err := schedQuantum(r.views)
	if err != nil {
		return 0, err
	}

	m["rescq.cache_key_us"] = us(keyT, n)
	m["stream.encode_us"] = us(encT, n)
	m["stream.bytes_per_result"] = float64(encBytes) / float64(max(n, 1))
	m["store.append_us"] = us(appendT, n)
	m["store.bytes_per_record"] = float64(ss.AppendBytesBinary) / float64(max(ss.AppendsBinary, 1))
	m["store.open_replay_ms"] = us(openT, 1) / 1000
	m["analytics.ingest_ns"] = us(ingestT, n) * 1000
	m["analytics.query_us"] = us(queryT, nq)
	m["cluster.wire_roundtrip_us"] = us(wireT, batches)
	m["schedq.quantum_ns"] = quantum
	return m["rescq.cache_key_us"] + m["stream.encode_us"] + m["store.append_us"] + m["analytics.ingest_ns"]/1000, nil
}

// sample is the analytics fold input the daemon derives from a result.
func sample(res result) *analytics.Sample {
	o := res.res.Options
	tenant := res.tenant
	if tenant == "" {
		tenant = schedq.DefaultTenant
	}
	sm := &analytics.Sample{
		Axes: analytics.Axes{
			Tenant: tenant, Benchmark: res.res.Benchmark, Scheduler: res.res.Scheduler, Layout: res.res.Layout,
			Distance: o.Distance, PhysError: o.PhysError, K: o.K, TauMST: o.TauMST,
			Compression: o.Compression, Runs: o.Runs, Seed: o.Seed,
		},
		Params: lattice.Params(o.LayoutParams),
	}
	for _, run := range res.res.Summary.Runs {
		sm.Cycles = append(sm.Cycles, run.TotalCycles)
	}
	return sm
}

// wireRoundTrip encodes a dispatch batch and its response in the binary
// wire codec, compresses each as the coordinator and worker do, and
// decodes both back.
func wireRoundTrip(req cluster.ExecuteRequest, resp cluster.ExecuteResponse) error {
	unzip := func(b []byte, zipped bool) ([]byte, error) {
		if !zipped {
			return b, nil
		}
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		return io.ReadAll(zr)
	}
	body, zipped := cluster.MaybeGzip(cluster.EncodeExecuteRequestBinary(req))
	frame, err := unzip(body, zipped)
	if err != nil {
		return err
	}
	gotReq, err := cluster.DecodeExecuteRequestBinary(bytes.NewReader(frame))
	if err != nil {
		return err
	}
	body, zipped = cluster.MaybeGzip(cluster.EncodeExecuteResponseBinary(resp))
	if frame, err = unzip(body, zipped); err != nil {
		return err
	}
	gotResp, err := cluster.DecodeExecuteResponseBinary(frame)
	if err != nil {
		return err
	}
	if len(gotReq.Configs) != len(req.Configs) || len(gotResp.Results) != len(resp.Results) {
		return fmt.Errorf("wire round trip lost configurations")
	}
	return nil
}

// schedQuantum times Push, Pop, Completed and JobDone on a WFQ queue for
// the timed phase's jobs in arrival order, in nanoseconds per job.
func schedQuantum(views []service.JobView) (float64, error) {
	jobs := append([]service.JobView(nil), views...)
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Created.Before(jobs[b].Created) })
	if len(jobs) == 0 {
		return 0, nil
	}
	q, err := schedq.New(schedq.WFQ, schedq.Config{Capacity: 256})
	if err != nil {
		return 0, err
	}
	var total time.Duration
	ops := 0
	for ops < 10000 {
		for _, j := range jobs {
			cost := int64(j.Progress.Total)
			t := time.Now()
			if err := q.Push(j.Tenant, cost, j.ID); err != nil {
				return 0, err
			}
			if _, ok := q.Pop(); !ok {
				return 0, fmt.Errorf("schedq: pop after push failed")
			}
			q.Completed(j.Tenant, cost)
			q.JobDone(j.Tenant)
			total += time.Since(t)
			ops++
		}
	}
	return float64(total) / float64(ops), nil
}
