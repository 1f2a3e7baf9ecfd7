package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	rescq "repro"
	"repro/internal/service"
)

// params sizes every workload. full is what the benchmark runs; tiny is a
// scaled-down copy the package test drives end to end in seconds.
type params struct {
	setupReps int // daemon boots per run; setup_s is their median
	warmBoots int // warm-restart recoveries per run, each from a fresh copy of the crashed store

	// cold-sweep and cluster-sweep: one sweep is the cross product of these
	// axes and the three schedulers.
	sweepBenchmarks []string
	sweepDistances  []int
	sweepPhysErrors []float64

	// interactive: the circuits of alice's /v1/run traffic, and the
	// whale's two long async sweeps, each the cross product of its
	// benchmarks, the three schedulers and these axes.
	aliceBenchmarks   []string
	whaleOrders       [][]string
	whaleDistances    []int
	whalePhysErrors   []float64
	whaleCompressions []float64

	// warm-restart: the grid the crashed daemon's WAL holds, and how many
	// cached passes over it fill the WAL before the crash.
	warmBenchmarks []string
	warmDistances  []int
	warmPhysErrors []float64
	warmPasses     int

	analyticsBurst int // analytics queries outside the timed phase (not on warm-restart)
	replayConfigs  int // configurations the traced replay re-simulates
	replayResults  int // results the traced replay sends through the serving layers
	verifyConfigs  int // configurations an untraced run recomputes to check the daemon
}

var schedulers = []string{"greedy", "autobraid", "rescq"}

// The traffic shapes that do not change with scale.
const (
	// aliceRate is alice's open-loop /v1/run rate, carried by aliceConns
	// connections: the harness's whole budget, one per core. Alice and the
	// whale have equal weight, so under WFQ alice is served about one
	// configuration per whale configuration; her rate must stay well below
	// the whale's configuration rate, or her requests back up for seconds.
	// At 40/s her two connections are busy 60% of the time, and a stall of
	// the shared host backs requests up behind them often enough that p99
	// swings between runs; at 30/s it repeats (README.md has the recorded
	// runs).
	aliceRate   = 30
	aliceConns  = 2
	aliceRepeat = 0.25 // share of alice's requests repeating an earlier configuration
	// whaleQueueDepth is the interactive daemon's -max-queue-depth: the
	// whale's two sweeps alone hold more unfinished configurations than
	// the default bound of 4096.
	whaleQueueDepth = 16384
	// readerThink paces warm-restart's analytics reader, so the CPU share
	// it takes from the cached sweeps does not swing from run to run.
	readerThink = 2 * time.Millisecond
)

var full = params{
	setupReps: 61,
	warmBoots: 5,

	sweepBenchmarks: []string{"gcm_n13", "qft_n29", "qugan_n39", "dnn_n16"},
	sweepDistances:  []int{5, 7, 9, 11},
	sweepPhysErrors: []float64{1e-4, 2e-4, 5e-4, 1e-3},

	aliceBenchmarks: []string{"vqe_n13", "hamsim_n25", "ising_n34", "qaoa_n15", "wstate_n27", "qaoafswap_n15", "qft_n18", "gcm_n13"},
	// Whale configurations of 10-40 ms (16 ms on average on the pilot
	// machine): the preemption quantum alice waits for. 3,360 per sweep
	// keep a slot busy for about 55 s there.
	whaleOrders:       [][]string{{"qugan_n71", "dnn_n16", "qugan_n39", "gcm_n13"}, {"dnn_n16", "qugan_n39", "gcm_n13", "qugan_n71"}},
	whaleDistances:    []int{3, 5, 7, 9, 11, 13, 15},
	whalePhysErrors:   []float64{1e-4, 1.5e-4, 2e-4, 3e-4, 5e-4, 7e-4, 1e-3, 2e-3},
	whaleCompressions: []float64{0, 0.25, 0.5, 0.75, 1},

	warmBenchmarks: []string{"vqe_n13", "hamsim_n25", "ising_n34", "qaoa_n15", "wstate_n27", "qaoafswap_n15", "qft_n18", "gcm_n13"},
	warmDistances:  []int{5, 7, 9, 11},
	warmPhysErrors: []float64{1e-4, 2e-4, 5e-4, 1e-3},
	warmPasses:     40,

	analyticsBurst: 1100,
	replayConfigs:  48,
	replayResults:  4096,
	verifyConfigs:  6,
}

var tiny = params{
	setupReps: 2,
	warmBoots: 2,

	sweepBenchmarks: []string{"vqe_n13"},
	sweepDistances:  []int{5, 7},
	sweepPhysErrors: []float64{1e-4},

	aliceBenchmarks:   []string{"vqe_n13", "hamsim_n25"},
	whaleOrders:       [][]string{{"qugan_n39"}, {"qft_n18"}},
	whaleDistances:    []int{5, 7, 9, 11, 13},
	whalePhysErrors:   []float64{1e-4, 2e-4, 5e-4, 1e-3},
	whaleCompressions: []float64{0, 0.5, 1},

	warmBenchmarks: []string{"vqe_n13", "hamsim_n25"},
	warmDistances:  []int{5, 7},
	warmPhysErrors: []float64{1e-4},
	warmPasses:     3,

	analyticsBurst: 30,
	replayConfigs:  4,
	replayResults:  64,
	verifyConfigs:  2,
}

// Workload names, in the order the full benchmark runs them.
var workloadNames = []string{"cold-sweep", "cluster-sweep", "warm-restart", "interactive"}

// seeder derives request seeds from the harness seed: the same --seed and
// stream name always produce the same requests. cold-sweep and
// cluster-sweep share the "sweep" stream, so they send identical sweeps.
type seeder struct{ r *rand.Rand }

func newSeeder(seed int64, stream string) *seeder {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", stream, seed)
	return &seeder{r: rand.New(rand.NewSource(int64(h.Sum64() >> 1)))}
}

// next returns a fresh simulation seed (never 0, which the engine reads
// as "use the default").
func (s *seeder) next() int64 { return s.r.Int63n(1<<40) + 1 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// result is one configuration result the client received, kept for the
// correctness checks and the traced replay.
type result struct {
	line    []byte // the NDJSON line as received (nil for /v1/run replies)
	tenant  string
	res     service.ConfigResult
	summary json.RawMessage // the summary exactly as the daemon encoded it
}

// parseResult decodes one NDJSON result line.
func parseResult(line []byte) (result, error) {
	r := result{line: line}
	var raw struct {
		Summary json.RawMessage `json:"summary"`
	}
	if err := json.Unmarshal(line, &r.res); err != nil {
		return r, err
	}
	if err := json.Unmarshal(line, &raw); err != nil {
		return r, err
	}
	if r.res.Summary == nil || r.res.Options == nil {
		return r, fmt.Errorf("result %d carries no summary", r.res.Index)
	}
	r.summary = raw.Summary
	return r, nil
}

// key is the configuration's canonical identity (the daemon's cache key).
func (r result) key() string { return rescq.CacheKey("bench:"+r.res.Benchmark, *r.res.Options) }

// stream is one NDJSON sweep as the client saw it.
type stream struct {
	jobID      string
	sent, done time.Time
	arrive     []time.Duration // per result line, from the send
	lines      [][]byte        // result lines, when kept
	cached     int
	err        error // non-2xx, transport error, malformed or truncated stream, or a failed configuration
}

var resultPrefix = []byte(`{"index":`)

// streamSweep posts one sweep with NDJSON streaming and reads it to the
// end, checking that results arrive with indices 0..n-1 in order and that
// the stream ends with the job view reporting done and progress n of n.
// Lines are parsed only as far as these checks need while the stream runs.
func streamSweep(c *http.Client, base string, req service.SweepRequest, keep bool) (s stream) {
	req.Stream = service.StreamNDJSON
	body, err := json.Marshal(req)
	if err != nil {
		return stream{err: err}
	}
	s.sent = time.Now()
	defer func() { s.done = time.Now() }()
	resp, err := c.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		s.err = fmt.Errorf("sweep: %s: %s", resp.Status, bytes.TrimSpace(msg))
		return s
	}
	s.jobID = resp.Header.Get("X-Job-ID")
	next, finished := 0, false
	s.err = readLines(resp.Body, func(line []byte) error {
		if finished {
			return errors.New("sweep: data after the terminal job view")
		}
		if bytes.HasPrefix(line, resultPrefix) {
			t := time.Since(s.sent)
			rest := line[len(resultPrefix):]
			end := bytes.IndexByte(rest, ',')
			if end < 0 {
				return fmt.Errorf("sweep: malformed result line %q", line)
			}
			idx, err := strconv.Atoi(string(rest[:end]))
			if err != nil || idx != next {
				return fmt.Errorf("sweep: result index %q, want %d", rest[:end], next)
			}
			if i := bytes.Index(line, []byte(`,"error":"`)); i >= 0 {
				return fmt.Errorf("sweep: configuration %d failed: %s", idx, line[i:])
			}
			if bytes.Contains(line, []byte(`"cached":true`)) {
				s.cached++
			}
			next++
			s.arrive = append(s.arrive, t)
			if keep {
				s.lines = append(s.lines, append([]byte(nil), line...))
			}
			return nil
		}
		var v service.JobView
		if err := json.Unmarshal(line, &v); err != nil {
			return fmt.Errorf("sweep: bad terminal line: %w", err)
		}
		if v.State != service.JobDone || v.Progress.Done != next || v.Progress.Total != next {
			return fmt.Errorf("sweep: job %s ended %s with progress %d/%d after %d results",
				v.ID, v.State, v.Progress.Done, v.Progress.Total, next)
		}
		finished = true
		return nil
	})
	if s.err == nil && !finished {
		s.err = fmt.Errorf("sweep: stream ended after %d results without a terminal job view", next)
	}
	return s
}

// sweepRequest builds one sweep over the three schedulers and the given axes.
func sweepRequest(benchmarks []string, distances []int, physErrors []float64, seed int64) service.SweepRequest {
	return service.SweepRequest{
		Benchmarks: benchmarks, Schedulers: schedulers, Distances: distances,
		PhysErrors: physErrors, Runs: 1, Seed: seed,
	}
}

// setQueries sets the analytics read mix: a two-axis group-by,
// greedy-vs-rescq sensitivity, and a Pareto frontier per benchmark.
func (r *run) setQueries(benchmarks []string) {
	r.queryBench = benchmarks
	r.queries = []string{
		"/v1/analytics/groupby?by=scheduler,distance",
		"/v1/analytics/sensitivity?axis=scheduler&a=greedy&b=rescq",
	}
	for _, b := range benchmarks {
		r.queries = append(r.queries, "/v1/analytics/pareto?benchmark="+b)
	}
}

type topology int

const (
	standalone topology = iota // one daemon, -workers 2
	clustered                  // a coordinator (-workers 2) and two workers (-workers 1)
)

// run is one workload execution: its daemons, what the client observed,
// and the checks applied to the outputs.
type run struct {
	env      *env
	p        params
	workload string
	seed     int64
	seconds  time.Duration
	dir      string
	c        *http.Client // every request the run sends: at most two connections at a time
	// daemonFlags are extra flags for a standalone daemon.
	daemonFlags []string

	setup       []float64 // seconds per boot
	configs     int       // configurations delivered in the timed phase
	firstMS     []float64
	resultMS    []float64
	analyticsMS []float64
	lateMS      []float64
	lateLimitMS float64       // open loop only: the p99 lateness beyond which the run is invalid
	cpu         time.Duration // daemon CPU time in the timed phase
	rssMB       float64       // median resident memory in the timed phase
	peakMB      float64
	before      prom
	after       prom
	jobs        map[string]bool // jobs submitted in the timed phase
	views       []service.JobView

	ops, failed int
	failures    []string
	checks      []check
	extras      []metric // reported lines beyond the gated metric set

	// results is a set of results fixed by the seed alone, never by how
	// much the phase delivered, so that the digest over it, verification
	// and the replayed per-layer numbers compare across commits.
	results    []result
	digest     *digest
	queries    []string // analytics request paths, cycled by the readers
	queryBench []string // the benchmarks those queries name
	crashCopy  string   // warm-restart: a copy of the crashed store directory
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// op counts one client operation, and a failure when err is non-nil.
func (r *run) op(err error) {
	r.ops++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *run) extra(name string, v float64, unit string) {
	r.extras = append(r.extras, metric{name, v, unit})
}

func (r *run) mkdir(name string) (string, error) {
	d := filepath.Join(r.dir, name)
	return d, os.MkdirAll(d, 0o755)
}

// boot starts the workload's daemons and returns once every daemon answers
// /healthz and, for a cluster, both workers have registered; the elapsed
// seconds from the first exec are one setup sample. The standalone daemon
// or coordinator keeps its WAL in store; workers get fresh ones under dir.
func (r *run) boot(t topology, dir, store string) (*deployment, float64, error) {
	start := time.Now()
	dp := &deployment{}
	add := func(name string, args ...string) (*daemon, error) {
		d, err := startDaemon(r.env.bin, dir, name, args...)
		if err == nil {
			dp.daemons = append(dp.daemons, d)
		}
		return d, err
	}
	switch t {
	case standalone:
		d, err := add("rescqd", append([]string{"-workers", "2", "-store-dir", store}, r.daemonFlags...)...)
		if err != nil {
			return nil, 0, err
		}
		dp.api = d
		if err := waitReady(r.c, d, 0); err != nil {
			return nil, 0, err
		}
	case clustered:
		coord, err := add("coordinator", "-mode", "coordinator", "-workers", "2", "-store-dir", store)
		if err != nil {
			return nil, 0, err
		}
		dp.api = coord
		if err := waitReady(r.c, coord, 0); err != nil {
			return nil, 0, err
		}
		for i := 1; i <= 2; i++ {
			name := fmt.Sprintf("worker%d", i)
			if _, err := add(name, "-mode", "worker", "-workers", "1", "-coordinator", coord.url,
				"-store-dir", filepath.Join(dir, name+"-store")); err != nil {
				return nil, 0, err
			}
		}
		for _, d := range dp.daemons[1:] {
			if err := waitReady(r.c, d, 0); err != nil {
				return nil, 0, err
			}
		}
		if err := waitReady(r.c, coord, 2); err != nil {
			return nil, 0, err
		}
	}
	secs := time.Since(start).Seconds()
	dp.dropWorkerConns(r.c)
	return dp, secs, nil
}

// boots starts the deployment n times, each in a fresh directory whose
// store prepare returns, crashing all but the last deployment, which the
// workload then uses. Each boot is one setup_s sample.
func (r *run) boots(t topology, n int, prepare func(dir string) (string, error)) (*deployment, error) {
	var dp *deployment
	for i := 0; i < n; i++ {
		if dp != nil {
			dp.kill()
		}
		dir, err := r.mkdir(fmt.Sprintf("boot%d", i))
		if err != nil {
			return nil, err
		}
		store, err := prepare(dir)
		if err != nil {
			return nil, err
		}
		var secs float64
		if dp, secs, err = r.boot(t, dir, store); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, secs)
	}
	return dp, nil
}

// setupFresh boots on empty stores.
func (r *run) setupFresh(t topology) (*deployment, error) {
	return r.boots(t, r.p.setupReps, func(dir string) (string, error) {
		return filepath.Join(dir, "store"), nil
	})
}

// window is the timed phase: exactly r.seconds from start to end. Work
// still in flight at the end runs to completion, so its outputs can be
// checked, but only what arrived by the end counts as delivered. While the
// window is open a sampler reads the deployment's resident memory every
// 250ms; at the end it reads the daemons' CPU time and calls at, with
// which a workload samples its own progress.
type window struct {
	start, end time.Time
	prom       prom
	cpu        time.Duration
	rssKB      []float64
	done       chan struct{}
	err        error
}

func (r *run) openWindow(dp *deployment, at func()) (*window, error) {
	w := &window{done: make(chan struct{})}
	var err error
	if w.prom, err = dp.scrape(r.c); err != nil {
		return nil, err
	}
	cpu0, err := dp.cpu()
	if err != nil {
		return nil, err
	}
	w.start = time.Now()
	w.end = w.start.Add(r.seconds)
	go func() {
		defer close(w.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		deadline := time.NewTimer(r.seconds)
		defer deadline.Stop()
		for {
			if kb, err := dp.rssKB(); err == nil {
				w.rssKB = append(w.rssKB, float64(kb))
			}
			select {
			case <-tick.C:
			case <-deadline.C:
				cpu1, err := dp.cpu()
				w.cpu, w.err = cpu1-cpu0, err
				if at != nil {
					at()
				}
				return
			}
		}
	}()
	return w, nil
}

// closeWindow waits for the window's end and records the phase: CPU and
// memory from the window, counter deltas from its start to now.
func (r *run) closeWindow(dp *deployment, w *window) error {
	<-w.done
	if w.err != nil {
		return w.err
	}
	r.cpu = w.cpu
	r.rssMB = newDist(w.rssKB).median() / 1024
	r.before = w.prom
	peak, err := dp.peakKB()
	if err != nil {
		return err
	}
	r.peakMB = float64(peak) / 1024
	r.after, err = dp.scrape(r.c)
	return err
}

// analyticsBurst runs the analytics query mix in a closed loop on one
// connection outside the timed phase, for the workloads that have no
// analytics reader of their own.
func (r *run) analyticsBurst(dp *deployment, c *http.Client) {
	for i := 0; i < r.p.analyticsBurst; i++ {
		r.query(c, dp.api.url, i)
	}
}

// query sends the i-th query of the mix and records its latency.
func (r *run) query(c *http.Client, base string, i int) {
	t := time.Now()
	_, err := get(c, base+r.queries[i%len(r.queries)])
	r.op(err)
	if err == nil {
		r.analyticsMS = append(r.analyticsMS, ms(time.Since(t)))
	}
}

// jobViews fetches the views of the jobs the timed phase submitted.
func (r *run) jobViews(dp *deployment) error {
	var all []service.JobView
	if err := getJSON(r.c, dp.api.url+"/v1/jobs", &all); err != nil {
		return err
	}
	for _, v := range all {
		if r.jobs[v.ID] {
			r.views = append(r.views, v)
		}
	}
	return nil
}

// record accounts the timed phase's closed-loop sweeps: one operation
// each, their result latencies from the send, the results that arrived
// within the window, and the generator's gap between one sweep's end and
// the next one's send.
func (r *run) record(w *window, timed []stream) {
	prev := w.start
	for _, s := range timed {
		r.op(s.err)
		r.jobs[s.jobID] = true
		r.lateMS = append(r.lateMS, ms(s.sent.Sub(prev)))
		prev = s.done
		for i, a := range s.arrive {
			if !s.sent.Add(a).After(w.end) {
				r.configs++
			}
			r.resultMS = append(r.resultMS, ms(a))
			if i == 0 {
				r.firstMS = append(r.firstMS, ms(a))
			}
		}
	}
}

// keepResults parses stream lines into the run's fixed result set, which
// the digest, the verification and the replay cover.
func (r *run) keepResults(lines [][]byte) error {
	for _, line := range lines {
		res, err := parseResult(line)
		if err != nil {
			return err
		}
		r.results = append(r.results, res)
		r.digest.add(res.summary)
	}
	return nil
}

// sweeps drives cold-sweep (standalone) and cluster-sweep (clustered): one
// client on one connection sends NDJSON sweeps in a closed loop until the
// phase time is up, after one untimed warm-up sweep on other seeds. Every
// sweep has a fresh seed, so every configuration misses the cache. The
// digest covers the warm-up sweep and the first timed sweep.
func (r *run) sweeps(t topology) error {
	dp, err := r.setupFresh(t)
	if err != nil {
		return err
	}
	c := r.c
	seeds := newSeeder(r.seed, "sweep")
	req := func() service.SweepRequest {
		return sweepRequest(r.p.sweepBenchmarks, r.p.sweepDistances, r.p.sweepPhysErrors, seeds.next())
	}
	r.setQueries(r.p.sweepBenchmarks)

	warm := streamSweep(c, dp.api.url, req(), true)
	if warm.err != nil {
		return fmt.Errorf("warm-up sweep: %w", warm.err)
	}
	if err := r.keepResults(warm.lines); err != nil {
		return err
	}
	// Analytics is read over the warm-up sweep's aggregates only, so the
	// query cost does not depend on how many sweeps the timed phase fits.
	r.analyticsBurst(dp, c)

	w, err := r.openWindow(dp, nil)
	if err != nil {
		return err
	}
	var timed []stream
	for time.Now().Before(w.end) {
		timed = append(timed, streamSweep(c, dp.api.url, req(), len(timed) == 0))
	}
	if err := r.closeWindow(dp, w); err != nil {
		return err
	}
	r.record(w, timed)
	if err := r.keepResults(timed[0].lines); err != nil {
		return err
	}
	if err := r.jobViews(dp); err != nil {
		return err
	}
	dp.kill()
	if t == clustered {
		remote := delta(r.before, r.after, "rescqd_cluster_remote_configs_total")
		r.check("cluster_dispatch", remote > 0, "%.0f configurations executed on workers", remote)
	}
	return nil
}

// warmRestart prepares a crashed daemon's store, then measures recovery
// and a fully cached phase. Prep (untimed): the grid is simulated cold on
// a standalone daemon, re-sent warmPasses times so the WAL holds many
// result records, and the daemon is SIGKILLed. Each setup boot recovers
// from a fresh copy of that directory. In the timed phase connection 1
// re-sends the grid as NDJSON in a closed loop (every configuration a
// cache hit reseeded from the WAL) while connection 2 runs analytics
// queries in a closed loop with a short think time.
func (r *run) warmRestart() error {
	prepDir, err := r.mkdir("prep")
	if err != nil {
		return err
	}
	crashed := filepath.Join(prepDir, "store")
	dp, _, err := r.boot(standalone, prepDir, crashed)
	if err != nil {
		return err
	}
	c := r.c
	gridSeed := newSeeder(r.seed, "warm").next()
	grid := sweepRequest(r.p.warmBenchmarks, r.p.warmDistances, r.p.warmPhysErrors, gridSeed)
	r.setQueries(r.p.warmBenchmarks)

	// Cold fill: the grid's two halves in parallel, one per worker slot.
	half := len(r.p.warmBenchmarks) / 2
	parts := [][]string{r.p.warmBenchmarks[:half], r.p.warmBenchmarks[half:]}
	cold := make([]stream, len(parts))
	var wg sync.WaitGroup
	for i, bs := range parts {
		wg.Add(1)
		go func(i int, bs []string) {
			defer wg.Done()
			req := grid
			req.Benchmarks = bs
			cold[i] = streamSweep(c, dp.api.url, req, true)
		}(i, bs)
	}
	wg.Wait()
	coldSummary := map[string]json.RawMessage{}
	for _, s := range cold {
		if s.err != nil {
			return fmt.Errorf("cold fill: %w", s.err)
		}
		for _, line := range s.lines {
			res, err := parseResult(line)
			if err != nil {
				return err
			}
			coldSummary[res.key()] = res.summary
		}
	}
	// Warm passes, two at a time, to fill the WAL.
	for i := 0; i < r.p.warmPasses; i += 2 {
		passes := make([]stream, 2)
		for j := range passes {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				passes[j] = streamSweep(c, dp.api.url, grid, false)
			}(j)
		}
		wg.Wait()
		for _, s := range passes {
			if s.err != nil {
				return fmt.Errorf("warm pass: %w", s.err)
			}
		}
	}
	dp.kill()

	r.crashCopy = filepath.Join(r.dir, "crash-copy")
	if err := copyDir(crashed, r.crashCopy); err != nil {
		return err
	}
	dp, err = r.boots(standalone, r.p.warmBoots, func(dir string) (string, error) {
		store := filepath.Join(dir, "store")
		return store, copyDir(crashed, store)
	})
	if err != nil {
		return err
	}

	w, err := r.openWindow(dp, nil)
	if err != nil {
		return err
	}
	sweepDone := make(chan struct{})
	var timed []stream
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(sweepDone)
		for time.Now().Before(w.end) {
			timed = append(timed, streamSweep(c, dp.api.url, grid, len(timed) == 0))
		}
	}()
	// The reader records into its own run value; it is merged once both
	// loops have finished.
	reader := &run{p: r.p, queries: r.queries}
	due := w.start
reads:
	for i := 0; ; i++ {
		select {
		case <-sweepDone:
			break reads
		case <-time.After(time.Until(due)):
		}
		reader.lateMS = append(reader.lateMS, ms(time.Since(due)))
		reader.query(c, dp.api.url, i)
		due = time.Now().Add(readerThink)
	}
	wg.Wait()
	if err := r.closeWindow(dp, w); err != nil {
		return err
	}
	r.analyticsMS = reader.analyticsMS
	r.lateMS = append(r.lateMS, reader.lateMS...)
	r.ops += reader.ops
	r.failed += reader.failed
	r.failures = append(r.failures, reader.failures...)
	r.record(w, timed)
	if err := r.jobViews(dp); err != nil {
		return err
	}
	dp.kill()
	var first []result
	cachedAll := true
	for _, s := range timed {
		cachedAll = cachedAll && s.cached == len(s.arrive)
		for _, line := range s.lines {
			res, err := parseResult(line)
			if err != nil {
				return err
			}
			first = append(first, res)
		}
	}

	runs := delta(r.before, r.after, "rescqd_engine_runs_total")
	r.check("warm_engine_runs", runs == 0, "engine runs in the timed phase: %.0f (want 0)", runs)
	r.check("warm_cached", cachedAll, "every timed configuration served from the cache: %t", cachedAll)
	mismatch := 0
	for _, res := range first {
		if !bytes.Equal(coldSummary[res.key()], res.summary) {
			mismatch++
		}
		r.digest.add(res.summary)
	}
	r.check("warm_equals_cold", mismatch == 0 && len(first) == len(coldSummary),
		"%d of %d recovered results differ from the cold run", mismatch, len(first))
	r.results = first
	return nil
}

// interactive runs tenant whale's two long async sweeps on both worker
// slots while tenant alice sends /v1/run open loop at aliceRate for the
// phase. Alice's latency is timed from each request's due time. Whale
// leftovers are cancelled at the end.
func (r *run) interactive() error {
	r.daemonFlags = []string{"-max-queue-depth", strconv.Itoa(whaleQueueDepth)}
	dp, err := r.setupFresh(standalone)
	if err != nil {
		return err
	}
	// The whale's sweeps are the same in every run: they are background
	// load, and every configuration of a sweep shares its seed, so a
	// sweep's cost per configuration differed by up to 38% between seeds.
	// Each run's daemon starts empty, so they still miss the cache.
	seeds := newSeeder(0, "whale")
	var whaleIDs []string
	var whaleTotal int
	var benchmarks []string
	for _, order := range r.p.whaleOrders {
		req := sweepRequest(order, r.p.whaleDistances, r.p.whalePhysErrors, seeds.next())
		req.Compressions = r.p.whaleCompressions
		req.Async, req.Tenant = true, "whale"
		status, body, err := post(r.c, dp.api.url+"/v1/sweep", req)
		var v service.JobView
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("whale sweep: status %d: %s", status, bytes.TrimSpace(body))
		}
		if err == nil {
			err = json.Unmarshal(body, &v)
		}
		if err != nil {
			return err
		}
		whaleIDs = append(whaleIDs, v.ID)
		whaleTotal += v.Progress.Total
		r.jobs[v.ID] = true
		benchmarks = append(benchmarks, order...)
	}
	benchmarks = append(benchmarks, r.p.aliceBenchmarks...)
	r.setQueries(dedupe(benchmarks))
	whaleProgress := func() (int, bool, error) {
		var views []service.JobView
		if err := getJSON(r.c, dp.api.url+"/v1/jobs?tenant=whale", &views); err != nil {
			return 0, false, err
		}
		done, running := 0, 0
		for _, v := range views {
			done += v.Progress.Done
			if v.State == service.JobRunning {
				running++
			}
		}
		return done, running == len(whaleIDs), nil
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, running, err := whaleProgress()
		if err != nil {
			return err
		}
		if running {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("whale sweeps never occupied both worker slots")
		}
	}

	reqs := aliceRequests(r.seed, int(aliceRate*r.seconds.Seconds()), r.p)
	// Latency counts from the due time, so lateness is never hidden; the
	// run is invalid only once sends are so late that they bunch up.
	r.lateLimitMS = 1000.0 / aliceRate / 2
	replies := make([]service.RunResponse, len(reqs))
	bodies := make([]json.RawMessage, len(reqs))
	errs := make([]error, len(reqs))
	whale0, _, err := whaleProgress()
	if err != nil {
		return err
	}
	var whale1 int
	var whaleErr error
	w, err := r.openWindow(dp, func() { whale1, _, whaleErr = whaleProgress() })
	if err != nil {
		return err
	}
	timings := openLoop(w.start, aliceRate, len(reqs), aliceConns, func(i int) {
		status, body, err := post(r.c, dp.api.url+"/v1/run", reqs[i])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("run: status %d: %s", status, bytes.TrimSpace(body))
		}
		if err == nil {
			var raw struct {
				Summary json.RawMessage `json:"summary"`
			}
			err = json.Unmarshal(body, &replies[i])
			if err == nil {
				err = json.Unmarshal(body, &raw)
			}
			if err == nil && (replies[i].Error != "" || raw.Summary == nil) {
				err = fmt.Errorf("run %s: %s", replies[i].JobID, replies[i].Error)
			}
			bodies[i] = raw.Summary
		}
		errs[i] = err
	})
	if err := r.closeWindow(dp, w); err != nil {
		return err
	}
	if whaleErr != nil {
		return whaleErr
	}

	slo := 0
	first := map[string]int{} // cache key -> first request index
	mismatch := 0
	var waits []float64
	var halves [2][]float64 // latencies of the phase's first and second half
	for i, tm := range timings {
		r.op(errs[i])
		r.lateMS = append(r.lateMS, ms(tm.late()))
		waits = append(waits, ms(tm.wait()))
		if errs[i] != nil {
			continue
		}
		lat := ms(tm.latency())
		half := 2 * i / len(timings)
		halves[half] = append(halves[half], lat)
		r.resultMS = append(r.resultMS, lat)
		r.firstMS = append(r.firstMS, lat)
		if lat <= 250 {
			slo++
		}
		if !tm.done.After(w.end) {
			r.configs++
		}
		r.jobs[replies[i].JobID] = true
		r.digest.add(bodies[i])
		opts := reqs[i].Options.Canonical()
		res := result{tenant: "alice", summary: bodies[i], res: service.ConfigResult{
			Benchmark: reqs[i].Benchmark, Scheduler: string(opts.Scheduler), Layout: rescq.DefaultLayout,
			Options: &opts, Cached: replies[i].Cached, Summary: replies[i].Summary,
		}}
		if j, seen := first[res.key()]; seen {
			if !bytes.Equal(bodies[j], bodies[i]) {
				mismatch++
			}
			continue
		}
		first[res.key()] = i
		res.res.Index = len(r.results)
		r.results = append(r.results, res)
	}
	r.configs += whale1 - whale0
	// Configurations the whale still had queued at the phase's end: 0 would
	// mean its sweeps ran out and alice had the slots to herself.
	r.extra("interactive.whale_left", float64(whaleTotal-whale1), "count")
	r.extra("interactive.run_slo_frac", float64(slo)/float64(max(len(reqs), 1)), "fraction")
	r.extra("loadgen.conn_wait_p99_ms", newDist(waits).pct(99), "ms")
	// A second half slower than the first is a backlog that grows through
	// the phase: the rate is beyond what the daemon sustains.
	r.extra("interactive.second_half_p50_ms", newDist(halves[1]).median(), "ms")
	r.extra("interactive.first_half_p50_ms", newDist(halves[0]).median(), "ms")
	r.check("repeats_identical", mismatch == 0, "%d repeated configurations answered differently", mismatch)

	for _, id := range whaleIDs {
		r.op(del(r.c, dp.api.url+"/v1/jobs/"+id))
	}
	// Up to two whale results join the replay and verification inputs.
	for _, id := range whaleIDs {
		var v service.JobView
		if err := getJSON(r.c, dp.api.url+"/v1/jobs/"+id, &v); err != nil {
			return err
		}
		if len(v.Results) > 0 {
			res := v.Results[0]
			sum, err := json.Marshal(res.Summary)
			if err != nil {
				return err
			}
			r.results = append(r.results, result{tenant: "whale", res: res, summary: sum})
		}
	}
	r.analyticsBurst(dp, r.c)
	if err := r.jobViews(dp); err != nil {
		return err
	}
	dp.kill()
	return nil
}

// aliceRequests generates alice's n /v1/run requests from the seed: small
// and medium circuits under a random scheduler, distance, error rate and
// seed, with a share repeating an earlier configuration exactly.
func aliceRequests(seed int64, n int, p params) []service.RunRequest {
	s := newSeeder(seed, "alice")
	rng := s.r
	distances := []int{5, 7, 9}
	physErrors := []float64{1e-4, 5e-4}
	var distinct []service.RunRequest
	out := make([]service.RunRequest, n)
	for i := range out {
		if len(distinct) > 0 && rng.Float64() < aliceRepeat {
			out[i] = distinct[rng.Intn(len(distinct))]
			continue
		}
		out[i] = service.RunRequest{
			Benchmark: p.aliceBenchmarks[rng.Intn(len(p.aliceBenchmarks))],
			Options: rescq.Options{
				Scheduler: rescq.SchedulerKind(schedulers[rng.Intn(len(schedulers))]),
				Distance:  distances[rng.Intn(len(distances))],
				PhysError: physErrors[rng.Intn(len(physErrors))],
				Runs:      1,
				Seed:      s.next(),
			},
			Tenant: "alice",
		}
		distinct = append(distinct, out[i])
	}
	return out
}

// timing is one open-loop request: when it was due, when the generator
// issued it, when a connection took it up, and when its reply arrived.
type timing struct {
	due, issued, sent, done time.Time
}

// latency counts from the due time, so the wait for a free connection and
// a stalled generator's backlog both show up in it.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// late is how far behind schedule the generator issued the request.
func (t timing) late() time.Duration { return t.issued.Sub(t.due) }

// wait is how long an issued request waited for a free connection.
func (t timing) wait() time.Duration { return t.sent.Sub(t.issued) }

// openLoop issues n requests at a fixed rate from start, whether or not
// earlier ones have answered, to conns senders that each perform one
// request at a time (send(i) performs request i). A request that finds
// every sender busy waits in the client's queue, and its latency still
// counts from its due time.
func openLoop(start time.Time, rate float64, n, conns int, send func(i int)) []timing {
	out := make([]timing, n)
	queue := make(chan int, n) // sized to every request, so issuing never blocks
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].sent = time.Now()
				send(i)
				out[i].done = time.Now()
			}
		}()
	}
	for i := range out {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		out[i].due, out[i].issued = due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// sleepUntil returns at t. Timer wake-ups on a busy 2-vCPU machine come
// up to a few milliseconds late, so it sleeps to 2ms before t and spins
// the rest of the way.
func sleepUntil(t time.Time) {
	time.Sleep(time.Until(t) - 2*time.Millisecond)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// copyDir copies the regular files of src (one level, as a store holds)
// into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
