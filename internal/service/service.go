// Package service implements rescqd, the long-running serving layer in
// front of the rescq simulation engine: an HTTP/JSON daemon that turns the
// one-shot CLI workflow into a job-queue service suitable for sustained
// traffic.
//
// # Endpoints
//
//	POST /v1/run         submit one simulation (benchmark, circuit text, or
//	                     a paper experiment id); waits by default, or
//	                     returns a job id immediately with "async": true
//	POST /v1/sweep       submit a benchmark x scheduler x layout x parameter
//	                     grid; streams per-configuration results (SSE or
//	                     NDJSON) or runs as an async job
//	GET  /v1/jobs        list jobs, including history replayed from the
//	                     durable store across restarts
//	GET  /v1/jobs/{id}   job status, progress and (partial) results
//	DELETE /v1/jobs/{id} cancel a queued or running job
//	POST /v1/jobs/{id}/resume
//	                     continue a cancelled/failed/interrupted job from
//	                     its first unfinished configuration
//	GET  /v1/benchmarks  the Table 3 benchmark suite
//	GET  /v1/capabilities every valid sweep-axis value: benchmarks plus the
//	                     scheduler and layout catalogs
//	GET  /healthz        readiness verdict (503 while draining)
//	GET  /metrics        Prometheus text metrics
//
// # Job lifecycle
//
// A submission is validated synchronously (malformed grids and options are
// rejected with 400 before anything is enqueued), expanded into one or
// more run configurations — deduplicated by canonical cache key, so a
// sweep never computes identical work twice — and admitted against two
// bounds: the configuration backlog (Daemon.MaxQueueDepth; beyond it the
// submission is shed with 429 + Retry-After) and the job queue itself (a
// full queue rejects with 503). A bounded pool of job drivers — built on
// sim.ParallelFor, one per engine slot — drains the queue. Jobs move
// through queued -> running -> done | failed | cancelled. A job's
// configurations execute on every idle slot (pipeline.go: its driver's
// own, idle pool slots it borrows while nothing else is queued, or worker
// slots on a coordinator) and are delivered in index order, so progress,
// streams and the WAL are byte-identical however many slots ran them.
// Cancellation (client disconnect on a waiting/streaming request, a failed
// stream write, or DELETE) propagates through the job context into the
// engine's per-cycle loop, so even a long configuration aborts promptly
// mid-run. On shutdown the daemon stops accepting work, lets the drivers
// drain every accepted job, and only cancels in-flight jobs if the drain
// budget expires. Terminal jobs stay inspectable via GET /v1/jobs up to a
// retention bound (the most recent 1024); older ones are evicted so a
// long-running daemon's memory stays flat.
//
// # Durability
//
// With Daemon.StoreDir set, the daemon checkpoints every accepted job and
// every completed configuration to an append-only JSON-lines WAL
// (internal/store), keyed by the same canonical rescq.CacheKey as the
// result cache. On startup the WAL is replayed: terminal jobs come back
// as inspectable history, their results re-seed the cache (latency
// arrays stripped — a post-restart include_latencies request recomputes),
// and interrupted jobs are re-enqueued to resume at their first
// unfinished configuration, yielding a completed result set
// byte-identical to an uninterrupted run. POST /v1/jobs/{id}/resume
// applies the same continuation to cancelled/failed jobs on demand.
// Shutdown takes a final checkpoint: the WAL is compacted, fsynced and
// closed.
//
// # Cache semantics
//
// Results are memoized in one LRU keyed by rescq.CacheKey: a hash of
// the circuit identity (benchmark name, or the full circuit text) and the
// canonical rescq.Options (rescq.Options.Canonical — defaults applied,
// equivalent spellings merged). Simulations are fully
// deterministic given that key, so a hit is byte-identical to a re-run and
// is served without invoking the engine. Identical configurations inside
// one sweep, across sweeps, and across run/sweep requests all share the
// cache. It has one fill rule, whoever computed the result (local engine,
// cluster worker or WAL replay): it stores what the request returned, so
// latency arrays are kept only for include_latencies requests, and an
// include_latencies request after a plain one recomputes, with identical
// bytes. Concurrent identical configurations are coalesced on every path:
// followers wait for the in-flight leader and are then served from the
// freshly filled cache. Paper experiments are cached by (experiment id,
// quick). The hit/miss/engine-run counters on /metrics make cache
// behavior observable (and testable).
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	rescq "repro"
	"repro/internal/analytics"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/resultcodec"
	"repro/internal/schedq"
	"repro/internal/sim"
	"repro/internal/store"
)

// Runner abstracts the simulation engine behind the daemon. Production use
// is EngineRunner; tests substitute counting or stalling runners to assert
// cache hits and drain behavior. Implementations must honor ctx promptly:
// a cancelled job's context reaches the engine's per-cycle loop, so a
// DELETE or client disconnect aborts a long configuration mid-run rather
// than at its boundary.
type Runner interface {
	Run(ctx context.Context, benchmark string, opts rescq.Options) (rescq.Summary, error)
	RunCircuitText(ctx context.Context, name, text string, opts rescq.Options) (rescq.Summary, error)
	Experiment(ctx context.Context, id string, quick bool) (string, error)
}

// EngineRunner is the Runner backed by the real rescq engine.
type EngineRunner struct{}

func (EngineRunner) Run(ctx context.Context, benchmark string, opts rescq.Options) (rescq.Summary, error) {
	return rescq.RunContext(ctx, benchmark, opts)
}

func (EngineRunner) RunCircuitText(ctx context.Context, name, text string, opts rescq.Options) (rescq.Summary, error) {
	return rescq.RunCircuitTextContext(ctx, name, text, opts)
}

func (EngineRunner) Experiment(ctx context.Context, id string, quick bool) (string, error) {
	return rescq.ExperimentContext(ctx, id, quick)
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// runSpec is one fully-validated run configuration inside a job: its
// persisted and dispatched fields, defined beside their typed encoding in
// internal/resultcodec, and its cache key.
type runSpec struct {
	resultcodec.Spec
	// key is the spec's specKey, computed once: by expandSweep's dedupe or
	// validateRun at submission, or by the first pickup for specs decoded
	// from a WAL job record. Unexported, so neither job records nor the
	// dispatch wire carry it.
	key string
}

// ConfigResult reports one completed run configuration of a job. It is
// defined beside its typed WAL encoding, in internal/resultcodec.
type ConfigResult = resultcodec.ConfigResult

// Job is one queued/running/finished unit of work.
type Job struct {
	ID      string
	Kind    string // "run" or "sweep"
	Created time.Time
	// Tenant is the owning tenant for scheduling and accounting — never
	// empty; untagged submissions get schedq.DefaultTenant. Immutable
	// after construction.
	Tenant string

	// specs (each carrying its key once the first pickup has run, then
	// read-only) are released once the job has a result for every
	// configuration: nothing can run or resume it then, and a finished
	// sweep kept in the history would otherwise hold ~270 B per
	// configuration for nothing. total is len(specs), fixed at
	// construction.
	specs []runSpec
	total int

	// fromStore marks a job reconstructed from the WAL (its job record is
	// already on disk); resumedFrom names the job this one continues.
	fromStore   bool
	resumedFrom string

	ctx    context.Context
	cancel context.CancelFunc
	doneCh chan struct{}
	// delivered wakes the job's stream (buffer 1, never blocks the
	// sender): results appended, read them from results.
	delivered chan struct{}

	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time
	results  []ConfigResult // sized to len(specs) up front; append-only
	err      error
	// resumedTo names the job that continued this one; set (and checked)
	// under mu so concurrent POST .../resume calls cannot both mint a
	// continuation and duplicate the remaining work.
	resumedTo string
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Cancel requests cancellation. The job context propagates into the
// engine's per-cycle loop, so an in-flight configuration aborts promptly;
// queued jobs are dropped when a worker picks them up.
func (j *Job) Cancel() { j.cancel() }

// snapshot copies the mutable job fields for rendering.
func (j *Job) snapshot() (state JobState, started, finished time.Time, results []ConfigResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.started, j.finished, append([]ConfigResult(nil), j.results...), j.err
}

// ErrQueueFull is returned when the bounded job queue rejects a submission.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining is returned for submissions after shutdown began.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// OverloadError is returned when admission control sheds a submission: the
// backlog of admitted-but-unfinished run configurations would exceed
// Daemon.MaxQueueDepth. The HTTP layer maps it to 429 with a Retry-After
// hint derived from the backlog and observed job latency.
type OverloadError struct {
	Pending    int64 // configurations admitted and not yet finished
	Limit      int   // Daemon.MaxQueueDepth (or the tenant's quota)
	RetryAfter time.Duration
	// Tenant is set when a per-tenant quota (not the global backlog bound)
	// shed the submission; Pending and RetryAfter are then the tenant's own.
	Tenant string
}

func (e *OverloadError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("service: tenant %q over quota: %d configurations pending (limit %d), retry in %s",
			e.Tenant, e.Pending, e.Limit, e.RetryAfter)
	}
	return fmt.Sprintf("service: overloaded: %d configurations pending (limit %d), retry in %s",
		e.Pending, e.Limit, e.RetryAfter)
}

// maxFinishedJobs and maxFinishedResults bound the terminal jobs the
// registry retains for GET /v1/jobs inspection: beyond either, the
// oldest-finished are evicted (the newest is always kept), so a
// long-running daemon's memory stays flat however large its sweeps. A
// retained result costs about 150 B, so the result bound is about 20 MB.
// Queued/running jobs are never evicted.
const (
	maxFinishedJobs    = 1024
	maxFinishedResults = 1 << 17
)

// finishedJob is one entry of the retention-bounded history.
type finishedJob struct {
	id      string
	results int
}

// Server owns the job queue, the worker pool, the result cache and the
// metrics. Create with New, start the pool with Start, serve Handler over
// HTTP, stop with Shutdown.
type Server struct {
	cfg    config.Daemon
	runner Runner
	stats  *metrics.ServiceStats
	cache  *resultCache // nil when caching is disabled
	// sched replaced the original buffered `chan *Job`: submission Pushes
	// under the tenant's quota, workers Pop whichever tenant the policy
	// picks, and running jobs poll Yield for preemption (see internal/schedq).
	sched *schedq.Queue
	store *store.Store  // nil until AttachStore; durability layer
	clust *clusterState // nil in standalone mode; scale-out layer
	// an aggregates the persisted result stream for GET /v1/analytics/*;
	// fed at persist time, rebuilt from the WAL at AttachStore. See
	// analytics.go for the wiring.
	an *analytics.Store

	// workerDraining is the worker-mode retirement latch (POST
	// /internal/v1/drain): sticky, announced on heartbeats, fences the
	// execute endpoint. Distinct from draining, the process-shutdown flag.
	workerDraining atomic.Bool
	// execInflight counts batches currently executing on this worker's
	// execute endpoint (drain observability).
	execInflight atomic.Int64

	// The job registry: every queued, running and retained terminal job,
	// and the terminal ones in finish order, oldest first, with the
	// results they hold (the retention bounds above).
	jobsMu          sync.Mutex
	jobs            map[string]*Job
	finished        []finishedJob
	finishedResults int

	pool localPool // engine-slot accounting behind every job's local slots

	// Degraded durability: lossy flips true when a WAL append fails, and
	// from then on persist* calls skip the disk (counted, not errored)
	// while a background probe retries the store at probeEvery until the
	// disk heals — the daemon keeps serving instead of failing submissions.
	lossy      atomic.Bool
	probeEvery time.Duration
	replay     ReplayStats // what AttachStore recovered, for /metrics

	mu        sync.Mutex
	accepting bool
	started   bool
	draining  atomic.Bool
	poolDone  chan struct{}
	baseCtx   context.Context
	baseStop  context.CancelFunc
	startTime time.Time
	nextID    atomic.Int64
	workers   int
}

// New builds a server from the daemon config. A nil runner uses the real
// engine.
func New(cfg config.Daemon, runner Runner) *Server {
	cfg = cfg.WithDefaults()
	if runner == nil {
		runner = EngineRunner{}
	}
	ctx, stop := context.WithCancel(context.Background())
	sched, _ := schedq.New(schedq.WFQ, cfg.Tenants.SchedConfig(cfg.QueueDepth)) // only an unknown name errors
	s := &Server{
		cfg:        cfg,
		runner:     runner,
		stats:      new(metrics.ServiceStats),
		sched:      sched,
		poolDone:   make(chan struct{}),
		probeEvery: 2 * time.Second,
		baseCtx:    ctx,
		baseStop:   stop,
		startTime:  time.Now(),
		an:         analytics.New(analytics.DefaultMaxGroups),
		// Accepting from construction, not from Start: AttachStore
		// re-enqueues interrupted jobs into the scheduler before the
		// worker pool spins up.
		accepting: true,
		jobs:      make(map[string]*Job),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries)
	}
	s.clust = newClusterState(cfg.Cluster)
	s.pool.cond = sync.NewCond(&s.pool.mu)
	return s
}

// Workers reports the resolved worker-pool width (valid after Start).
func (s *Server) Workers() int { return s.workers }

// Start launches the worker pool. The pool is literally sim.ParallelFor
// over the worker count — each iteration is one long-lived worker draining
// the shared queue until Shutdown closes it — so the daemon reuses the same
// bounded-pool primitive as the engine's seed fan-out.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = sim.DefaultWorkers() // one per CPU, like the engine's pool
	}
	s.workers = workers
	if s.clust != nil && s.clust.registry != nil {
		// The coordinator's liveness sweeper runs until Shutdown cancels
		// baseCtx, expiring workers that miss their heartbeat window.
		go s.expirySweeper()
	}
	go func() {
		// With workers == 1, ParallelFor runs serially on this goroutine —
		// exactly one dedicated worker, as configured.
		sim.ParallelFor(workers, workers, func(int) { s.worker() })
		close(s.poolDone)
	}()
}

// Shutdown drains gracefully: stop accepting, close the queue, and wait
// for the workers to finish every accepted job. If ctx expires first,
// in-flight jobs are cancelled (the cancellation reaches the engine's
// cycle loop, so even a long configuration aborts promptly) and Shutdown
// returns ctx.Err() after the pool exits. Either way, the WAL — when one
// is attached — takes its final checkpoint: compacted, fsynced, closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.accepting = false
		s.mu.Unlock()
		s.baseStop()
		s.closeStore()
		return nil
	}
	// Close the scheduler under the same lock submit holds for its push
	// (see submit): once we release it no sender can race the close.
	// Queued jobs drain — Pop keeps returning them until empty.
	if s.accepting {
		s.accepting = false
		s.sched.Close()
	}
	s.mu.Unlock()
	s.draining.Store(true)
	select {
	case <-s.poolDone:
		s.baseStop() // every job is terminal; stop the liveness sweeper too
		s.closeStore()
		return nil
	case <-ctx.Done():
		s.baseStop() // cancel in-flight jobs, then wait for the pool
		<-s.poolDone
		s.closeStore()
		return ctx.Err()
	}
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) registerJob(j *Job) {
	s.jobsMu.Lock()
	s.jobs[j.ID] = j
	s.jobsMu.Unlock()
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job (unordered).
func (s *Server) Jobs() []*Job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// buildJob allocates a job over the given validated specs, minting its id
// and creation time, without registering it, so callers can finish
// populating it (resume prefixes, provenance) before it becomes visible to
// listings.
func (s *Server) buildJob(kind, tenant string, specs []runSpec) *Job {
	return s.makeJob(fmt.Sprintf("job-%06d", s.nextID.Add(1)), time.Now(), kind, tenant, specs)
}

// makeJob is the one Job constructor: buildJob mints id and created, and
// WAL replay passes the record's, so replay never draws from nextID. An
// empty tenant (untagged traffic, which also persists as "", and records
// written before tenancy existed) is the default tenant.
func (s *Server) makeJob(id string, created time.Time, kind, tenant string, specs []runSpec) *Job {
	if tenant == "" {
		tenant = schedq.DefaultTenant
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	return &Job{
		ID:        id,
		Kind:      kind,
		Created:   created,
		Tenant:    tenant,
		specs:     specs,
		total:     len(specs),
		ctx:       ctx,
		cancel:    cancel,
		doneCh:    make(chan struct{}),
		delivered: make(chan struct{}, 1),
		results:   make([]ConfigResult, 0, len(specs)),
		state:     JobQueued,
	}
}

// newJob allocates and registers a job over the given validated specs.
func (s *Server) newJob(kind, tenant string, specs []runSpec) *Job {
	j := s.buildJob(kind, tenant, specs)
	s.registerJob(j)
	return j
}

// submit enqueues a job, rejecting when draining, shedding when admission
// control's configuration backlog (global or the tenant's own quota) is
// exhausted, and rejecting when the scheduler's capacity is full. The
// accepting check, the admission checks and the scheduler push happen
// under one lock so a concurrent Shutdown (which closes the scheduler) or
// submit can never interleave between them.
func (s *Server) submit(j *Job) error {
	// Resumed jobs re-enter with a completed prefix; only the unfinished
	// configurations count against the backlog. No worker owns the job
	// before the scheduler push below, so the unlocked read is safe.
	remaining := int64(len(j.specs) - len(j.results))
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		s.stats.JobsRejected.Add(1)
		s.failFast(j, ErrDraining)
		return ErrDraining
	}
	// Replayed jobs bypass admission control: the WAL promised them a
	// resume, and their work was already admitted in a previous life.
	if limit := s.cfg.MaxQueueDepth; limit > 0 && !j.fromStore {
		if cur := s.sched.Pending(); cur+remaining > int64(limit) {
			s.mu.Unlock()
			s.stats.JobsShed.Add(1)
			s.stats.Tenant(j.Tenant).Shed.Add(1)
			// Retry-After from the shedding tenant's own backlog: under the
			// global bound a tenant with no queued work of its own should
			// not be told to wait out the whale's entire backlog.
			own := s.sched.Backlog(j.Tenant)
			err := &OverloadError{Pending: cur, Limit: limit, RetryAfter: s.retryAfter(own)}
			s.failFast(j, err)
			return err
		}
	}
	// Checkpoint the job record BEFORE it becomes visible to a worker: a
	// fast worker (cache hit) can otherwise persist the first result
	// before the job record exists, and the store would drop it. Holding
	// s.mu across this is fine: AppendJob is a single compaction-free
	// append (resume prefixes are pre-persisted by resumeJob, so the
	// inherited-result loop no-ops here), and the store never takes
	// server locks.
	s.persistJob(j)
	push := s.sched.Push
	if j.fromStore {
		push = s.sched.PushExempt // quota-exempt, like the global bypass above
	}
	err := push(j.Tenant, remaining, j)
	if err == nil {
		s.mu.Unlock()
		s.stats.JobsQueued.Add(1)
		s.stats.Tenant(j.Tenant).Queued.Add(1)
		return nil
	}
	s.mu.Unlock()
	var qe *schedq.QuotaError
	switch {
	case errors.Is(err, schedq.ErrClosed):
		err = ErrDraining
		s.stats.JobsRejected.Add(1)
	case errors.As(err, &qe):
		s.stats.JobsShed.Add(1)
		s.stats.Tenant(j.Tenant).Shed.Add(1)
		err = &OverloadError{
			Tenant:     j.Tenant,
			Pending:    qe.Backlog,
			Limit:      int(qe.Limit),
			RetryAfter: s.retryAfter(qe.Backlog),
		}
	default: // schedq.ErrFull
		err = ErrQueueFull
		s.stats.JobsRejected.Add(1)
	}
	s.failFast(j, err)
	return err
}

// retryAfter estimates when the backlog will have drained enough to admit
// new work: pending configurations spread over the worker pool at the
// observed per-configuration latency, clamped to [1s, 5min]. The latency
// histogram tracks whole jobs, so the median is scaled down by the mean
// configurations-per-finished-job — otherwise sweep traffic (one job,
// hundreds of configurations) would overestimate by that factor.
func (s *Server) retryAfter(pending int64) time.Duration {
	_, p50, _ := s.stats.JobLatency()
	workers := s.workers
	if workers < 1 {
		workers = 1
	}
	configs := s.stats.CacheHits.Load() + s.stats.EngineRuns.Load()
	jobs := s.stats.JobsDone.Load() + s.stats.JobsFailed.Load() + s.stats.JobsCancelled.Load()
	perJob := int64(1)
	if jobs > 0 && configs > jobs {
		perJob = configs / jobs
	}
	est := time.Duration(pending) * p50 / time.Duration(workers) / time.Duration(perJob)
	if est < time.Second {
		est = time.Second
	}
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return est.Round(time.Second)
}

// failFast marks a never-enqueued job failed so its registry entry is not
// stuck in "queued" forever, and checkpoints the failure so replay does not
// resurrect a rejected job. What the WAL keeps depends on where submit
// rejected it. The draining check and the global max_queue_depth shed come
// before persistJob: the store never saw the job and AppendDone no-ops.
// The rejections sched.Push returns (a tenant-quota shed, a full job queue,
// a scheduler closed by a concurrent shutdown) come after the job record
// is written, so the WAL keeps the job plus a failed done record, and after
// a restart the job lists as failed history.
func (s *Server) failFast(j *Job, err error) {
	j.mu.Lock()
	j.state = JobFailed
	j.err = err
	j.finished = time.Now()
	j.mu.Unlock()
	if !j.fromStore {
		// Replayed jobs stay interrupted on disk, so the NEXT restart can
		// retry the re-enqueue.
		s.persistDone(j, JobFailed, err)
	}
	s.closeJob(j)
}

// closeJob releases a terminal job: its streams close, its analytics
// watermark is dropped, and it joins the retention-bounded history.
func (s *Server) closeJob(j *Job) {
	s.analyticsForget(j.ID)
	close(j.doneCh)
	// Release the context child registered on baseCtx; without this every
	// terminal job would stay in baseCtx's children set forever.
	j.cancel()
	s.retireJob(j)
}

// retireJob records a terminal job and evicts the oldest finished jobs
// beyond the retention bounds. Waiters holding the *Job keep it alive
// regardless; eviction only drops the registry's reference.
func (s *Server) retireJob(j *Job) {
	j.mu.Lock()
	n := len(j.results)
	j.mu.Unlock()
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.finished = append(s.finished, finishedJob{j.ID, n})
	s.finishedResults += n
	for len(s.finished) > 1 && (len(s.finished) > maxFinishedJobs || s.finishedResults > maxFinishedResults) {
		delete(s.jobs, s.finished[0].id)
		s.finishedResults -= s.finished[0].results
		s.finished = s.finished[1:] // the spent front goes when append next reallocates
	}
}

// worker is one pool slot: it drains the scheduler until Shutdown closes
// it (Pop keeps the channel-range contract — it blocks while empty and
// reports ok=false only once closed AND drained).
func (s *Server) worker() {
	for {
		item, ok := s.sched.Pop()
		if !ok {
			return
		}
		s.execute(item.(*Job))
	}
}

// execute runs every configuration of a job, publishing per-configuration
// results and progress as it goes. Resumed jobs (a completed prefix
// replayed from the WAL or inherited via /resume) re-enter at the first
// unfinished configuration.
func (s *Server) execute(j *Job) {
	j.mu.Lock()
	j.state = JobRunning
	if j.started.IsZero() {
		// First pickup; a preempted continuation keeps its original start so
		// the observed latency spans the whole job, waits included.
		j.started = time.Now()
	}
	start := j.started
	startIdx := len(j.results)
	j.mu.Unlock()
	s.stats.JobsRunning.Add(1)
	defer s.stats.JobsRunning.Add(-1)
	s.pool.add(1)
	defer s.pool.add(-1)
	tc := s.stats.Tenant(j.Tenant)
	tc.Running.Add(1)
	defer tc.Running.Add(-1)

	var cancelled bool
	for {
		var preempted bool
		cancelled, preempted = s.runJob(j, startIdx)
		if !preempted {
			break
		}
		if s.requeuePreempted(j) {
			// The continuation is queued; another worker slot (possibly this
			// one) owns it from here. Touch nothing after the handoff.
			return
		}
		// The scheduler refused the requeue (closing); keep executing — the
		// drain contract says every accepted job finishes.
		j.mu.Lock()
		j.state = JobRunning
		startIdx = len(j.results)
		j.mu.Unlock()
	}

	j.mu.Lock()
	failures := 0
	for i := range j.results {
		if j.results[i].Error != "" {
			failures++
		}
	}
	unfinished := len(j.specs) - len(j.results)
	switch {
	case cancelled:
		j.state = JobCancelled
		j.err = context.Canceled
		s.stats.JobsCancelled.Add(1)
	case failures == len(j.specs) || (j.Kind == "run" && failures > 0):
		// A sweep with partial failures still reports as done with
		// per-configuration errors; only total failure (or any failure of
		// a single-configuration run) fails the job.
		j.state = JobFailed
		j.err = fmt.Errorf("service: %d/%d configurations failed", failures, len(j.specs))
		s.stats.JobsFailed.Add(1)
	default:
		j.state = JobDone
		s.stats.JobsDone.Add(1)
	}
	j.finished = time.Now()
	state, err := j.state, j.err
	if unfinished == 0 {
		j.specs = nil
	}
	j.mu.Unlock()
	s.sched.Abandon(j.Tenant, int64(unfinished)) // configurations the break left behind
	s.sched.JobDone(j.Tenant)
	tc.Done.Add(1)
	s.persistDone(j, state, err)
	s.closeJob(j)
	s.stats.ObserveLatency(time.Since(start))
}

// requeuePreempted hands a checkpointed job back to the scheduler as a
// resumable continuation: its completed prefix is already appended (and in
// the WAL), so the next pickup re-enters at the first unfinished
// configuration — the same machinery WAL replay and /resume use. Reports
// whether the handoff succeeded; on success the caller must not touch j.
func (s *Server) requeuePreempted(j *Job) bool {
	j.mu.Lock()
	j.state = JobQueued
	j.mu.Unlock()
	if err := s.sched.Requeue(j.Tenant, j); err != nil {
		return false // scheduler closing; the caller keeps executing
	}
	s.stats.JobsPreempted.Add(1)
	s.stats.Tenant(j.Tenant).Preempted.Add(1)
	return true
}

// shouldPreempt reports whether a running job should checkpoint at its
// next configuration boundary and hand the worker slot to a waiting
// better-entitled tenant. Never during drain: Shutdown wants jobs finished,
// not reshuffled.
func (s *Server) shouldPreempt(j *Job) bool {
	return !s.draining.Load() && s.sched.Yield(j.Tenant)
}

// reportVersion is part of every experiment report's cache/store key.
// Bump it whenever a driver's output changes (its numbers or its
// rendering): WAL replay re-seeds the cache from every keyed result, so a
// daemon restarted on an older store would otherwise keep serving the old
// report text. Keys written before the version existed count as 1.
const reportVersion = 2

// specKey returns the configuration's cache/store identity: the canonical
// rescq.CacheKey for simulations, an experiment-id key for paper reports.
// It is the key the result cache, the in-flight coalescing table and the
// WAL's result records all share.
func specKey(spec runSpec) string {
	switch {
	case spec.Experiment != "":
		return fmt.Sprintf("exp:v%d:%s:quick=%t", reportVersion, spec.Experiment, spec.Quick)
	case spec.CircuitText != "":
		return rescq.CacheKey("text:"+spec.Name+"\x00"+spec.CircuitText, spec.Opts)
	default:
		return rescq.CacheKey("bench:"+spec.Benchmark, spec.Opts)
	}
}

// cacheFill is the cache's one fill rule, for engine runs, worker results
// and WAL replay alike: store what the request returned — the result's
// own options and summary, which are never mutated once delivered. Unless
// the request kept its latency arrays, the entry is partial. Reports
// whether anything was stored.
func (s *Server) cacheFill(key string, kept bool, res ConfigResult) bool {
	if s.cache == nil || res.Error != "" {
		return false
	}
	switch {
	case res.Report != "":
		s.cache.put(key, res.Report)
	case res.Summary != nil:
		s.cache.put(key, &cachedSummary{opts: res.Options, sum: res.Summary, partial: !kept})
	default:
		return false
	}
	return true
}

// newConfigResult builds the result skeleton for a spec: the identity
// fields every rendering of the configuration carries, whether it was
// computed locally, served from cache, or returned by a cluster worker.
func newConfigResult(spec runSpec) ConfigResult {
	res := ConfigResult{
		Benchmark: spec.Benchmark,
		Scheduler: string(spec.Opts.Scheduler),
		Layout:    spec.Opts.Layout,
	}
	if res.Layout == "" {
		res.Layout = rescq.DefaultLayout // spelled out for sweep clients
	}
	if spec.Benchmark == "" && spec.CircuitText != "" {
		res.Benchmark = spec.Name
	}
	if spec.Experiment != "" {
		res.Benchmark, res.Scheduler, res.Layout = "", "", ""
	}
	return res
}

// cachedResult renders a cache hit for spec.
func cachedResult(spec runSpec, v any) ConfigResult {
	res := newConfigResult(spec)
	res.Cached = true
	fillResult(&res, spec, v)
	return res
}

// runOne serves one configuration on the calling goroutine (the worker
// execute endpoint), claiming it like runJob does.
func (s *Server) runOne(ctx context.Context, spec runSpec) ConfigResult {
	key := specKey(spec)
	for {
		v, wait, hit := s.cache.claim(key, spec)
		switch {
		case hit:
			s.stats.CacheHits.Add(1)
			return cachedResult(spec, v)
		case wait == nil:
			defer s.cache.leave(key)
			return s.compute(ctx, key, spec)
		}
		s.stats.Coalesced.Add(1)
		select {
		case <-wait:
		case <-ctx.Done(): // the caller is gone
			res := newConfigResult(spec)
			res.Error = fmt.Sprintf("service: abandoned coalesced wait: %v", ctx.Err())
			return res
		}
	}
}

// compute runs one claimed configuration on the engine and fills the cache.
func (s *Server) compute(ctx context.Context, key string, spec runSpec) ConfigResult {
	res := newConfigResult(spec)
	if s.cache != nil {
		s.stats.CacheMisses.Add(1)
	}
	s.stats.EngineRuns.Add(1)
	start := time.Now()
	var (
		val any
		err error
	)
	switch {
	case spec.Experiment != "":
		val, err = s.runner.Experiment(ctx, spec.Experiment, spec.Quick)
	case spec.CircuitText != "":
		val, err = s.runner.RunCircuitText(ctx, spec.Name, spec.CircuitText, spec.Opts)
	default:
		val, err = s.runner.Run(ctx, spec.Benchmark, spec.Opts)
	}
	s.stats.ObserveConfigLatency(time.Since(start))
	if err != nil {
		res.Error = err.Error()
		return res
	}
	fillResult(&res, spec, val)
	s.cacheFill(key, spec.KeepLatencies, res)
	return res
}

// fillResult fills a result's payload from an engine value or a cache
// entry. A cache hit shares the entry's options and summary: equal cache
// keys mean equal canonical options (rescq.CacheKey digests every field
// of the canonical form), so the entry's are the spec's own.
func fillResult(res *ConfigResult, spec runSpec, val any) {
	switch v := val.(type) {
	case *cachedSummary:
		res.Options, res.Summary = v.opts, v.sum
		if res.Options == nil {
			opts := spec.Opts.Canonical()
			res.Options = &opts
		}
		if !v.partial && !spec.KeepLatencies {
			stripLatencies(res)
		}
	case rescq.Summary:
		opts := spec.Opts.Canonical()
		res.Options = &opts
		res.Summary = &v
		if !spec.KeepLatencies {
			stripLatencies(res)
		}
	case string:
		res.Report = v
	}
}
