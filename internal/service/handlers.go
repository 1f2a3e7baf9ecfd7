package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"time"

	rescq "repro"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/schedq"
	"repro/internal/store"
)

// RunRequest is the POST /v1/run payload. Exactly one of Benchmark,
// CircuitText or Experiment must be set.
type RunRequest struct {
	// Benchmark names a Table 3 circuit, e.g. "gcm_n13".
	Benchmark string `json:"benchmark,omitempty"`
	// CircuitText is a circuit in the artifact text format; Name labels it.
	CircuitText string `json:"circuit_text,omitempty"`
	Name        string `json:"name,omitempty"`
	// Experiment regenerates a paper table/figure (see GET /v1/benchmarks
	// for benchmarks, rescq.ExperimentIDs for ids); Quick runs the reduced
	// sweep.
	Experiment string `json:"experiment,omitempty"`
	Quick      bool   `json:"quick,omitempty"`
	// Options configures the simulation (ignored for Experiment payloads).
	Options rescq.Options `json:"options"`
	// Async returns a job id immediately instead of waiting.
	Async bool `json:"async,omitempty"`
	// IncludeLatencies keeps the per-gate latency arrays in the response
	// (they are stripped by default — tens of thousands of ints per run).
	IncludeLatencies bool `json:"include_latencies,omitempty"`
	// Tenant names the submitting tenant for scheduling and quotas; it
	// overrides the X-Rescq-Tenant header. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// RunResponse is the POST /v1/run reply.
type RunResponse struct {
	JobID   string         `json:"job_id"`
	State   JobState       `json:"state"`
	Cached  bool           `json:"cached,omitempty"`
	Summary *rescq.Summary `json:"summary,omitempty"`
	Report  string         `json:"report,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// JobProgress reports how far a job has advanced.
type JobProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobView is the GET /v1/jobs/{id} payload.
type JobView struct {
	ID       string         `json:"id"`
	Kind     string         `json:"kind"`
	Tenant   string         `json:"tenant"`
	State    JobState       `json:"state"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
	Progress JobProgress    `json:"progress"`
	Results  []ConfigResult `json:"results,omitempty"`
	Error    string         `json:"error,omitempty"`
	// ResumedFrom names the job this one continued (POST .../resume).
	ResumedFrom string `json:"resumed_from,omitempty"`
}

func (s *Server) jobView(j *Job, includeResults bool) JobView {
	state, started, finished, results, err := j.snapshot()
	v := JobView{
		ID:       j.ID,
		Kind:     j.Kind,
		Tenant:   j.Tenant,
		State:    state,
		Created:  j.Created,
		Progress: JobProgress{Done: len(results), Total: j.total},
	}
	if !started.IsZero() {
		v.Started = &started
	}
	if !finished.IsZero() {
		v.Finished = &finished
	}
	if includeResults {
		v.Results = results
	}
	if err != nil {
		v.Error = err.Error()
	}
	v.ResumedFrom = j.resumedFrom
	return v
}

// stripLatencies drops the per-gate latency arrays from a result via a
// fresh Summary copy (the original — e.g. the cache's — is untouched).
// fillResult applies it at store time unless the request opted in with
// include_latencies, so stored jobs stay small.
func stripLatencies(res *ConfigResult) {
	if res.Summary == nil {
		return
	}
	sum := *res.Summary
	sum.Runs = append([]rescq.Result(nil), sum.Runs...)
	for i := range sum.Runs {
		sum.Runs[i].CNOTLatencies = nil
		sum.Runs[i].RzLatencies = nil
	}
	res.Summary = &sum
}

// Handler returns the daemon's HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResumeJob)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /v1/capabilities", s.handleCapabilities)
	mux.HandleFunc("GET /v1/analytics/groupby", s.handleAnalyticsGroupBy)
	mux.HandleFunc("GET /v1/analytics/pareto", s.handleAnalyticsPareto)
	mux.HandleFunc("GET /v1/analytics/sensitivity", s.handleAnalyticsSensitivity)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.clust != nil {
		switch s.clust.cfg.Mode {
		case config.ModeCoordinator:
			mux.HandleFunc("POST "+cluster.RegisterPath, s.handleRegister)
		case config.ModeWorker:
			mux.HandleFunc("POST "+cluster.ExecutePath, s.handleExecute)
			mux.HandleFunc("POST "+cluster.DrainPath, s.handleDrain)
		}
	}
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// TenantHeader is the request header naming the submitting tenant for /v1
// submissions. A `tenant` body field overrides it; requests carrying
// neither run as the default tenant.
const TenantHeader = "X-Rescq-Tenant"

// resolveTenant derives a submission's tenant identity: body field over
// header over the default tenant. An identity that names a tenant must be
// a valid tenant name (400 otherwise).
func resolveTenant(r *http.Request, bodyTenant string) (string, error) {
	tn := bodyTenant
	if tn == "" {
		tn = r.Header.Get(TenantHeader)
	}
	if tn == "" {
		return schedq.DefaultTenant, nil
	}
	if err := schedq.ValidTenant(tn); err != nil {
		return "", err
	}
	return tn, nil
}

// submitStatus maps a submission error to its HTTP status.
func submitStatus(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeSubmitError renders a failed submission. Admission-control sheds
// become 429 with a Retry-After hint; queue-full and draining stay 503.
func writeSubmitError(w http.ResponseWriter, err error) {
	var ov *OverloadError
	if errors.As(err, &ov) {
		secs := int(ov.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	}
	writeError(w, submitStatus(err), err)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := s.validateRun(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tenant, err := resolveTenant(r, req.Tenant)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := s.newJob("run", tenant, []runSpec{spec})
	if err := s.submit(j); err != nil {
		writeSubmitError(w, err)
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, s.jobView(j, false))
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
		// The client went away; nobody will read the result, so stop the
		// job — the cancellation reaches the engine's cycle loop.
		j.Cancel()
		return
	}
	_, _, _, results, jerr := j.snapshot()
	resp := RunResponse{JobID: j.ID, State: j.State()}
	if len(results) == 1 {
		res := results[0]
		resp.Cached = res.Cached
		resp.Summary = res.Summary
		resp.Report = res.Report
		resp.Error = res.Error
	} else if jerr != nil {
		resp.Error = jerr.Error()
	}
	status := http.StatusOK
	if resp.State == JobFailed {
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	specs, err := s.expandSweep(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tenant, err := resolveTenant(r, req.Tenant)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := s.newJob("sweep", tenant, specs)
	if err := s.submit(j); err != nil {
		writeSubmitError(w, err)
		return
	}
	switch {
	case req.Async:
		writeJSON(w, http.StatusAccepted, s.jobView(j, false))
	case req.Stream == StreamSSE:
		s.streamSSE(w, r, j)
	case req.Stream == StreamNDJSON:
		s.streamNDJSON(w, r, j)
	default:
		// Plain synchronous sweep: wait and return the whole job.
		select {
		case <-j.Done():
			writeJSON(w, http.StatusOK, s.jobView(j, true))
		case <-r.Context().Done():
			j.Cancel()
		}
	}
}

// streamSSE publishes one Server-Sent Event per completed configuration,
// then a terminal "done" event with the job view (results elided — the
// client already streamed them).
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("service: streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Job-ID", j.ID)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	emit := func(event string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		return err // non-nil: the client went away mid-write
	}
	s.streamEvents(r, j, flusher,
		func(res ConfigResult) error { return emit("config", res) },
		func() { emit("done", s.jobView(j, false)) })
}

// streamNDJSON publishes one JSON line per completed configuration, then a
// terminal line holding the job view.
func (s *Server) streamNDJSON(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("service: streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Job-ID", j.ID)
	w.WriteHeader(http.StatusOK)
	flusher.Flush() // headers reach the client before the first configuration lands
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	s.streamEvents(r, j, flusher,
		func(res ConfigResult) error { return enc.Encode(res) }, // non-nil: the client went away mid-write
		func() { enc.Encode(s.jobView(j, false)) })
}

// streamEvents drives a streaming response: per-configuration callbacks in
// index order, read straight from the job's results as they are
// delivered, then the terminal callback. Each wake-up writes every result
// delivered since the last one and then flushes once, so a stream that has
// caught up sends at once and a burst of cached results costs one flush.
// A client disconnect — whether surfaced by the request context or by a
// failed write — cancels the job and ends the stream, so neither this
// goroutine nor the job keeps burning engine time for a reader that is
// gone.
func (s *Server) streamEvents(r *http.Request, j *Job, flusher http.Flusher, onConfig func(ConfigResult) error, onDone func()) {
	sent := 0
	for {
		finished := false
		select {
		case <-j.delivered:
		case <-j.doneCh:
			finished = true // every result is in place before doneCh closes
		case <-r.Context().Done():
			// The sequencer's wake-ups never block, so abandoning the
			// stream cannot stall it; stop the job and return now rather
			// than pinning this goroutine until a (possibly still queued)
			// job reaches its cancellation boundary.
			j.Cancel()
			return
		}
		j.mu.Lock()
		fresh := j.results[sent:] // append-only: the elements stay put
		j.mu.Unlock()
		for _, res := range fresh {
			if err := onConfig(res); err != nil {
				// The write failed: the connection is dead even if the
				// request context has not fired yet. Stop the job rather
				// than streaming the rest of the sweep to nobody.
				j.Cancel()
				return
			}
		}
		sent += len(fresh)
		if finished {
			onDone()
			flusher.Flush()
			return
		}
		if len(fresh) > 0 {
			flusher.Flush()
		}
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	tenant := r.URL.Query().Get("tenant")
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		if tenant != "" && j.Tenant != tenant {
			continue
		}
		views = append(views, s.jobView(j, false))
	}
	// Sort by the numeric job counter, not the id string: the registry
	// (and the WAL-replayed history inside it) iterates in map order, and
	// plain string order misorders ids once the counter outgrows its zero
	// padding — either way restart listings would not be deterministic.
	sort.Slice(views, func(a, b int) bool { return store.JobIDLess(views[a].ID, views[b].ID) })
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(j, true))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", r.PathValue("id")))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, s.jobView(j, false))
}

// handleResumeJob continues a finished-but-incomplete job (cancelled,
// failed, or interrupted by a crash and replayed from the WAL) as a fresh
// job: the completed prefix of results is inherited verbatim and execution
// picks up at the first unfinished configuration. Responds 202 with the
// new job's view; 409 when the job is still queued/running or already
// complete.
func (s *Server) handleResumeJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", r.PathValue("id")))
		return
	}
	state, _, _, results, _ := j.snapshot()
	if err := resumable(state, len(results), j.total); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	// Claim the resume slot under the job lock: concurrent resumes of one
	// job must not both enqueue the remaining work. Terminal states never
	// regress, so the resumable check above stays valid once claimed.
	j.mu.Lock()
	if prev := j.resumedTo; prev != "" {
		j.mu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Errorf("service: job already resumed as %s", prev))
		return
	}
	j.resumedTo = "(resuming)"
	j.mu.Unlock()
	nj := s.resumeJob(j)
	if err := s.submit(nj); err != nil {
		j.mu.Lock()
		j.resumedTo = "" // release the claim; the resume never started
		j.mu.Unlock()
		writeSubmitError(w, err)
		return
	}
	j.mu.Lock()
	j.resumedTo = nj.ID
	j.mu.Unlock()
	writeJSON(w, http.StatusAccepted, s.jobView(nj, false))
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rescq.Benchmarks())
}

// Capabilities is the GET /v1/capabilities payload: every valid value of
// every sweepable axis, read from the benchmark suite and the scheduler
// and layout catalogs, so sweep clients can discover the space instead of
// guessing.
type Capabilities struct {
	Benchmarks  []rescq.BenchmarkInfo `json:"benchmarks"`
	Schedulers  []string              `json:"schedulers"`
	Layouts     []rescq.LayoutInfo    `json:"layouts"`
	Experiments []string              `json:"experiments"`
	// DefaultLayout is the daemon's configured default for requests that
	// do not name a layout ("star" unless overridden).
	DefaultLayout string `json:"default_layout"`
	// Analytics lists the mounted sweep-analytics endpoints.
	Analytics []string `json:"analytics"`
}

func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	def := s.cfg.Layout
	if def == "" {
		def = rescq.DefaultLayout
	}
	caps := Capabilities{
		Benchmarks:    rescq.Benchmarks(),
		Schedulers:    rescq.Schedulers(),
		Layouts:       rescq.LayoutCatalog(),
		Experiments:   append([]string(nil), rescq.ExperimentIDs...),
		DefaultLayout: def,
		Analytics:     analyticsEndpoints(),
	}
	writeJSON(w, http.StatusOK, caps)
}

// healthBody is the /healthz readiness verdict: whether this daemon takes
// work, whether its WAL takes writes, whether faults are armed, and the
// cluster membership a coordinator dispatches over. Counters and sizes are
// rendered on /metrics only; each verdict here reads the same accessor as
// its /metrics twin and is present exactly when that twin is.
type healthBody struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// Durable (present only when a store is attached) is false while the
	// daemon serves in lossy mode: a WAL write failed and the probe has not
	// yet re-attached the disk. It mirrors rescqd_store_durable.
	Durable *bool `json:"durable,omitempty"`
	// Failpoints is the active fault schedule — present only while one is
	// armed, so a chaos run is always distinguishable from production.
	Failpoints string         `json:"failpoints,omitempty"`
	Cluster    *clusterHealth `json:"cluster,omitempty"`
}

// clusterHealth is the /healthz scale-out section (present only in
// coordinator or worker mode).
type clusterHealth struct {
	Mode string `json:"mode"`
	// LiveWorkers is never omitted: zero is exactly the value a monitor
	// alerts on (a coordinator whose workers all died). It mirrors
	// rescqd_cluster_workers.
	LiveWorkers int                  `json:"live_workers"`
	Workers     []cluster.WorkerInfo `json:"workers,omitempty"`
	// WorkerDraining (worker mode only) reports the retirement latch; it
	// mirrors rescqd_worker_draining.
	WorkerDraining *bool `json:"worker_draining,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthBody{Status: "ok", Draining: s.Draining(), Failpoints: fault.Active()}
	if _, ok := s.StoreStats(); ok {
		durable := !s.Lossy()
		body.Durable = &durable
	}
	if s.clust != nil {
		ch := &clusterHealth{Mode: s.clust.cfg.Mode}
		if ws, ok := s.ClusterWorkers(); ok {
			ch.Workers, ch.LiveWorkers = ws, len(ws)
		}
		if ch.Mode == config.ModeWorker {
			draining := s.WorkerDraining()
			ch.WorkerDraining = &draining
		}
		body.Cluster = ch
	}
	status := http.StatusOK
	if body.Draining {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var p metrics.PromWriter
	s.stats.WriteProm(&p)
	p.Gauge("rescqd_cache_entries", "Result-cache entries resident.", int64(s.cache.len()))
	p.Gauge("rescqd_cache_capacity", "Result-cache entry budget.", int64(s.cache.capacity()))
	p.Gauge("rescqd_queue_pending", "Jobs waiting in the queue.", int64(s.sched.Len()))
	p.Gauge("rescqd_queue_capacity", "Admission bound on pending configurations (0: unbounded).", max(int64(s.cfg.MaxQueueDepth), 0))
	p.Gauge("rescqd_engine_slots", "Engine slots executing configurations.", int64(s.workers))
	p.Gauge("rescqd_pending_configs", "Run configurations admitted but not yet finished (admission-control backlog).", s.pending.Load())
	if snaps := s.sched.Snapshot(); len(snaps) > 0 {
		p.Header("rescqd_tenant_queued_jobs", "gauge", "Jobs waiting in the scheduler, by tenant.")
		for _, ts := range snaps {
			p.Int("rescqd_tenant_queued_jobs", int64(ts.QueuedJobs), "tenant", ts.Tenant)
		}
		p.Header("rescqd_tenant_open_jobs", "gauge", "Queued plus running jobs, by tenant.")
		for _, ts := range snaps {
			p.Int("rescqd_tenant_open_jobs", int64(ts.OpenJobs), "tenant", ts.Tenant)
		}
		p.Header("rescqd_tenant_backlog_configs", "gauge", "Admitted-but-unfinished configurations, by tenant.")
		for _, ts := range snaps {
			p.Int("rescqd_tenant_backlog_configs", ts.Backlog, "tenant", ts.Tenant)
		}
		p.Header("rescqd_tenant_weight", "gauge", "WFQ weight, by tenant.")
		for _, ts := range snaps {
			p.Int("rescqd_tenant_weight", int64(ts.Weight), "tenant", ts.Tenant)
		}
		p.Header("rescqd_tenant_virtual_time", "gauge", "WFQ virtual clock (configurations / weight), by tenant.")
		for _, ts := range snaps {
			p.Float("rescqd_tenant_virtual_time", ts.VirtualTime, "tenant", ts.Tenant)
		}
	}
	if st, ok := s.StoreStats(); ok {
		p.Gauge("rescqd_store_jobs", "Jobs in the durable store index.", int64(st.Jobs))
		p.Gauge("rescqd_store_records", "Records in the WAL file.", int64(st.Records))
		p.Gauge("rescqd_store_bytes", "WAL file size in bytes.", st.Bytes)
		p.Counter("rescqd_store_compactions_total", "WAL compactions performed.", st.Compactions)
		p.Header("rescqd_store_compaction_seconds_total", "counter", "Time spent in WAL compactions, which stall appends while they run.")
		p.Float("rescqd_store_compaction_seconds_total", st.CompactionSeconds)
		p.Counter("rescqd_store_appends_total", "WAL records appended.", st.AppendsBinary)
		p.Counter("rescqd_store_append_bytes_total", "WAL bytes appended.", st.AppendBytesBinary)
		p.Gauge("rescqd_store_durable", "Whether the WAL is taking writes (0 while serving in lossy mode).", boolGauge(!s.Lossy()))
		p.Gauge("rescqd_replay_dropped", "Interrupted jobs left resumable on disk after a failed re-enqueue at startup.", int64(s.ReplayInfo().Dropped))
	}
	as := s.an.Stats()
	p.Gauge("rescqd_analytics_groups", "Materialized analytics aggregate cells (distinct axis tuples).", int64(as.Groups))
	p.Gauge("rescqd_analytics_group_cap", "Configured aggregate-cell cardinality cap.", int64(as.GroupCap))
	p.Gauge("rescqd_analytics_benchmarks", "Benchmarks with at least one analytics cell.", int64(as.Benchmarks))
	p.Counter("rescqd_analytics_results_ingested_total", "Results folded into analytics aggregates.", as.Ingested)
	p.Counter("rescqd_analytics_results_skipped_total", "Results that advanced a watermark with nothing to aggregate (errors, reports).", as.Skipped)
	p.Counter("rescqd_analytics_results_deduped_total", "Replayed results rejected by a job watermark.", as.Deduped)
	p.Counter("rescqd_analytics_results_dropped_total", "Results beyond the cardinality cap, counted but not aggregated.", as.Dropped)
	p.Counter("rescqd_analytics_queries_total", "Analytics queries served.", as.Queries)
	p.Counter("rescqd_analytics_snapshots_total", "Analytics snapshots written to the WAL.", as.Snapshots)
	p.Gauge("rescqd_analytics_ingest_lag", "Results folded since the last durable analytics snapshot (replay cost of a crash now).", as.IngestLag)
	if ws, ok := s.ClusterWorkers(); ok {
		p.Gauge("rescqd_cluster_workers", "Live workers registered with the coordinator.", int64(len(ws)))
		p.Header("rescqd_cluster_worker_inflight", "gauge", "Batches in flight per worker.")
		for _, wi := range ws {
			p.Int("rescqd_cluster_worker_inflight", int64(wi.Inflight), "worker", wi.ID)
		}
		p.Header("rescqd_cluster_worker_capacity", "gauge", "Batch capacity per worker.")
		for _, wi := range ws {
			p.Int("rescqd_cluster_worker_capacity", int64(wi.Capacity), "worker", wi.ID)
		}
		backlogMS, slots, perSlot := s.scaleSignal()
		p.Gauge("rescqd_cluster_backlog_ms", "Admitted backlog in estimated milliseconds of work (pending configs x p50).", backlogMS)
		p.Gauge("rescqd_cluster_capacity_slots", "Live non-draining dispatch slots across the cluster.", slots)
		p.Header("rescqd_cluster_scale_signal", "gauge", "Backlog-ms per live capacity slot; compare against batch_target_ms to scale.")
		p.Float("rescqd_cluster_scale_signal", perSlot)
	}
	if s.clust != nil && s.clust.cfg.Mode == config.ModeWorker {
		p.Gauge("rescqd_worker_draining", "Whether this worker is retiring (fenced from new batches).", boolGauge(s.WorkerDraining()))
	}
	p.Gauge("rescqd_uptime_seconds", "Daemon uptime.", int64(time.Since(s.startTime).Round(time.Second)/time.Second))
	gc := [...]rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/goal:bytes"}}
	rtmetrics.Read(gc[:])
	if gc[0].Value.Kind() == rtmetrics.KindFloat64 && gc[1].Value.Kind() == rtmetrics.KindUint64 {
		p.Header("rescqd_go_gc_cpu_seconds_total", "counter", "Estimated CPU time the Go runtime spent on garbage collection.")
		p.Float("rescqd_go_gc_cpu_seconds_total", gc[0].Value.Float64())
		p.Gauge("rescqd_go_gc_heap_goal_bytes", "Heap size at which the Go runtime starts its next garbage collection.", int64(gc[1].Value.Uint64()))
	}
	w.Write(p.Bytes())
}

// boolGauge renders a flag as a 0/1 gauge value.
func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// maxRequestBody bounds a submission body. The largest legitimate payloads
// are circuit texts, which top out well under a megabyte for the Table 3
// suite; 8 MiB leaves room for bigger hand-written circuits while keeping
// one hostile request from buffering unbounded JSON into memory.
const maxRequestBody = 8 << 20

// decodeBody parses a JSON request body strictly (size-capped, unknown
// fields rejected).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}
