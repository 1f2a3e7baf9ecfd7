package service

import (
	"net/http"
	"net/url"
	"strings"

	"repro/internal/analytics"
	"repro/internal/lattice"
	"repro/internal/schedq"
)

// This file wires the analytics aggregate store (internal/analytics) into
// the server: every result the WAL sees is folded into the store at
// persist time, the aggregate state is snapshotted into the WAL as a
// state record on a result cadence (and at close), and boot restores the
// snapshot before replaying the WAL suffix — so a kill-restarted daemon
// answers analytics queries byte-identically to one that never died.

// analyticsStateName is the WAL state record carrying the aggregate
// snapshot (see store.PutState).
const analyticsStateName = "analytics"

// analyticsSnapEvery is the snapshot cadence in folded results: the upper
// bound on how many WAL results a restart has to re-fold into the
// restored snapshot before serving.
const analyticsSnapEvery = 1024

// analyticsSample converts one persisted result into its analytics
// sample. Error results, experiment reports and undecodable summaries
// yield nil — the result still advances the job's replay watermark (it
// occupies a result index in the WAL) without aggregating anything.
func analyticsSample(tenant string, res ConfigResult) *analytics.Sample {
	if res.Error != "" || res.Summary == nil || res.Options == nil {
		return nil
	}
	opts := res.Options // canonical: fillResult stores spec.Opts.Canonical()
	sm := &analytics.Sample{
		Axes: analytics.Axes{
			Tenant:      tenant,
			Benchmark:   res.Benchmark,
			Scheduler:   res.Scheduler,
			Layout:      res.Layout,
			Distance:    opts.Distance,
			PhysError:   opts.PhysError,
			K:           opts.K,
			TauMST:      opts.TauMST,
			Compression: opts.Compression,
			Runs:        opts.Runs,
			Seed:        opts.Seed,
		},
		Params: lattice.Params(opts.LayoutParams),
		Cycles: make([]int, 0, len(res.Summary.Runs)),
	}
	for i := range res.Summary.Runs {
		sm.Cycles = append(sm.Cycles, res.Summary.Runs[i].TotalCycles)
	}
	return sm
}

// analyticsFold folds one result into the aggregate store (no flush).
// Reports whether the result was actually aggregated — false for
// watermark rejects and sample-less results.
func (s *Server) analyticsFold(jobID, tenant string, res ConfigResult) bool {
	if tenant == "" {
		// WAL job records persist the default tenant as "" (byte-compat
		// with pre-tenancy logs); analytics always uses the real name.
		tenant = schedq.DefaultTenant
	}
	return s.an.Ingest(jobID, res.Index, analyticsSample(tenant, res))
}

// analyticsIngest is the live persist-path hook: fold the result and
// take a durable snapshot every analyticsSnapEvery folded results. The
// flush only ever triggers on a genuinely folded result, so replayed
// duplicates (a /resume re-checkpoint under the server lock) can never
// start a compaction from a call site that must not block.
func (s *Server) analyticsIngest(jobID, tenant string, res ConfigResult) {
	if !s.analyticsFold(jobID, tenant, res) {
		return
	}
	if s.store != nil && s.an.SinceSnapshot() >= analyticsSnapEvery {
		s.flushAnalytics()
	}
}

// flushAnalytics snapshots the aggregate store into the WAL's analytics
// state record. No-op when the store is absent, when nothing was folded
// since the last snapshot (idle daemons keep their WAL byte-stable), or
// while serving lossy.
func (s *Server) flushAnalytics() {
	if s.store == nil || s.an.SinceSnapshot() == 0 || s.skipPersist() {
		return
	}
	// Lock order: analytics.mu (Snapshot) then store.mu (HasJob, per
	// job id); the store never calls back into analytics.
	if err := s.store.PutState(analyticsStateName, s.an.Snapshot(s.store.HasJob)); err != nil {
		s.persistFailed()
	}
}

// analyticsForget drops a finished job's replay watermark on storeless
// daemons (nothing will ever replay it). With a WAL attached the
// watermark must outlive the job — replay resurfaces its records — and
// is pruned at snapshot time once compaction evicts the job.
func (s *Server) analyticsForget(jobID string) {
	if s.store == nil {
		s.an.ForgetJob(jobID)
	}
}

// analyticsEndpoints lists the mounted analytics routes, for
// GET /v1/capabilities.
func analyticsEndpoints() []string {
	return []string{
		"/v1/analytics/groupby",
		"/v1/analytics/pareto",
		"/v1/analytics/sensitivity",
	}
}

// analyticsFilter turns the request's query parameters into an axis
// filter, skipping the endpoint's own reserved parameters. Unknown axis
// names are rejected by the query layer with a listing of valid axes.
func analyticsFilter(q url.Values, reserved ...string) map[string]string {
	var filter map[string]string
Params:
	for name := range q {
		for _, r := range reserved {
			if name == r {
				continue Params
			}
		}
		if filter == nil {
			filter = make(map[string]string)
		}
		filter[name] = q.Get(name)
	}
	return filter
}

// GET /v1/analytics/groupby?by=axis1,axis2&<axis>=<value>...
func (s *Server) handleAnalyticsGroupBy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var by []string
	for _, part := range strings.Split(q.Get("by"), ",") {
		if part = strings.TrimSpace(part); part != "" {
			by = append(by, part)
		}
	}
	resp, err := s.an.GroupBy(by, analyticsFilter(q, "by"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// GET /v1/analytics/pareto?benchmark=name&<axis>=<value>...
func (s *Server) handleAnalyticsPareto(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	resp, err := s.an.Pareto(q.Get("benchmark"), analyticsFilter(q, "benchmark"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// GET /v1/analytics/sensitivity?axis=name&a=value&b=value&<axis>=<value>...
// The swept axis defaults to the scheduler — the paper's headline
// comparison (RESCQ against the static baselines).
func (s *Server) handleAnalyticsSensitivity(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	axis := q.Get("axis")
	if axis == "" {
		axis = "scheduler"
	}
	resp, err := s.an.Sensitivity(axis, q.Get("a"), q.Get("b"), analyticsFilter(q, "axis", "a", "b"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
