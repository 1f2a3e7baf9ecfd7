package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/resultcodec"
)

// This file wires the horizontal scale-out layer (internal/cluster) into
// the server. On a coordinator, leased worker slots are runJob's slot
// source (pipeline.go): batches go over HTTP to the least-loaded worker,
// and dead or failing workers' batches are retried, hedged or run locally,
// all delivered in index order. In worker mode the daemon serves POST
// /internal/v1/execute and keeps itself registered via heartbeats.

// clusterState holds a clustered server's scale-out machinery; nil on a
// standalone server.
type clusterState struct {
	cfg      config.Cluster
	registry *cluster.Registry // coordinator only
	client   *cluster.Client   // coordinator only
}

// newClusterState builds the mode-appropriate cluster machinery. Timings
// left zero (hand-built test configs) take their WithDefaults values.
func newClusterState(cfg config.Cluster) *clusterState {
	if !cfg.Clustered() {
		return nil
	}
	cfg = cfg.WithDefaults()
	cs := &clusterState{cfg: cfg}
	if cfg.Mode == config.ModeCoordinator {
		cs.registry = cluster.NewRegistry()
		cs.client = cluster.NewTunedClient()
	}
	return cs
}

// ClusterWorkers returns the coordinator's current worker view (empty
// snapshot and false on non-coordinators), for /healthz, /metrics and
// tests.
func (s *Server) ClusterWorkers() ([]cluster.WorkerInfo, bool) {
	if s.clust == nil || s.clust.registry == nil {
		return nil, false
	}
	return s.clust.registry.Snapshot(), true
}

// expirySweeper evicts workers that missed their liveness window. It runs
// on the coordinator at the heartbeat cadence until baseCtx ends.
func (s *Server) expirySweeper() {
	t := time.NewTicker(s.clust.cfg.HeartbeatInterval())
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			expired := s.clust.registry.ExpireDead(s.clust.cfg.LivenessExpiry())
			s.stats.WorkerExpiries.Add(int64(len(expired)))
		}
	}
}

// handleRegister is the coordinator's membership endpoint: a worker's
// first POST registers it, every subsequent POST is a heartbeat renewing
// its liveness lease.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req cluster.RegisterRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, errors.New("service: register needs id and url"))
		return
	}
	st := s.clust.registry.Upsert(req)
	s.stats.HeartbeatsReceived.Add(1)
	if st.Drained {
		s.stats.WorkersDrained.Add(1)
	}
	writeJSON(w, http.StatusOK, cluster.RegisterResponse{
		ExpiresInMS: s.clust.cfg.LivenessExpiry().Milliseconds(),
		Workers:     s.clust.registry.Len(),
		Released:    st.Released,
	})
}

// handleDrain is the worker's retirement endpoint: an autoscaler (or
// operator) POSTs to it and from then on the worker rejects new batches
// with 503 (the coordinator re-dispatches them elsewhere), announces the
// drain on every heartbeat, and exits its heartbeat loop once the
// coordinator confirms its last in-flight batch finished and releases it.
// Idempotent: draining a draining worker re-acknowledges.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.workerDraining.Store(true)
	writeJSON(w, http.StatusOK, cluster.DrainResponse{
		Draining: true,
		Inflight: int(s.execInflight.Load()),
	})
}

// WorkerDraining reports whether this worker has been asked to retire
// (POST /internal/v1/drain). It is what the heartbeater samples to
// announce the drain to the coordinator.
func (s *Server) WorkerDraining() bool { return s.workerDraining.Load() }

// scaleSignal is the autoscaler-facing pressure estimate: the admitted
// backlog in estimated milliseconds of work (pending configurations × the
// observed per-configuration p50, floored at 1ms so a cold histogram still
// reflects queue depth) and the live, non-draining capacity slots it
// spreads over. perSlotMS is the headline gauge: ≫ batch_target_ms means
// add workers; ≈ 0 with idle slots means it is safe to drain some.
func (s *Server) scaleSignal() (backlogMS, slots int64, perSlotMS float64) {
	_, p50, _ := s.stats.ConfigLatency()
	backlogMS = int64(time.Duration(s.pending.Load()) * max(p50, time.Millisecond) / time.Millisecond)
	if s.clust != nil && s.clust.registry != nil {
		n, _ := s.clust.registry.Capacity()
		slots = int64(n)
	}
	return backlogMS, slots, float64(backlogMS) / float64(max(slots, 1))
}

// handleExecute is the worker's dispatch endpoint: it decodes a batch of
// run specifications (strictly — this is the worker's trust boundary),
// executes them in order on the request goroutine, and returns one result
// per configuration. Batch concurrency is the coordinator's job (one
// in-flight batch per acquired worker slot); within a batch,
// configurations run sequentially.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	// Chaos hook: an injected delay stalls this worker like an overloaded
	// node (exercising the coordinator's deadline and hedging paths); an
	// injected error becomes the 500 a crashing worker would produce.
	if err := fault.Check(cluster.FaultExecute); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// A draining worker takes no new batches; 503 is retryable, so the
	// coordinator re-dispatches elsewhere. In-flight batches (already past
	// this gate) run to completion — that is the point of draining.
	if s.workerDraining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("service: worker draining"))
		return
	}
	s.execInflight.Add(1)
	defer s.execInflight.Add(-1)
	req, err := cluster.DecodeExecuteRequestAuto(
		http.MaxBytesReader(w, r.Body, cluster.MaxExecuteBody),
		r.Header.Get("Content-Type"), r.Header.Get("Content-Encoding"))
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, cluster.ErrUnsupportedMediaType) {
			code = http.StatusUnsupportedMediaType
		}
		writeError(w, code, err)
		return
	}
	specs := make([]runSpec, len(req.Configs))
	for i, c := range req.Configs {
		if err := json.Unmarshal(c.Spec, &specs[i]); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad spec %d: %w", i, err))
			return
		}
	}
	resp := cluster.ExecuteResponse{Results: make([]json.RawMessage, 0, len(specs))}
	for i, spec := range specs {
		if r.Context().Err() != nil {
			// The coordinator hung up (job cancelled, or it re-dispatched
			// after deciding this worker is dead); stop burning engine time.
			// Say so explicitly: a bare return here wrote an empty 200, which
			// a coordinator still listening (a proxy hiccup cancelled us, not
			// the dispatcher) would misread as a zero-result success.
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("service: batch abandoned %d/%d: %w", i, len(specs), r.Context().Err()))
			return
		}
		res := s.runOne(r.Context(), spec)
		res.Index = req.Configs[i].Index
		data, err := resultcodec.Append(nil, &res)
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("service: encode result %d: %w", i, err))
			return
		}
		resp.Results = append(resp.Results, data)
	}
	w.Header().Set("Content-Type", cluster.BinaryContentType)
	w.Write(cluster.EncodeExecuteResponseBinary(resp))
}

// Deadline and hedge derivation. Both are multiples of the observed
// per-configuration p99 scaled by batch size, and neither engages until
// the histogram holds minLatencySamples — a deadline guessed from a few
// cold-start samples would misclassify healthy workers as stragglers.
const (
	minLatencySamples = 16
	deadlineSlack     = 8                      // deadline = slack × batch × p99
	hedgeSlack        = 3                      // hedge fires earlier than the deadline
	minBatchDeadline  = 2 * time.Second        // floor: fast engines make p99 tiny
	minHedgeDelay     = 500 * time.Millisecond // floor, for the same reason
	// maxBatch is the hard cap on configurations per dispatch batch,
	// whatever the adaptive sizer asks for; it stays far below the
	// worker's decode limit (cluster.MaxBatchConfigs).
	maxBatch = 8
)

// batchDeadline is the per-batch execution bound: a worker that blows it is
// treated like a failed dispatch (its breaker takes the blame, the batch is
// retried elsewhere). Zero means no deadline yet.
func (s *Server) batchDeadline(batchLen int) time.Duration {
	n, _, p99 := s.stats.ConfigLatency()
	if n < minLatencySamples {
		return 0
	}
	return max(time.Duration(deadlineSlack*batchLen)*p99, minBatchDeadline)
}

// hedgeDelay is how long a batch may run before the coordinator races a
// duplicate on a second worker. Zero means hedging is off.
func (s *Server) hedgeDelay(batchLen int) time.Duration {
	n, _, p99 := s.stats.ConfigLatency()
	if n < minLatencySamples {
		return 0
	}
	return max(time.Duration(hedgeSlack*batchLen)*p99, minHedgeDelay)
}

// batchSizer picks adaptive batch lengths for the pull loop. Three regimes:
// while the latency histogram is cold it ramps 1, 2, 4, ... so the first
// batches return quickly and feed it samples; warm, it packs the configured
// batch target of estimated work (target / p50) per batch; and near the end
// of a job the tail-split rule spreads the remaining backlog across every
// free slot instead of letting the last big batch ride one straggler.
// maxBatch stays the hard cap throughout. Not safe for concurrent use —
// only the job's single dispatch loop calls next.
type batchSizer struct {
	s      *Server
	target time.Duration // cfg.BatchTarget()
	ramp   int           // next cold-histogram batch length
}

func newBatchSizer(s *Server) *batchSizer {
	return &batchSizer{s: s, target: s.clust.cfg.BatchTarget(), ramp: 1}
}

// next returns the length of the next batch given the current backlog and
// the number of dispatch slots that could take work right now (including
// the one the caller already holds).
func (z *batchSizer) next(backlog, freeSlots int) int {
	n := z.steady()
	if freeSlots > 1 {
		// Tail split: when the backlog divides across the idle slots into
		// smaller batches than the steady-state size, prefer the split —
		// finishing the tail in parallel beats amortizing overhead.
		n = min(n, (backlog+freeSlots-1)/freeSlots)
	}
	return max(1, min(n, maxBatch))
}

func (z *batchSizer) steady() int {
	n, p50, _ := z.s.stats.ConfigLatency()
	if n < minLatencySamples {
		b := z.ramp
		z.ramp = min(z.ramp*2, maxBatch)
		return b
	}
	// A quantile is its bucket's upper edge, so p50 > 0 here; sub-millisecond
	// configurations size far past the cap, which next clamps.
	return int(z.target / p50)
}

// buildExecuteRequest assembles one batch's wire form. A hedge reuses its
// primary's request; only a re-dispatch encodes the specs again.
func buildExecuteRequest(j *Job, bi int, idxs []int) (cluster.ExecuteRequest, error) {
	req := cluster.ExecuteRequest{JobID: j.ID, Batch: bi, Configs: make([]cluster.ExecuteConfig, len(idxs))}
	for k, idx := range idxs {
		data, err := json.Marshal(j.specs[idx])
		if err != nil {
			return req, fmt.Errorf("service: encode config %d: %w", idx, err)
		}
		req.Configs[k] = cluster.ExecuteConfig{Index: idx, Spec: data}
	}
	return req, nil
}

// Retry policy: up to dispatchRetries re-dispatches per batch, each after
// a jittered exponential backoff from dispatchBackoff, capped at 20× it.
const (
	dispatchRetries = 4
	dispatchBackoff = 100 * time.Millisecond
)

// dispatch drives one claimed batch on the worker slot the dispatch loop
// leased for it: POST it (racing a hedge if it straggles), then fill the
// cache and deliver. Retryable failures (transport errors, 5xx, blown
// deadlines) charge the worker's breaker and re-dispatch with backoff, up
// to the retry budget; a worker 4xx (the batch is poison), an exhausted
// budget or no live worker hands the batch to the job's local slots.
// Flights land with their results, or on the way out.
func (r *jobRun) dispatch(bi int, idxs []int, lease cluster.Lease) {
	s, j, ctx := r.s, r.j, r.j.ctx
	held := true // the lease is ours to release
	release := func() {
		if held {
			lease.Release()
			held = false
		}
	}
	local := func() {
		release()
		r.runOnPool(idxs) // takes over the batch's flights
		idxs = nil
	}
	defer func() {
		release()
		r.leaveFlights(idxs)
	}()
	backoff := cluster.Backoff{Base: dispatchBackoff, Max: 20 * dispatchBackoff}
	for attempt := 0; ctx.Err() == nil; attempt++ {
		req, err := buildExecuteRequest(j, bi, idxs)
		if err != nil || attempt > dispatchRetries {
			local()
			return
		}
		if attempt > 0 {
			s.stats.DispatchRetries.Add(1)
			if !backoff.Sleep(ctx, attempt-1) {
				return // job cancelled mid-backoff
			}
			var remote bool
			if lease, remote, err = s.acquireRemote(ctx); err != nil {
				return // job cancelled while waiting for a slot
			}
			if !remote {
				local()
				return
			}
		}
		held = false // raceBatch releases every lease it launches
		start := time.Now()
		results, err := s.raceBatch(ctx, lease, req)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if !cluster.RetryableDispatch(err) {
				// The worker inspected the batch and rejected it (4xx):
				// every other worker would too. Only the local pool — which
				// needs no wire decode — can make progress on it.
				local()
				return
			}
			s.stats.BatchesRedispatched.Add(1)
			continue
		}
		// Feed the deadline/hedge estimator: a batch round-trip amortized
		// over its configurations approximates per-config latency.
		perConfig := time.Since(start) / time.Duration(len(idxs))
		for k, idx := range idxs {
			s.stats.ObserveConfigLatency(perConfig)
			s.cacheFill(j.specs[idx].key, j.specs[idx].KeepLatencies, results[k])
			s.cache.leave(j.specs[idx].key)
			s.stats.RemoteConfigs.Add(1)
			r.deliver(idx, results[k])
		}
		idxs = nil
		return
	}
}

// raceBatch runs one batch on the acquired lease, hedging a duplicate onto
// a second worker if the primary straggles past the hedge delay. The first
// successful response wins; the loser's call is cancelled (and not blamed
// on its worker). A batch deadline, when enough latency samples exist,
// bounds the whole race — a worker that blows it is charged a failure.
func (s *Server) raceBatch(ctx context.Context, primary cluster.Lease, req cluster.ExecuteRequest) ([]ConfigResult, error) {
	var callCtx context.Context
	var cancel context.CancelFunc
	if d := s.batchDeadline(len(req.Configs)); d > 0 {
		callCtx, cancel = context.WithTimeout(ctx, d)
	} else {
		callCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	type outcome struct {
		results []ConfigResult
		err     error
	}
	outcomes := make(chan outcome, 2) // buffered: the losing attempt must not leak its goroutine
	var won atomic.Bool
	launch := func(l cluster.Lease) {
		go func() {
			results, err := s.executeOnWorker(callCtx, l, req)
			switch {
			case err == nil:
				l.ReportSuccess()
			case !won.Load() && ctx.Err() == nil && cluster.RetryableDispatch(err):
				// An organic failure or a blown deadline — not fallout from
				// losing the race or from job cancellation.
				if l.ReportFailure() {
					s.stats.BreakerOpens.Add(1)
				}
			}
			l.Release()
			outcomes <- outcome{results, err}
		}()
	}
	launch(primary)

	var hedgeC <-chan time.Time
	if d := s.hedgeDelay(len(req.Configs)); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	inflight := 1
	var firstErr error
	for inflight > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			// The primary is straggling. Race a duplicate on a different
			// worker if one is free right now — never block for one, and
			// never double down on the straggler itself. The sequencer's
			// first-result-wins dedup makes the duplicate harmless.
			if l, ok := s.clust.registry.TryAcquire(primary.ID); ok {
				s.stats.BatchesHedged.Add(1)
				inflight++
				launch(l)
			}
		case o := <-outcomes:
			inflight--
			if o.err == nil {
				won.Store(true)
				return o.results, nil
			}
			// A terminal (4xx) verdict outranks retryable errors: it tells
			// the caller re-dispatch is pointless.
			if firstErr == nil || !cluster.RetryableDispatch(o.err) {
				firstErr = o.err
			}
		}
	}
	return nil, firstErr
}

// executeOnWorker POSTs one batch to the lease's worker and decodes one
// result per configuration, aborting the call the moment the worker is
// removed from the registry (liveness expiry fires while the socket is
// still nominally open) so the batch can be re-dispatched without waiting
// on a dead peer. A response that does not decode is a retryable failure,
// charged to the worker's breaker like a transport error.
func (s *Server) executeOnWorker(ctx context.Context, lease cluster.Lease, req cluster.ExecuteRequest) ([]ConfigResult, error) {
	callCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-lease.Gone:
			cancel()
		case <-done:
		}
	}()
	s.stats.BatchesDispatched.Add(1)
	resp, traffic, err := s.clust.client.Execute(callCtx, lease.URL, req)
	if traffic.BytesOut > 0 {
		s.stats.WireBinaryBatches.Add(1)
		s.stats.WireBinaryBytesOut.Add(traffic.BytesOut)
		s.stats.WireBinaryBytesIn.Add(traffic.BytesIn)
	}
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(req.Configs) {
		return nil, fmt.Errorf("service: worker %s returned %d results for %d configurations", lease.ID, len(resp.Results), len(req.Configs))
	}
	results := make([]ConfigResult, len(resp.Results))
	for k, raw := range resp.Results {
		if err := resultcodec.Decode(raw, &results[k]); err != nil {
			return nil, fmt.Errorf("service: worker %s result %d: %w", lease.ID, k, err)
		}
	}
	return results, nil
}
