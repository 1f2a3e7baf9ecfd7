package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	rescq "repro"
	"repro/internal/resultcodec"
	"repro/internal/schedq"
	"repro/internal/store"
)

// This file wires the durability layer (internal/store) into the server:
// jobs and per-configuration results are checkpointed to an append-only
// WAL as they complete, and on startup the daemon replays the WAL —
// finished jobs become inspectable history, the result cache is re-seeded
// under the same canonical rescq.CacheKeys, and interrupted jobs are
// re-enqueued to resume at their first unfinished configuration.

// cachedSummary is a simulation's cache value: its canonical options and
// summary, immutable once cached and shared by every result the entry
// serves, so a cache hit copies neither. Partial entries had their
// per-gate latency arrays stripped (tens of thousands of ints per run):
// every result the WAL re-seeds, and every result computed for a request
// that did not ask for include_latencies (see cacheFill). A request that
// does ask must treat a partial hit as a miss and recompute, which then
// overwrites the entry with the full value.
type cachedSummary struct {
	opts    *rescq.Options // nil when the filling result carried none
	sum     *rescq.Summary
	partial bool
}

// ReplayStats reports what AttachStore recovered from the WAL.
type ReplayStats struct {
	Jobs       int // jobs reconstructed (history + interrupted)
	Results    int // completed configurations replayed
	Reseeded   int // cache entries re-seeded from replayed results
	Reenqueued int // interrupted jobs put back on the queue
	// Dropped counts interrupted jobs that could not be re-enqueued (the
	// job queue overflowed during replay); they are left failed in the
	// registry rather than silently lost, and stay resumable on disk.
	Dropped int
}

// AttachStore opens the WAL in dir and replays it: terminal jobs are
// registered as inspectable history, completed results re-seed the result
// cache, and interrupted jobs are re-enqueued to resume at the first
// unfinished configuration. Must be called after New and before Start
// (the queue exists but no worker is draining it yet), and at most once.
func (s *Server) AttachStore(dir string) (ReplayStats, error) {
	if s.store != nil {
		return ReplayStats{}, errors.New("service: store already attached")
	}
	st, err := store.Open(dir, store.Options{RetainJobs: maxFinishedJobs})
	if err != nil {
		return ReplayStats{}, err
	}
	s.store = st

	// Seed the analytics aggregates from the last durable snapshot before
	// replaying the log: the watermarks inside the snapshot make the
	// replay loop below re-fold only the WAL suffix the snapshot has not
	// seen. A corrupt snapshot is counted and discarded — the full replay
	// rebuilds the identical state from the records.
	if blob, ok := st.State(analyticsStateName); ok {
		if err := s.an.Restore(blob); err != nil {
			s.stats.StoreErrors.Add(1)
		}
	}

	var rs ReplayStats
	maxID := int64(0)
	for _, rj := range st.Replayed() {
		// Advance past EVERY replayed id — orphans and undecodable jobs
		// included — before any skip below: the store index still holds
		// them, and minting a colliding id would make the store silently
		// drop the new job's records.
		if id := parseJobID(rj.Job.ID); id > maxID {
			maxID = id
		}
		// Re-seed the cache from every persisted result, job or orphan.
		// Each payload is decoded once: the rebuilt job keeps its
		// decodable contiguous prefix, sharing summaries with the cache.
		// Payloads are typed, or JSON in logs written before the typed
		// encoding (and by callers that still append JSON).
		var prefix []ConfigResult
		for i, rr := range rj.Results {
			var res ConfigResult
			if err := resultcodec.Decode(rr.Result, &res); err != nil {
				continue
			}
			if len(prefix) == i {
				prefix = append(prefix, res)
			}
			rs.Results++
			s.stats.ReplayedResults.Add(1)
			s.analyticsFold(rj.Job.ID, rj.Job.Tenant, res)
			if rr.Key != "" && s.cacheFill(rr.Key, false, res) {
				rs.Reseeded++
			}
		}
		if len(rj.Job.Specs) == 0 {
			continue // orphan results: cache re-seed only, no job to rebuild
		}
		specs, err := decodeJobSpecs(rj.Job.Specs)
		if err != nil || len(specs) == 0 {
			continue
		}
		j := s.replayJob(rj, specs, prefix)
		rs.Jobs++
		s.stats.ReplayedJobs.Add(1)
		if !rj.Terminal() {
			if err := s.submit(j); err == nil {
				rs.Reenqueued++
			} else {
				rs.Dropped++
			}
		}
	}
	// Never mint an id a replayed job already owns.
	for cur := s.nextID.Load(); cur < maxID && !s.nextID.CompareAndSwap(cur, maxID); cur = s.nextID.Load() {
	}
	s.replay = rs
	// One boot checkpoint: whatever the replay loop folded beyond the
	// restored snapshot becomes durable now, so repeated crash loops do
	// not repeatedly re-fold the same suffix. No-op when replay added
	// nothing (an idle restart leaves the WAL byte-stable).
	s.flushAnalytics()
	// The probe runs for the store's whole lifetime (until baseStop): it is
	// idle while durable and becomes the recovery path once a WAL failure
	// flips the daemon into lossy mode.
	go s.durabilityProbe()
	return rs, nil
}

// Lossy reports whether the daemon is serving in degraded (non-durable)
// mode: a WAL write failed and the disk has not yet passed a re-attach
// probe. False without a store — no durability was promised, none is lost.
func (s *Server) Lossy() bool { return s.lossy.Load() }

// ReplayInfo returns what AttachStore recovered (zero value before/without
// a store), for the replay_dropped gauge.
func (s *Server) ReplayInfo() ReplayStats { return s.replay }

// persistFailed routes every WAL append failure into lossy mode: the
// failure is counted, the flag raised, and serving continues non-durably
// rather than surfacing 5xx to submitters whose simulations still run fine.
func (s *Server) persistFailed() {
	s.stats.StoreErrors.Add(1)
	if s.lossy.CompareAndSwap(false, true) {
		s.stats.DurabilityLost.Add(1)
	}
}

// skipPersist gates every WAL write while lossy: records are acknowledged
// without touching the failing disk (each skip counted). The store itself
// tolerates the resulting gaps — results must arrive in index order, so a
// job with a lossy hole simply resumes from before the hole after a crash.
func (s *Server) skipPersist() bool {
	if !s.lossy.Load() {
		return false
	}
	s.stats.LossyWrites.Add(1)
	return true
}

// durabilityProbe periodically re-tests a lossy store and restores durable
// mode when the disk heals. It exercises the store's real append/fsync path
// (without writing a record), so an injected or organic write failure keeps
// the daemon lossy until the fault actually clears.
func (s *Server) durabilityProbe() {
	t := time.NewTicker(s.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			if !s.lossy.Load() {
				continue
			}
			if err := s.store.Probe(); err != nil {
				continue
			}
			if s.lossy.CompareAndSwap(true, false) {
				s.stats.DurabilityRestored.Add(1)
			}
		}
	}
}

// replayJob reconstructs a Job from its WAL records and its decoded
// results prefix, and registers it. Terminal jobs come back closed (pure
// history); interrupted jobs come back queued with their completed prefix
// in place, ready to resume.
func (s *Server) replayJob(rj store.ReplayedJob, specs []runSpec, prefix []ConfigResult) *Job {
	j := s.makeJob(rj.Job.ID, rj.Job.Created, rj.Job.Kind, rj.Job.Tenant, specs)
	j.fromStore = true
	j.results = append(j.results, prefix...)
	if rj.Terminal() {
		j.state = JobState(rj.State)
		if rj.Error != "" {
			j.err = errors.New(rj.Error)
		}
		close(j.doneCh)
		j.cancel() // history never runs; release the baseCtx child now
		if len(prefix) == len(specs) {
			j.specs = nil // complete history: nothing can run or resume it
		}
	}
	s.registerJob(j)
	if rj.Terminal() {
		s.retireJob(j) // history counts against the retention bound
	}
	return j
}

// decodeJobSpecs decodes a job record's spec list: typed, or a JSON array
// in records written before the typed encoding (JSON-era logs, and the
// deflated job frames of binary logs that predate it).
func decodeJobSpecs(p []byte) ([]runSpec, error) {
	var specs []runSpec
	if len(p) > 0 && p[0] == '[' {
		err := json.Unmarshal(p, &specs)
		return specs, err
	}
	typed, err := resultcodec.DecodeSpecs(p)
	if err != nil {
		return nil, err
	}
	specs = make([]runSpec, len(typed))
	for i := range typed {
		specs[i].Spec = typed[i]
	}
	return specs, nil
}

// parseJobID extracts the numeric counter from a "job-%06d" id (0 when
// the id has another shape).
func parseJobID(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// resumeJob builds a fresh job that continues a terminal one: same specs,
// the completed prefix of results inherited, execution picking up at the
// first unfinished configuration (completed configurations are replayed
// verbatim, so the final result set is byte-identical to an uninterrupted
// run). The inherited prefix is persisted under the new id so a later
// crash resumes from the same point.
func (s *Server) resumeJob(j *Job) *Job {
	_, _, _, results, _ := j.snapshot()
	nj := s.buildJob(j.Kind, j.Tenant, j.specs)
	nj.resumedFrom = j.ID
	nj.results = append(nj.results, results...)
	s.registerJob(nj) // visible to listings only once fully populated
	// Checkpoint the job and its inherited prefix here, outside the
	// server lock — a large prefix means many appends (and possibly a
	// compaction), which must not stall submissions. submit's own
	// persistJob call then no-ops record by record. Should submit reject
	// the job, failFast checkpoints the failure over these records.
	s.persistJob(nj)
	return nj
}

// persistJob checkpoints a newly accepted job. Jobs replayed from the WAL
// are already on disk (and AppendJob would no-op on them anyway — their
// results were folded into analytics by the replay loop too).
func (s *Server) persistJob(j *Job) {
	if j.fromStore {
		return
	}
	if s.store == nil {
		// Storeless daemons skip the WAL but analytics still needs the
		// inherited prefix of a /resume continuation under the NEW job id
		// (watermarks are per-job, and the continuation's live results
		// start above the prefix). Fresh jobs have no results yet.
		j.mu.Lock()
		inherited := append([]ConfigResult(nil), j.results...)
		j.mu.Unlock()
		for _, res := range inherited {
			s.analyticsIngest(j.ID, j.Tenant, res)
		}
		return
	}
	if s.skipPersist() {
		return
	}
	list := make([]*resultcodec.Spec, len(j.specs))
	for i := range j.specs {
		list[i] = &j.specs[i].Spec
	}
	specs, err := resultcodec.AppendSpecs(nil, list...)
	if err != nil {
		s.stats.StoreErrors.Add(1)
		return
	}
	// Default-tenant jobs persist with an empty tenant so their records
	// stay byte-identical to pre-tenancy logs; replay maps "" back.
	tenant := j.Tenant
	if tenant == schedq.DefaultTenant {
		tenant = ""
	}
	if err := s.store.AppendJob(store.JobRecord{
		ID: j.ID, Kind: j.Kind, Created: j.Created, Specs: specs, Tenant: tenant,
	}); err != nil {
		s.persistFailed()
		return
	}
	// A job resumed via /resume inherits completed results the WAL only
	// knows under the old id; re-checkpoint them under the new one.
	j.mu.Lock()
	inherited := append([]ConfigResult(nil), j.results...)
	j.mu.Unlock()
	for i := range inherited {
		s.persistResult(j, specKey(j.specs[i]), inherited[i])
	}
}

// persistResult checkpoints one completed configuration. With a WAL
// attached, analytics mirrors exactly the records the WAL accepted (so a
// replay reconstructs the same aggregates); without one, every completed
// result feeds analytics directly.
func (s *Server) persistResult(j *Job, key string, res ConfigResult) {
	if s.store == nil {
		s.analyticsIngest(j.ID, j.Tenant, res)
		return
	}
	if s.skipPersist() {
		return
	}
	// The WAL never stores per-gate latency arrays (tens of thousands of
	// ints per run), even for include_latencies jobs: replay re-seeds the
	// cache as a partial entry anyway, and the only jobs that can carry
	// latencies are single-configuration runs, which have no resumable
	// prefix. stripLatencies copies before trimming, so the in-memory
	// result handed to the client keeps its arrays.
	stripLatencies(&res)
	payload, err := resultcodec.Append(nil, &res)
	if err != nil {
		s.stats.StoreErrors.Add(1)
		return
	}
	if err := s.store.AppendResult(store.ResultRecord{
		JobID: j.ID, Index: res.Index, Key: key, Result: payload,
	}); err != nil {
		s.persistFailed()
		return
	}
	// Fold what the WAL just saw (duplicate appends are dropped by the
	// store AND rejected by the analytics watermark, so the /resume
	// re-checkpoint path stays idempotent end to end).
	s.analyticsIngest(j.ID, j.Tenant, res)
}

// persistDone checkpoints a job's terminal state.
func (s *Server) persistDone(j *Job, state JobState, jerr error) {
	if s.store == nil || s.skipPersist() {
		return
	}
	rec := store.DoneRecord{JobID: j.ID, State: string(state)}
	if jerr != nil {
		rec.Error = jerr.Error()
	}
	if err := s.store.AppendDone(rec); err != nil {
		s.persistFailed()
	}
}

// closeStore takes the final durability checkpoint (compact + fsync) and
// closes the WAL; safe to call repeatedly and without a store.
func (s *Server) closeStore() {
	if s.store == nil {
		return
	}
	// The final analytics snapshot rides the shutdown compaction, so the
	// next boot restores instead of re-folding the whole retained log.
	s.flushAnalytics()
	if err := s.store.Close(); err != nil {
		s.stats.StoreErrors.Add(1)
	}
}

// StoreStats reports the WAL's size counters (zero value when no store is
// attached), for /healthz and /metrics.
func (s *Server) StoreStats() (store.Stats, bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}

// resumable decides whether POST /v1/jobs/{id}/resume applies: the job
// must be terminal and must have unfinished configurations. A failed job
// whose configurations all ran is not resumable either — the engine is
// deterministic, so re-running the same specs re-fails identically.
func resumable(state JobState, done, total int) error {
	switch state {
	case JobQueued, JobRunning:
		return fmt.Errorf("service: job is %s; only finished jobs can be resumed", state)
	}
	if done >= total {
		return fmt.Errorf("service: all %d configurations already ran; nothing to resume", total)
	}
	return nil
}
