package cluster

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// ErrNoWorkers is returned by Acquire when the registry holds no live
// workers at all; the caller should fall back to executing locally rather
// than waiting for a worker that may never come.
var ErrNoWorkers = errors.New("cluster: no live workers registered")

// worker is the registry's internal record for one registered node.
type worker struct {
	id       string
	url      string
	capacity int
	lastSeen time.Time
	inflight int
	// gone is closed when the worker is removed (explicitly or by liveness
	// expiry); dispatchers watching it abort their in-flight call so the
	// batch can be re-dispatched instead of waiting on a dead socket.
	gone chan struct{}
	// draining fences the worker from new leases while its in-flight
	// batches finish; the heartbeat that observes inflight==0 removes it.
	draining bool
	// Circuit breaker: fails counts consecutive dispatch failures; at
	// breakerFailures the breaker opens until openUntil, after which
	// the worker is half-open — eligible for exactly one probe batch
	// (probing true while it is out) whose outcome closes or re-opens it.
	fails     int
	openUntil time.Time
	probing   bool
}

// Registry tracks the coordinator's worker membership, liveness and load.
// All methods are safe for concurrent use.
//
// Dispatch policy: Acquire hands out the least-loaded live worker with a
// free in-flight slot — lowest in-flight batch count first, ties broken by
// lexicographically smallest worker id, so dispatch order is deterministic
// and testable. When every live worker is saturated, Acquire blocks until a
// slot frees, a worker (re-)registers, or ctx is cancelled.
type Registry struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers map[string]*worker
	now     nowFunc
}

// Circuit-breaker policy: breakerFailures consecutive ReportFailure calls
// open a worker's breaker for breakerCooldown, after which one half-open
// probe decides between closing it and re-opening it.
const (
	breakerFailures = 3
	breakerCooldown = 5 * time.Second
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		workers: make(map[string]*worker),
		now:     time.Now,
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// UpsertStatus reports what a registration/heartbeat did to the registry.
type UpsertStatus struct {
	// IsNew means the worker was previously unknown and has just joined.
	IsNew bool
	// Released means a draining worker is done with the coordinator: it is
	// no longer (or never was) in the registry and may stop heartbeating.
	Released bool
	// Drained means this heartbeat completed a drain — the worker was
	// removed with zero batches in flight (Released is also set).
	Drained bool
}

// Upsert registers a worker or refreshes its heartbeat lease. Capacity
// below 1 is clamped to 1.
//
// A draining heartbeat fences the worker (no new leases) and, once its
// in-flight count is zero, removes it and acks Released; an unknown
// draining worker is never (re-)registered — it is Released immediately,
// so a drain that races liveness expiry cannot resurrect the node.
func (r *Registry) Upsert(req RegisterRequest) UpsertStatus {
	capacity := req.Capacity
	if capacity < 1 {
		capacity = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[req.ID]
	if !ok {
		if req.Draining {
			return UpsertStatus{Released: true}
		}
		w = &worker{id: req.ID, gone: make(chan struct{})}
		r.workers[req.ID] = w
	}
	w.url = req.URL
	w.capacity = capacity
	w.lastSeen = r.now()
	// The drain flag follows the worker's announcement both ways: a worker
	// restarted after an aborted drain re-enters rotation on its first
	// non-draining heartbeat.
	w.draining = req.Draining
	if w.draining && w.inflight == 0 {
		r.removeLocked(req.ID)
		return UpsertStatus{Released: true, Drained: true}
	}
	// A new worker or a raised capacity can unblock saturated dispatchers.
	r.cond.Broadcast()
	return UpsertStatus{IsNew: !ok}
}

func (r *Registry) removeLocked(id string) {
	w, ok := r.workers[id]
	if !ok {
		return
	}
	close(w.gone)
	delete(r.workers, id)
	// Dispatchers blocked waiting for a slot must re-evaluate: with this
	// worker gone the registry may now be empty (local-fallback time).
	r.cond.Broadcast()
}

// ExpireDead removes every worker whose last heartbeat is older than
// maxAge, returning the expired ids (sorted, for deterministic logs).
func (r *Registry) ExpireDead(maxAge time.Duration) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := r.now().Add(-maxAge)
	var expired []string
	for id, w := range r.workers {
		if w.lastSeen.Before(cutoff) {
			expired = append(expired, id)
		}
	}
	sort.Strings(expired)
	for _, id := range expired {
		r.removeLocked(id)
	}
	return expired
}

// Len reports the number of registered workers.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers)
}

// Lease is one acquired dispatch slot on a worker: the coordinates to dial
// plus the release handle. Gone is closed if the worker dies while the
// lease is held.
type Lease struct {
	ID   string
	URL  string
	Gone <-chan struct{}
	r    *Registry
	w    *worker
}

// Release frees the lease's in-flight slot. Safe to call after the worker
// was removed (the slot died with it) — and only the slot's own worker
// incarnation is decremented: if the worker expired and re-registered
// while the lease was held, the fresh incarnation's accounting must not
// absorb a stale release (that would overrun its capacity).
func (l Lease) Release() {
	l.r.mu.Lock()
	defer l.r.mu.Unlock()
	if cur, ok := l.r.workers[l.ID]; ok && cur == l.w && l.w.inflight > 0 {
		l.w.inflight--
		// A probe released without a verdict (the dispatch was cancelled,
		// not failed) leaves the worker half-open for the next probe.
		l.w.probing = false
		l.r.cond.Broadcast()
	}
}

// ReportSuccess records a successful dispatch on the lease's worker,
// closing its circuit breaker (the consecutive-failure count resets).
func (l Lease) ReportSuccess() {
	l.r.mu.Lock()
	defer l.r.mu.Unlock()
	if cur, ok := l.r.workers[l.ID]; ok && cur == l.w {
		l.w.fails = 0
		l.w.probing = false
		l.w.openUntil = time.Time{}
		l.r.cond.Broadcast()
	}
}

// ReportFailure records a failed dispatch on the lease's worker. At the
// registry's consecutive-failure threshold the worker's breaker opens
// (re-opens, for a failed half-open probe): it takes no new batches until
// the cooldown elapses and a probe succeeds. Unlike the old
// fail-once-and-evict policy the worker stays registered — liveness expiry
// still removes nodes that stop heartbeating, but a node that is alive and
// misbehaving gets a path back. Returns whether this failure opened the
// breaker (for metrics).
func (l Lease) ReportFailure() (opened bool) {
	l.r.mu.Lock()
	defer l.r.mu.Unlock()
	cur, ok := l.r.workers[l.ID]
	if !ok || cur != l.w {
		return false
	}
	wasOpen := l.w.fails >= breakerFailures
	l.w.fails++
	l.w.probing = false
	if l.w.fails >= breakerFailures {
		l.w.openUntil = l.r.now().Add(breakerCooldown)
	}
	// Waiters must re-evaluate: this may have been the last closed worker,
	// turning their wait into an ErrNoWorkers local fallback.
	l.r.cond.Broadcast()
	return !wasOpen && l.w.fails >= breakerFailures
}

// Acquire picks the least-loaded live worker with a free in-flight slot
// and reserves one slot on it. With every worker saturated it blocks until
// a slot frees or membership changes; with no workers registered at all it
// returns ErrNoWorkers immediately (the caller falls back to local
// execution). Cancellation of ctx returns ctx.Err().
func (r *Registry) Acquire(ctx context.Context) (Lease, error) {
	// cond.Wait cannot watch a context; a per-call watcher converts the
	// cancellation into a broadcast so the wait loop re-checks ctx.
	stop := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stop()

	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return Lease{}, err
		}
		if len(r.workers) == 0 {
			return Lease{}, ErrNoWorkers
		}
		if l, ok := r.leaseLocked(""); ok {
			return l, nil
		}
		// Nothing pickable. Waiting only helps if some non-open worker will
		// free a slot, or an outstanding probe will resolve; with every
		// usable worker's breaker open, time (not a broadcast) is what heals
		// the registry, so fall back to local execution instead of wedging.
		if !r.waitWorthwhileLocked() {
			return Lease{}, ErrNoWorkers
		}
		r.cond.Wait()
	}
}

// TryAcquire reserves a slot like Acquire but never blocks, and skips the
// worker named exclude. It exists for hedged re-dispatch: the hedge wants a
// *different* worker right now, or nothing — blocking for one, or doubling
// down on the straggler itself, would defeat the point.
func (r *Registry) TryAcquire(exclude string) (Lease, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaseLocked(exclude)
}

// leaseLocked picks and reserves a slot, marking half-open picks as the
// worker's probe.
func (r *Registry) leaseLocked(exclude string) (Lease, bool) {
	w := r.pickLocked(exclude)
	if w == nil {
		return Lease{}, false
	}
	if w.fails >= breakerFailures {
		w.probing = true
	}
	w.inflight++
	return Lease{ID: w.id, URL: w.url, Gone: w.gone, r: r, w: w}, true
}

// waitWorthwhileLocked reports whether a blocked Acquire can be unblocked
// by a broadcast: a healthy-but-saturated worker releasing a slot, or a
// half-open probe resolving.
func (r *Registry) waitWorthwhileLocked() bool {
	now := r.now()
	for _, w := range r.workers {
		if w.probing {
			return true
		}
		open := w.fails >= breakerFailures && now.Before(w.openUntil)
		if !open && !w.draining && w.inflight >= w.capacity {
			return true
		}
	}
	return false
}

// pickLocked returns the best dispatch target with a free slot: healthy
// workers (fewest consecutive failures) before half-open ones, then lowest
// in-flight count, ties broken by smallest id — so dispatch order stays
// deterministic and testable. Breaker-open workers and in-flight probes are
// skipped entirely. Nil when nothing is pickable.
func (r *Registry) pickLocked(exclude string) *worker {
	now := r.now()
	var best *worker
	for _, w := range r.workers {
		if w.id == exclude || w.draining || w.inflight >= w.capacity {
			continue
		}
		if w.fails >= breakerFailures && (w.probing || now.Before(w.openUntil)) {
			continue
		}
		if best == nil || w.fails < best.fails ||
			(w.fails == best.fails && w.inflight < best.inflight) ||
			(w.fails == best.fails && w.inflight == best.inflight && w.id < best.id) {
			best = w
		}
	}
	return best
}

// Capacity reports the cluster's live dispatch capacity: total in-flight
// slots on non-draining workers, and how many of those are currently free
// on workers whose breaker is not open (i.e. slots a lease could actually
// land on right now).
func (r *Registry) Capacity() (slots, free int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	for _, w := range r.workers {
		if w.draining {
			continue
		}
		slots += w.capacity
		if w.fails >= breakerFailures && (w.probing || now.Before(w.openUntil)) {
			continue
		}
		if f := w.capacity - w.inflight; f > 0 {
			free += f
		}
	}
	return slots, free
}

// Snapshot returns every registered worker's public view, sorted by id.
func (r *Registry) Snapshot() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		state := "closed"
		if w.fails >= breakerFailures {
			if w.probing || now.Before(w.openUntil) {
				state = "open"
			} else {
				state = "half-open"
			}
		}
		out = append(out, WorkerInfo{
			ID:       w.id,
			URL:      w.url,
			Capacity: w.capacity,
			Inflight: w.inflight,
			AgeSec:   now.Sub(w.lastSeen).Seconds(),
			Failures: w.fails,
			Breaker:  state,
			Draining: w.draining,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
