package schedq

import (
	"sort"
	"sync"
)

// maxIdleTenants bounds the tenant table: beyond it, a Push sweeps out
// fully idle tenants (nothing queued, nothing open, nothing backlogged)
// regardless of residual virtual-time debt. Idle tenants are otherwise
// evicted only once the global clock catches up with theirs, so a whale
// that pauses cannot shed its debt by going briefly silent.
const maxIdleTenants = 4096

// entry is one queued job with its admission sequence number (the
// tie-breaker between tenants with equal virtual time).
type entry struct {
	item any
	seq  uint64
}

// tenant is one tenant's scheduling state.
type tenant struct {
	name   string
	weight float64
	policy Policy
	queue  []entry
	// vt is the tenant's virtual clock: configurations completed on its
	// behalf divided by weight, floored to the global clock whenever the
	// tenant arrives from idleness (idle tenants earn no credit).
	vt      float64
	backlog int64 // admitted-but-unfinished configurations
	open    int   // queued + running jobs
}

// idle reports whether the tenant holds no scheduler state worth keeping
// beyond its clock.
func (t *tenant) idle() bool {
	return len(t.queue) == 0 && t.open == 0 && t.backlog == 0
}

// Queue is the virtual-time WFQ scheduler between submission and the
// worker pool. Push/Pop carry opaque items (the service's *Job) so the
// package stays dependency-free. All methods are safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cfg     Config
	tenants map[string]*tenant
	queued  int    // items across all tenant queues
	pending int64  // every tenant's backlog, summed
	waiters int    // workers blocked in Pop
	seq     uint64 // admission sequence, the tie-break key
	closed  bool
	// vtime is the global virtual clock: the virtual time of the last
	// tenant served. New arrivals floor their clock here, which is what
	// keeps long-idle tenants from starving everyone on their return.
	vtime float64
}

// tenantLocked returns (creating if needed) the named tenant's state.
func (q *Queue) tenantLocked(name string) *tenant {
	if t, ok := q.tenants[name]; ok {
		return t
	}
	if len(q.tenants) >= maxIdleTenants {
		for n, t := range q.tenants {
			if t.idle() {
				delete(q.tenants, n)
			}
		}
	}
	pol, ok := q.cfg.Tenants[name]
	if !ok {
		pol = q.cfg.Default
	}
	w := pol.Weight
	if w <= 0 {
		w = q.cfg.Default.Weight
	}
	if w <= 0 {
		w = 1
	}
	t := &tenant{name: name, weight: float64(w), policy: pol, vt: q.vtime}
	q.tenants[name] = t
	return t
}

// Push admits one job for tenant, costing `cost` unfinished configurations
// against its quota and backlog. Returns ErrClosed after Close, a
// *QuotaError over a tenant bound, or ErrFull when the global capacity is
// exhausted.
func (q *Queue) Push(tn string, cost int64, item any) error {
	return q.push(tn, cost, item, false)
}

// PushExempt admits bypassing the tenant quotas (WAL-replayed jobs: their
// work was admitted in a previous life) but still counting the backlog and
// respecting capacity.
func (q *Queue) PushExempt(tn string, cost int64, item any) error {
	return q.push(tn, cost, item, true)
}

func (q *Queue) push(tn string, cost int64, item any, exempt bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	t := q.tenantLocked(tn)
	if !exempt {
		if lim := t.policy.MaxQueuedConfigs; lim > 0 && t.backlog+cost > lim {
			return &QuotaError{Tenant: tn, Kind: "configs", Backlog: t.backlog, Limit: lim}
		}
		if lim := t.policy.MaxInflightJobs; lim > 0 && t.open+1 > lim {
			return &QuotaError{Tenant: tn, Kind: "jobs", Backlog: t.backlog, Limit: int64(lim)}
		}
	}
	if q.cfg.Capacity > 0 && q.queued >= q.cfg.Capacity {
		return ErrFull
	}
	if t.idle() && t.vt < q.vtime {
		t.vt = q.vtime // arriving from idleness earns no credit
	}
	t.backlog += cost
	q.pending += cost
	t.open++
	q.enqueueLocked(t, item)
	return nil
}

// Requeue re-enqueues a preempted continuation. Its cost and open-job slot
// are already accounted, so neither quotas nor capacity apply; only
// ErrClosed is possible.
func (q *Queue) Requeue(tn string, item any) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	// The continuation's cost and open-job slot are already held; it also
	// bypasses capacity — the job was admitted once, and refusing the
	// requeue would strand it with no owner.
	q.enqueueLocked(q.tenantLocked(tn), item)
	return nil
}

func (q *Queue) enqueueLocked(t *tenant, item any) {
	q.seq++
	t.queue = append(t.queue, entry{item: item, seq: q.seq})
	q.queued++
	q.cond.Signal()
}

// pickLocked selects the tenant to serve next: the one with the least
// virtual time (arrival order breaking ties, so equal-clock tenants
// alternate deterministically instead of by map order).
func (q *Queue) pickLocked() *tenant {
	var best *tenant
	for _, t := range q.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if best == nil || t.vt < best.vt || (t.vt == best.vt && t.queue[0].seq < best.queue[0].seq) {
			best = t
		}
	}
	return best
}

// Pop blocks until an item is available, returning ok=false only once the
// scheduler is closed AND drained — the channel-range contract the worker
// pool was built on.
func (q *Queue) Pop() (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if t := q.pickLocked(); t != nil {
			e := t.queue[0]
			t.queue = t.queue[1:]
			q.queued--
			if t.vt > q.vtime {
				q.vtime = t.vt
			}
			return e.item, true
		}
		if q.closed {
			return nil, false
		}
		q.waiters++
		q.cond.Wait()
		q.waiters--
	}
}

// Completed reports n configurations of tenant's admitted work executed:
// backlog shrinks and the tenant's virtual clock advances.
func (q *Queue) Completed(tn string, n int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tenants[tn]
	if !ok || n <= 0 {
		return
	}
	q.releaseLocked(t, n)
	t.vt += float64(n) / t.weight
}

// Abandon releases n admitted configurations that will never run
// (cancelled or failed jobs): backlog shrinks, no virtual-time charge.
func (q *Queue) Abandon(tn string, n int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tenants[tn]; ok && n > 0 {
		q.releaseLocked(t, n)
	}
}

// releaseLocked takes n configurations, at most its whole backlog, off
// the tenant's backlog and the running total.
func (q *Queue) releaseLocked(t *tenant, n int64) {
	n = min(n, t.backlog)
	t.backlog -= n
	q.pending -= n
}

// JobDone reports one of tenant's open jobs reaching a terminal state.
func (q *Queue) JobDone(tn string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tenants[tn]
	if !ok {
		return
	}
	if t.open > 0 {
		t.open--
	}
	// Evict once fully idle with no residual virtual-time debt; a tenant
	// still ahead of the global clock keeps its state until it drains.
	if t.idle() && t.vt <= q.vtime {
		delete(q.tenants, tn)
	}
}

// Yield reports whether work running on tenant's behalf should checkpoint
// at its next configuration boundary because a better-entitled tenant is
// waiting.
func (q *Queue) Yield(tn string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	// An idle worker blocked in Pop will take any queued item directly —
	// preempting would only churn the running job.
	if q.closed || q.queued == 0 || q.waiters > 0 {
		return false
	}
	me, ok := q.tenants[tn]
	if !ok {
		return false
	}
	for _, t := range q.tenants {
		if t != me && len(t.queue) > 0 && t.vt < me.vt {
			return true
		}
	}
	return false
}

// Backlog returns tenant's admitted-but-unfinished configurations.
func (q *Queue) Backlog(tn string) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tenants[tn]; ok {
		return t.backlog
	}
	return 0
}

// Pending returns the admitted-but-unfinished configurations across all
// tenants: the sum of every tenant's Backlog.
func (q *Queue) Pending() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// Len returns the queued-job count across all tenants.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// Close stops admission and wakes every Pop; queued items drain first.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Snapshot returns per-tenant live state, sorted by tenant name.
func (q *Queue) Snapshot() []TenantSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(q.tenants))
	for _, t := range q.tenants {
		out = append(out, TenantSnapshot{
			Tenant:      t.name,
			Weight:      int(t.weight),
			QueuedJobs:  len(t.queue),
			OpenJobs:    t.open,
			Backlog:     t.backlog,
			VirtualTime: t.vt,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Tenant < out[b].Tenant })
	return out
}
