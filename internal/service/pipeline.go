package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// This file is the daemon's one execution path. Every job runs through
// runJob; only the slot source differs. A coordinator with live workers
// sends batches to leased worker slots (cluster.go); everything else — a
// standalone daemon, or a batch no worker can take — runs one
// configuration per slot on the local engine pool, unencoded.

// jobRun is one pickup of a job: the state its dispatch loop and slots
// share.
type jobRun struct {
	s       *Server
	j       *Job
	wg      sync.WaitGroup
	preempt atomic.Bool // stop at the next configuration boundary
	own     bool        // the driver's own slot is taken; guarded by s.pool.mu

	// The sequencer: results wait in ready until their index is next.
	mu    sync.Mutex
	next  int
	ready map[int]ConfigResult

	// The prepass's misses, in index order, waiting for a slot.
	qmu   sync.Mutex
	queue []int
}

// runJob executes a job's unfinished configurations from startIdx on every
// slot it may use, claiming each just before it takes a slot. Returns
// whether the job was cancelled, and whether the scheduler preempted it at
// a configuration boundary (the caller requeues it).
func (s *Server) runJob(j *Job, startIdx int) (cancelled, preempted bool) {
	for i := range j.specs {
		if j.specs[i].key == "" { // decoded from a job record
			j.specs[i].key = specKey(j.specs[i])
		}
	}
	r := &jobRun{s: s, j: j, next: startIdx, ready: make(map[int]ConfigResult)}
	// Prepass: stream cache hits in index order and queue the misses.
	for i := startIdx; i < len(j.specs); i++ {
		if v, ok := s.cache.lookup(j.specs[i].key, j.specs[i]); ok {
			s.stats.CacheHits.Add(1)
			r.deliver(i, cachedResult(j.specs[i], v))
		} else {
			r.queue = append(r.queue, i)
		}
	}

	var sizer *batchSizer
	if s.clust != nil && s.clust.registry != nil {
		sizer = newBatchSizer(s)
	}
	for bi := 0; r.queued() > 0 && j.ctx.Err() == nil; {
		lease, remote, err := s.acquireRemote(j.ctx)
		var release func()
		borrowed := false
		if remote {
			release = lease.Release
		} else if err == nil {
			release, borrowed, err = r.acquire()
		}
		if err != nil {
			break // job cancelled while waiting for a slot
		}
		// Preemption check at the boundary, only once the quantum has made
		// progress (the contiguous prefix grew past the pickup point): a
		// quantum always completes at least one configuration, so two
		// preempting tenants cannot livelock each other into requeue loops.
		if r.progress() > startIdx && s.shouldPreempt(j) {
			release()
			r.preempt.Store(true)
			break
		}
		n := 1
		if remote {
			_, free := s.clust.registry.Capacity()
			n = sizer.next(r.queued(), free+1) // +1: the slot this lease holds
		}
		idxs := r.claim(r.pull(n))
		switch {
		case len(idxs) == 0:
			release()
		case remote:
			r.wg.Add(1)
			go func(bi int) {
				defer r.wg.Done()
				r.dispatch(bi, idxs, lease)
			}(bi)
			bi++
		case borrowed:
			// A borrowed slot keeps pulling for as long as the job may keep it.
			r.wg.Add(1)
			go func(i int) {
				defer r.wg.Done()
				defer release()
				for ok := true; ok; i, ok = r.nextLead() {
					r.runLocal(i)
					if r.preempt.Load() || j.ctx.Err() != nil || !r.keep() {
						return
					}
				}
			}(idxs[0])
		default:
			// The own slot runs on the driver, so the next boundary check
			// follows the configuration directly.
			r.runLocal(idxs[0])
			release()
		}
	}
	// The barrier is also the preemption fence: every in-flight
	// configuration lands (filling the cache, so the resumed job replays
	// it as a hit) before the job re-enters the scheduler.
	r.wg.Wait()
	cancelled = j.ctx.Err() != nil
	return cancelled, r.preempt.Load() && !cancelled
}

// acquireRemote leases a worker slot on a coordinator. remote is false,
// with a nil error, when the work belongs on local slots: not a
// coordinator, or no live worker (cluster.ErrNoWorkers).
func (s *Server) acquireRemote(ctx context.Context) (cluster.Lease, bool, error) {
	if s.clust == nil || s.clust.registry == nil {
		return cluster.Lease{}, false, nil
	}
	lease, err := s.clust.registry.Acquire(ctx)
	if errors.Is(err, cluster.ErrNoWorkers) {
		return cluster.Lease{}, false, nil
	}
	return lease, err == nil, err
}

// claim claims pulled configurations for a slot: hits are delivered, one
// whose twin is computing in any job is claimed again once that flight
// lands, and the rest are returned for the caller to run and leave their
// flights.
func (r *jobRun) claim(idxs []int) []int {
	lead := idxs[:0]
	for _, i := range idxs {
		v, wait, hit := r.s.cache.claim(r.j.specs[i].key, r.j.specs[i])
		switch {
		case hit:
			r.s.stats.CacheHits.Add(1)
			r.deliver(i, cachedResult(r.j.specs[i], v))
		case wait != nil:
			r.s.stats.Coalesced.Add(1)
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				select {
				case <-wait:
					r.runOnPool(r.claim([]int{i})) // a hit unless the leader failed
				case <-r.j.ctx.Done():
				}
			}()
		default:
			lead = append(lead, i)
		}
	}
	return lead
}

// nextLead pulls for a held slot until a configuration must be computed.
func (r *jobRun) nextLead() (int, bool) {
	for idxs := r.pull(1); len(idxs) > 0; idxs = r.pull(1) {
		if lead := r.claim(idxs); len(lead) > 0 {
			return lead[0], true
		}
	}
	return 0, false
}

// runLocal computes one claimed configuration in process and delivers it;
// a result aborted by the job's cancellation is discarded.
func (r *jobRun) runLocal(i int) {
	res := r.s.compute(r.j.ctx, r.j.specs[i].key, r.j.specs[i])
	r.s.cache.leave(r.j.specs[i].key)
	if res.Error == "" || r.j.ctx.Err() == nil {
		r.deliver(i, res)
	}
}

// runOnPool runs claimed configurations on the job's local slots.
func (r *jobRun) runOnPool(idxs []int) {
	for k, i := range idxs {
		release, _, err := r.acquire()
		if err != nil {
			r.leaveFlights(idxs[k:])
			return
		}
		r.runLocal(i)
		release()
	}
}

// leaveFlights lands claimed configurations' flights undelivered.
func (r *jobRun) leaveFlights(idxs []int) {
	for _, i := range idxs {
		r.s.cache.leave(r.j.specs[i].key)
	}
}

// localPool counts busy engine slots: executing job drivers plus borrowed.
type localPool struct {
	mu   sync.Mutex
	cond *sync.Cond
	busy int
}

func (p *localPool) add(n int) {
	p.mu.Lock()
	p.busy += n
	p.cond.Broadcast()
	p.mu.Unlock()
}

// acquire blocks until the job may start a configuration locally. An idle
// pool slot is lent (borrowed) only while the scheduler has no queued job;
// otherwise the job uses its own driver slot, which yields only to Yield.
func (r *jobRun) acquire() (release func(), borrowed bool, err error) {
	p := &r.s.pool
	stop := context.AfterFunc(r.j.ctx, func() { p.add(0) })
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case r.j.ctx.Err() != nil:
			return nil, false, r.j.ctx.Err()
		case p.busy < r.s.workers && r.s.sched.Len() == 0:
			p.busy++
			return func() { p.add(-1) }, true, nil
		case !r.own:
			r.own = true
			return func() {
				p.mu.Lock()
				r.own = false
				p.cond.Broadcast()
				p.mu.Unlock()
			}, false, nil
		}
		p.cond.Wait()
	}
}

// keep reports whether a borrowed slot may run another configuration: a
// borrower hands the slot back at its next configuration boundary once a
// job is queued or a new job driver has started.
func (r *jobRun) keep() bool {
	p := &r.s.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.busy <= r.s.workers && r.s.sched.Len() == 0
}

// deliver releases results in index order to the WAL, then to the job and
// its stream, so all three are byte-identical however many slots ran and a
// streamed result is always on disk already.
func (r *jobRun) deliver(idx int, res ConfigResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res.Index = idx // the job's index is authoritative, whoever computed it
	// First result wins. Hedged re-dispatch can legitimately complete the
	// same index twice (the straggler and its hedge both finish); a released
	// or buffered index must be dropped here, or the job would append the
	// configuration twice and decrement its pending backlog twice.
	if _, dup := r.ready[idx]; dup || idx < r.next {
		return
	}
	r.ready[idx] = res
	for out, ok := r.ready[r.next]; ok; out, ok = r.ready[r.next] {
		delete(r.ready, r.next)
		r.s.persistResult(r.j, r.j.specs[r.next].key, out)
		r.j.mu.Lock()
		r.j.results = append(r.j.results, out)
		r.j.mu.Unlock()
		select {
		case r.j.delivered <- struct{}{}:
		default: // a wake-up is already pending
		}
		r.s.sched.Completed(r.j.Tenant, 1)
		r.next++
	}
}

// progress returns the contiguous completed prefix length.
func (r *jobRun) progress() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// pull removes and returns up to n queued configurations.
func (r *jobRun) pull(n int) []int {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	n = min(n, len(r.queue))
	out := r.queue[:n:n]
	r.queue = r.queue[n:]
	return out
}

// queued counts configurations still waiting for a slot; the batch sizer's
// backlog.
func (r *jobRun) queued() int {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return len(r.queue)
}
