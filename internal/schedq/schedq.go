// Package schedq is rescqd's tenant-aware scheduling layer: the job queue
// sitting between submission and the worker pool. It replaces the single
// buffered channel the daemon started with — under which one tenant's
// multi-thousand-configuration sweep starved every submission behind it —
// with per-tenant queues drained by weighted fair queueing (WFQ) over
// virtual time.
//
// Each tenant accumulates virtual time proportional to the configurations
// executed on its behalf divided by its weight; Pop always serves the
// backlogged tenant with the least virtual time, and Yield tells a running
// job to checkpoint at its next configuration boundary when a
// lower-virtual-time tenant is waiting. Idle tenants earn no credit: on
// arrival after idleness a tenant's clock is floored to the global virtual
// time, so a tenant cannot bank hours of silence and then monopolize the
// pool. With a single tenant, Pop serves jobs in arrival order and Yield
// never fires.
//
// The scheduler also owns per-tenant admission quotas: a bound on
// admitted-but-unfinished configurations (backlog) and on open (queued +
// running) jobs. Quota rejections carry the tenant's own backlog so the
// HTTP layer can compute a per-tenant Retry-After instead of quoting the
// global queue.
//
// Accounting protocol (the service drives it):
//
//	Push / PushExempt  admit a job of `cost` unfinished configurations
//	Requeue            re-enter a preempted continuation (nothing recounted)
//	Pop                worker pickup; blocks, drains after Close
//	Completed          n configurations finished: backlog down, clock up
//	Abandon            n configurations that will never run: backlog down
//	JobDone            the job reached a terminal state: open-jobs down
package schedq

import (
	"errors"
	"fmt"
	"sync"
)

// DefaultTenant is the identity assigned to untagged traffic — requests
// that name no tenant, and every job written to the WAL before tenancy
// existed.
const DefaultTenant = "default"

// Typed admission errors. The service maps ErrClosed to its draining
// rejection and ErrFull to its queue-full rejection; QuotaError becomes a
// 429 with a per-tenant Retry-After.
var (
	ErrClosed = errors.New("schedq: scheduler closed")
	ErrFull   = errors.New("schedq: queue full")
)

// QuotaError reports a per-tenant admission rejection: the submission
// would exceed the tenant's configured quota. Backlog is the tenant's own
// admitted-but-unfinished configuration count at rejection time — the
// number a Retry-After hint should be derived from.
type QuotaError struct {
	Tenant  string
	Kind    string // "configs" (backlog bound) or "jobs" (open-job bound)
	Backlog int64
	Limit   int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("schedq: tenant %q over %s quota (backlog %d, limit %d)",
		e.Tenant, e.Kind, e.Backlog, e.Limit)
}

// Policy is one tenant's resolved scheduling policy. Zero quota fields
// mean unlimited; Weight <= 0 falls back to the configured default.
type Policy struct {
	Weight           int   // relative share of the pool under contention
	MaxQueuedConfigs int64 // bound on admitted-but-unfinished configurations
	MaxInflightJobs  int   // bound on open (queued + running) jobs
}

// Config parameterizes a scheduler instance.
type Config struct {
	// Capacity bounds queued jobs (the channel-depth analogue); <= 0 means
	// unbounded. Preempted continuations re-enter above this bound — they
	// were admitted once and dropping them would strand the job.
	Capacity int
	// Default applies to tenants without an explicit entry in Tenants.
	Default Policy
	// Tenants maps tenant name to its resolved policy.
	Tenants map[string]Policy
}

// TenantSnapshot is one tenant's live scheduling state, for /healthz and
// the per-tenant Prometheus gauges.
type TenantSnapshot struct {
	Tenant      string  `json:"tenant"`
	Weight      int     `json:"weight"`
	QueuedJobs  int     `json:"queued_jobs"`
	OpenJobs    int     `json:"open_jobs"`
	Backlog     int64   `json:"backlog_configs"`
	VirtualTime float64 `json:"virtual_time"`
}

// WFQ names the scheduling policy, weighted fair queueing; it is the only
// one.
const WFQ = "wfq"

// New builds a scheduler. name must be WFQ or "" (meaning WFQ).
func New(name string, cfg Config) (*Queue, error) {
	if name != "" && name != WFQ {
		return nil, fmt.Errorf("schedq: unknown policy %q (want %q)", name, WFQ)
	}
	q := &Queue{cfg: cfg, tenants: make(map[string]*tenant)}
	q.cond = sync.NewCond(&q.mu)
	return q, nil
}

// ValidTenant reports whether name is usable as a tenant identity: 1-64
// characters from [A-Za-z0-9._-]. Shared by the HTTP layer (request
// validation) and the config layer (policy-table validation) so the two
// can never disagree.
func ValidTenant(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("schedq: tenant name must be 1-64 characters")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("schedq: tenant name %q: invalid character %q (want [A-Za-z0-9._-])", name, c)
		}
	}
	return nil
}
