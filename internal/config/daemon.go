package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/lattice"
)

// Daemon configures the rescqd serving daemon (see internal/service). A
// zero value is usable: every field has a production-sensible default.
type Daemon struct {
	// Addr is the listen address (default ":8321").
	Addr string `json:"addr,omitempty"`
	// Workers bounds the job worker pool; 0 means one worker per CPU.
	Workers int `json:"workers,omitempty"`
	// QueueDepth bounds the pending-job queue; excess submissions are
	// rejected with 503 (default 256).
	QueueDepth int `json:"queue_depth,omitempty"`
	// CacheEntries bounds the LRU result cache; 0 means the default 1024,
	// negative disables caching (0 cannot mean "disabled" — it is JSON's
	// and the zero-value's "unset").
	CacheEntries int `json:"cache_entries,omitempty"`
	// DrainTimeoutSec bounds graceful shutdown: in-flight jobs get this
	// many seconds to finish before the daemon exits anyway (default 30).
	DrainTimeoutSec int `json:"drain_timeout_sec,omitempty"`
	// Layout is the default lattice layout for requests that do not name
	// one ("" means the engine default, "star"). Must be a registered
	// layout name; see GET /v1/capabilities for the live list.
	Layout string `json:"layout,omitempty"`
	// StoreDir enables the durability layer: the directory holding the
	// append-only job + result WAL (see internal/store). Jobs and
	// per-configuration results are checkpointed as they complete; on
	// restart the daemon replays the WAL, re-seeds the result cache and
	// re-enqueues interrupted jobs. Empty disables persistence.
	StoreDir string `json:"store_dir,omitempty"`
	// MaxQueueDepth bounds admission control: the total backlog of
	// admitted-but-unfinished run configurations across all queued and
	// running jobs (a sweep counts one per configuration). Submissions
	// beyond it are shed with 429 + Retry-After instead of queueing
	// unboundedly. 0 means the default 4096; negative disables shedding.
	MaxQueueDepth int `json:"max_queue_depth,omitempty"`
	// Cluster configures coordinator/worker scale-out (see Cluster). The
	// zero value is standalone: single-node, byte-identical to pre-cluster
	// behavior.
	Cluster Cluster `json:"cluster"`
	// Failpoints arms a fault-injection schedule at startup (see
	// internal/fault for the grammar, e.g. "wal.write=err(disk full)").
	// Empty — the default — keeps every failpoint dormant; the
	// RESCQ_FAILPOINTS environment variable overrides this field.
	Failpoints string `json:"failpoints,omitempty"`
	// FaultSeed seeds the schedule's probabilistic triggers (default 1), so
	// a chaos run reproduces exactly from its printed seed.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Analytics toggles the sweep-analytics aggregate store behind GET
	// /v1/analytics/* (see internal/analytics): maintained incrementally
	// from the persisted result stream, snapshotted into the WAL, rebuilt
	// at boot. Unset/true enables; false disables — which also keeps the
	// WAL free of analytics state records, the knob to reach for when a
	// log must stay readable by pre-analytics daemon builds.
	Analytics *bool `json:"analytics,omitempty"`
	// AnalyticsMaxGroups caps the number of distinct aggregate cells (one
	// per complete sweep-axis tuple); results for configurations beyond
	// the cap are counted as dropped, not aggregated. 0 means the default
	// 8192 (analytics.DefaultMaxGroups).
	AnalyticsMaxGroups int `json:"analytics_max_groups,omitempty"`
	// Tenants configures per-tenant weights and quotas for the scheduler.
	// The zero value is fully permissive (weight 1, no quotas).
	Tenants Tenants `json:"tenants"`
}

// WithDefaults fills unset daemon fields.
func (d Daemon) WithDefaults() Daemon {
	if d.Addr == "" {
		d.Addr = ":8321"
	}
	if d.QueueDepth == 0 {
		d.QueueDepth = 256
	}
	if d.CacheEntries == 0 {
		d.CacheEntries = 1024
	}
	if d.DrainTimeoutSec == 0 {
		d.DrainTimeoutSec = 30
	}
	if d.MaxQueueDepth == 0 {
		d.MaxQueueDepth = 4096
	}
	d.Cluster = d.Cluster.WithDefaults()
	d.Tenants = d.Tenants.WithDefaults()
	return d
}

// DrainTimeout returns the drain budget as a duration.
func (d Daemon) DrainTimeout() time.Duration {
	return time.Duration(d.DrainTimeoutSec) * time.Second
}

// CacheDisabled reports whether the result cache is turned off
// (CacheEntries < 0).
func (d Daemon) CacheDisabled() bool { return d.CacheEntries < 0 }

// AnalyticsEnabled reports whether the sweep-analytics store is on
// (unset means on).
func (d Daemon) AnalyticsEnabled() bool { return d.Analytics == nil || *d.Analytics }

// Validate reports daemon configuration errors.
func (d Daemon) Validate() error {
	if d.Workers < 0 {
		return fmt.Errorf("config: workers must be non-negative")
	}
	if d.QueueDepth < 1 {
		return fmt.Errorf("config: queue_depth must be positive")
	}
	if d.DrainTimeoutSec < 0 {
		return fmt.Errorf("config: drain_timeout_sec must be non-negative")
	}
	if !lattice.Known(d.Layout) {
		return fmt.Errorf("config: unknown layout %q (registered: %s)",
			d.Layout, strings.Join(lattice.Layouts(), ", "))
	}
	if d.Failpoints != "" {
		if err := fault.Validate(d.Failpoints); err != nil {
			return fmt.Errorf("config: failpoints: %w", err)
		}
	}
	if d.AnalyticsMaxGroups < 0 {
		return fmt.Errorf("config: analytics_max_groups must be non-negative")
	}
	if err := d.Tenants.Validate(); err != nil {
		return err
	}
	return d.Cluster.Validate()
}

// LoadDaemon reads and validates a daemon config file.
func LoadDaemon(path string) (Daemon, error) {
	f, err := os.Open(path)
	if err != nil {
		return Daemon{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return ReadDaemon(f)
}

// ReadDaemon parses a daemon config from r and validates it.
func ReadDaemon(r io.Reader) (Daemon, error) {
	var d Daemon
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Daemon{}, fmt.Errorf("config: parse: %w", err)
	}
	d = d.WithDefaults()
	return d, d.Validate()
}
