package config

import (
	"fmt"
	"net/url"
	"time"

	"repro/internal/cluster"
)

// Daemon modes: how a rescqd process participates in a cluster.
const (
	// ModeStandalone is the single-node default: the daemon executes every
	// configuration on its own worker pool. An empty mode means standalone.
	ModeStandalone = "standalone"
	// ModeCoordinator keeps the public v1 API, WAL, admission control and
	// result cache, but shards sweep configurations into batches dispatched
	// to registered workers (falling back to the local pool when none are
	// registered).
	ModeCoordinator = "coordinator"
	// ModeWorker serves POST /internal/v1/execute for a coordinator and
	// keeps itself registered there via heartbeats.
	ModeWorker = "worker"
)

// Cluster configures the coordinator/worker scale-out of a rescqd daemon
// (see internal/cluster). The zero value means standalone — today's
// single-node behavior, byte-identical.
type Cluster struct {
	// Mode is "", "standalone", "coordinator" or "worker".
	Mode string `json:"mode,omitempty"`
	// CoordinatorURL is the coordinator's base URL; required in worker
	// mode, rejected otherwise.
	CoordinatorURL string `json:"coordinator_url,omitempty"`
	// AdvertiseURL is the base URL the coordinator should dial back for
	// this worker's execute endpoint. Empty lets cmd/rescqd derive
	// http://127.0.0.1:<bound port>. Worker mode only.
	AdvertiseURL string `json:"advertise_url,omitempty"`
	// HeartbeatIntervalMS is the worker registration/heartbeat cadence and
	// the coordinator's expiry-sweep cadence (default 2000).
	HeartbeatIntervalMS int `json:"heartbeat_interval_ms,omitempty"`
	// LivenessExpiryMS is how long a worker may miss heartbeats before the
	// coordinator expires it and re-dispatches its batches (default 3x the
	// heartbeat interval). Must exceed the heartbeat interval.
	LivenessExpiryMS int `json:"liveness_expiry_ms,omitempty"`
	// BatchSize is the hard cap on sweep configurations per dispatch batch
	// (default 8). The adaptive sizer never exceeds it.
	BatchSize int `json:"batch_size,omitempty"`
	// BatchTargetMS is how much estimated work (per-config p50 latency x
	// batch length, in milliseconds) the coordinator aims to pack into one
	// dispatch batch (default 500). Lower values favour load balance on
	// skewed workloads; higher values favour per-batch overhead
	// amortization. BatchSize stays the hard per-batch cap.
	BatchTargetMS int `json:"batch_target_ms,omitempty"`
	// DialTimeoutMS bounds connection establishment to a cluster peer, so
	// an unreachable or blackholed node fails fast instead of hanging a
	// dispatcher (default 10000).
	DialTimeoutMS int `json:"dial_timeout_ms,omitempty"`
	// IdleConnTimeoutMS is how long pooled intra-cluster connections stay
	// open unused (default 90000).
	IdleConnTimeoutMS int `json:"idle_conn_timeout_ms,omitempty"`
	// RetryBackoffMS is the base of the exponential backoff (with jitter)
	// between dispatch retries of one batch (default 100).
	RetryBackoffMS int `json:"retry_backoff_ms,omitempty"`
	// DispatchRetries is the retry budget: how many times one batch chases
	// failing workers before the coordinator runs it locally (default 4).
	DispatchRetries int `json:"dispatch_retries,omitempty"`
	// BreakerFailures is the per-worker circuit-breaker threshold: this
	// many consecutive dispatch failures open the breaker, taking the
	// worker out of rotation until a half-open probe succeeds (default 3).
	BreakerFailures int `json:"breaker_failures,omitempty"`
	// BreakerCooldownMS is how long an open breaker waits before allowing
	// a half-open probe batch (default 5000).
	BreakerCooldownMS int `json:"breaker_cooldown_ms,omitempty"`
	// HeartbeatJitter spreads each worker's heartbeat interval by up to
	// this fraction in either direction, so a restarted coordinator is not
	// hit by a synchronized re-register thundering herd (default 0.2,
	// max 0.5; negative disables — exact cadence, test use only).
	HeartbeatJitter float64 `json:"heartbeat_jitter,omitempty"`
}

// Clustered reports whether the daemon participates in a cluster (either
// side); standalone and empty modes are not clustered.
func (c Cluster) Clustered() bool {
	return c.Mode == ModeCoordinator || c.Mode == ModeWorker
}

// WithDefaults fills unset cluster fields. Defaults are only materialized
// for cluster modes, so a standalone daemon's config stays zero (and
// byte-identical to pre-cluster configs).
func (c Cluster) WithDefaults() Cluster {
	if !c.Clustered() {
		return c
	}
	if c.HeartbeatIntervalMS == 0 {
		c.HeartbeatIntervalMS = 2000
	}
	if c.LivenessExpiryMS == 0 {
		c.LivenessExpiryMS = 3 * c.HeartbeatIntervalMS
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.BatchTargetMS == 0 {
		c.BatchTargetMS = 500
	}
	if c.DialTimeoutMS == 0 {
		c.DialTimeoutMS = 10_000
	}
	if c.IdleConnTimeoutMS == 0 {
		c.IdleConnTimeoutMS = 90_000
	}
	if c.RetryBackoffMS == 0 {
		c.RetryBackoffMS = 100
	}
	if c.DispatchRetries == 0 {
		c.DispatchRetries = 4
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldownMS == 0 {
		c.BreakerCooldownMS = 5000
	}
	if c.HeartbeatJitter == 0 {
		c.HeartbeatJitter = 0.2
	}
	if c.HeartbeatJitter < 0 {
		c.HeartbeatJitter = 0 // explicit opt-out: exact cadence
	}
	return c
}

// BatchTarget returns the per-batch work target as a duration.
func (c Cluster) BatchTarget() time.Duration {
	return time.Duration(c.BatchTargetMS) * time.Millisecond
}

// HeartbeatInterval returns the heartbeat cadence as a duration.
func (c Cluster) HeartbeatInterval() time.Duration {
	return time.Duration(c.HeartbeatIntervalMS) * time.Millisecond
}

// LivenessExpiry returns the liveness window as a duration.
func (c Cluster) LivenessExpiry() time.Duration {
	return time.Duration(c.LivenessExpiryMS) * time.Millisecond
}

// DialTimeout returns the peer-dial bound as a duration.
func (c Cluster) DialTimeout() time.Duration {
	return time.Duration(c.DialTimeoutMS) * time.Millisecond
}

// IdleConnTimeout returns the pooled-connection idle bound as a duration.
func (c Cluster) IdleConnTimeout() time.Duration {
	return time.Duration(c.IdleConnTimeoutMS) * time.Millisecond
}

// RetryBackoff returns the dispatch-retry backoff base as a duration.
func (c Cluster) RetryBackoff() time.Duration {
	return time.Duration(c.RetryBackoffMS) * time.Millisecond
}

// BreakerCooldown returns the open-breaker cooldown as a duration.
func (c Cluster) BreakerCooldown() time.Duration {
	return time.Duration(c.BreakerCooldownMS) * time.Millisecond
}

// peerURL validates a cluster peer URL: absolute http(s) with a host.
func peerURL(field, raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("config: %s %q: %w", field, raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("config: %s %q must be an absolute http(s) URL", field, raw)
	}
	if u.Host == "" {
		return fmt.Errorf("config: %s %q has no host", field, raw)
	}
	return nil
}

// Validate reports cluster configuration errors.
func (c Cluster) Validate() error {
	switch c.Mode {
	case "", ModeStandalone:
		// Cluster-only knobs set without a cluster mode are a config
		// mistake (a worker that silently never registers), not a default
		// to be ignored.
		if c.CoordinatorURL != "" {
			return fmt.Errorf("config: coordinator_url is set but mode is standalone")
		}
		if c.AdvertiseURL != "" {
			return fmt.Errorf("config: advertise_url is set but mode is standalone")
		}
		return nil
	case ModeCoordinator:
		if c.CoordinatorURL != "" {
			return fmt.Errorf("config: coordinator_url is set but mode is coordinator (workers dial in; the coordinator has no upstream)")
		}
		if c.AdvertiseURL != "" {
			return fmt.Errorf("config: advertise_url is worker-only")
		}
	case ModeWorker:
		if c.CoordinatorURL == "" {
			return fmt.Errorf("config: worker mode requires coordinator_url")
		}
		if err := peerURL("coordinator_url", c.CoordinatorURL); err != nil {
			return err
		}
		if c.AdvertiseURL != "" {
			if err := peerURL("advertise_url", c.AdvertiseURL); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("config: unknown mode %q (want %s, %s or %s)",
			c.Mode, ModeStandalone, ModeCoordinator, ModeWorker)
	}
	// Cluster modes from here on.
	if c.HeartbeatIntervalMS <= 0 {
		return fmt.Errorf("config: heartbeat_interval_ms must be positive, got %d", c.HeartbeatIntervalMS)
	}
	if c.LivenessExpiryMS <= c.HeartbeatIntervalMS {
		return fmt.Errorf("config: liveness_expiry_ms (%d) must exceed heartbeat_interval_ms (%d)",
			c.LivenessExpiryMS, c.HeartbeatIntervalMS)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("config: batch_size must be positive, got %d", c.BatchSize)
	}
	if c.BatchSize > cluster.MaxBatchConfigs {
		// Workers hard-reject oversized batches at their decode boundary;
		// letting one through would make the coordinator misread every
		// healthy worker's 400 as a death and churn the registry.
		return fmt.Errorf("config: batch_size %d exceeds the per-batch limit %d",
			c.BatchSize, cluster.MaxBatchConfigs)
	}
	if c.BatchTargetMS < 0 {
		return fmt.Errorf("config: batch_target_ms must be non-negative, got %d", c.BatchTargetMS)
	}
	// Resilience knobs: zero means "the WithDefaults value applies" (the
	// daemon flow fills defaults before validating), so only explicitly
	// negative settings are configuration errors here.
	if c.DialTimeoutMS < 0 {
		return fmt.Errorf("config: dial_timeout_ms must be non-negative, got %d", c.DialTimeoutMS)
	}
	if c.IdleConnTimeoutMS < 0 {
		return fmt.Errorf("config: idle_conn_timeout_ms must be non-negative, got %d", c.IdleConnTimeoutMS)
	}
	if c.RetryBackoffMS < 0 {
		return fmt.Errorf("config: retry_backoff_ms must be non-negative, got %d", c.RetryBackoffMS)
	}
	if c.DispatchRetries < 0 {
		return fmt.Errorf("config: dispatch_retries must be non-negative, got %d", c.DispatchRetries)
	}
	if c.BreakerFailures < 0 {
		return fmt.Errorf("config: breaker_failures must be non-negative, got %d", c.BreakerFailures)
	}
	if c.BreakerCooldownMS < 0 {
		return fmt.Errorf("config: breaker_cooldown_ms must be non-negative, got %d", c.BreakerCooldownMS)
	}
	if c.HeartbeatJitter > 0.5 {
		return fmt.Errorf("config: heartbeat_jitter must be at most 0.5, got %g", c.HeartbeatJitter)
	}
	return nil
}
