package config

import (
	"fmt"
	"net/url"
	"time"
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
// single-node behavior, byte-identical. Only the mode, the peer URLs and
// the three deployment-dependent timings are settable; the per-batch cap,
// dispatch retries and backoff, circuit breaker, heartbeat jitter and
// HTTP timeouts are fixed (see cmd/rescqd/README.md, "Failure
// semantics").
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
	// BatchTargetMS is how much estimated work (per-config p50 latency x
	// batch length, in milliseconds) the coordinator aims to pack into one
	// dispatch batch (default 500). Lower values favour load balance on
	// skewed workloads; higher values favour per-batch overhead
	// amortization. The coordinator's fixed per-batch cap of 8
	// configurations still applies.
	BatchTargetMS int `json:"batch_target_ms,omitempty"`
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
	if c.BatchTargetMS == 0 {
		c.BatchTargetMS = 500
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
	if c.BatchTargetMS < 0 {
		return fmt.Errorf("config: batch_target_ms must be non-negative, got %d", c.BatchTargetMS)
	}
	return nil
}
