// Package cluster implements the horizontal scale-out substrate of the
// rescqd daemon: worker membership, liveness and load tracking for a
// coordinator node, plus the wire protocol and HTTP client the
// coordinator uses to shard sweep configurations across worker nodes.
//
// # Topology
//
// A cluster is one coordinator and N workers, all running the same rescqd
// binary in different modes. The coordinator keeps the public v1 API, the
// WAL, admission control and the result cache; workers execute batches of
// run configurations on the coordinator's behalf.
//
//	                POST /internal/v1/register   (worker -> coordinator,
//	                                              repeated as heartbeat)
//	+--------+     <------------------------     +----------+
//	| coord  |                                   | worker 1 |
//	|  (v1   |     ------------------------>     | worker 2 |
//	|  API)  |      POST /internal/v1/execute    | worker 3 |
//	+--------+       (coordinator -> worker)     +----------+
//
// Workers announce themselves (and stay alive) by POSTing a RegisterRequest
// to the coordinator at every heartbeat interval; a worker that misses the
// liveness window is expired and its in-flight batches are re-dispatched to
// survivors. The coordinator POSTs ExecuteRequests — batches of opaque,
// fully-validated run specifications — to the worker's execute endpoint and
// collects per-configuration results.
//
// # Wire format
//
// The register and drain control calls are JSON. Batches travel in one
// format only: plain binary frames (see EncodeExecuteRequestBinary), in
// both directions, never compressed. There is no codec negotiation, so a
// coordinator and its workers must run the same build; a worker answers
// any other Content-Type, or any Content-Encoding but identity, with 415.
//
// The package is deliberately ignorant of the service layer's spec and
// result schemas: each spec and each result travels as an opaque blob
// (the typed encodings of internal/resultcodec), so internal/service owns
// the payload shapes and this package owns membership, liveness, load
// accounting and transport.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Internal endpoint paths, mounted by the rescqd handler in the matching
// mode.
const (
	// RegisterPath is served by the coordinator; workers POST
	// RegisterRequests to it at every heartbeat interval.
	RegisterPath = "/internal/v1/register"
	// ExecutePath is served by workers; the coordinator POSTs
	// ExecuteRequests (batches of run specifications) to it.
	ExecutePath = "/internal/v1/execute"
	// DrainPath is served by workers; an autoscaler (or operator) POSTs to
	// it to retire the worker gracefully. A draining worker rejects new
	// batches, finishes its in-flight ones, announces the drain on its
	// heartbeats, and deregisters once idle.
	DrainPath = "/internal/v1/drain"
)

// RegisterRequest announces (or refreshes) a worker to the coordinator.
// The first request registers the worker; every subsequent one is a
// heartbeat that extends its liveness lease. Capacity may change between
// heartbeats (a worker that resizes its pool re-announces it).
type RegisterRequest struct {
	// ID uniquely names the worker; by convention its advertise URL.
	ID string `json:"id"`
	// URL is the base URL the coordinator dials for ExecutePath.
	URL string `json:"url"`
	// Capacity is the worker's batch parallelism: the coordinator keeps at
	// most this many batches in flight on the worker (min 1).
	Capacity int `json:"capacity"`
	// Draining announces that the worker is retiring: the coordinator must
	// fence it from new batches and release it (deregister, ack with
	// Released) once its in-flight count reaches zero. omitempty keeps
	// non-draining heartbeats decodable by pre-drain coordinators.
	Draining bool `json:"draining,omitempty"`
}

// RegisterResponse acknowledges a registration/heartbeat.
type RegisterResponse struct {
	// ExpiresInMS is the liveness lease: the worker is expired unless it
	// heartbeats again within this window.
	ExpiresInMS int64 `json:"expires_in_ms"`
	// Workers reports the cluster's current live-worker count.
	Workers int `json:"workers"`
	// Released tells a draining worker that the coordinator has dropped it
	// from the registry (its last in-flight batch finished): heartbeating
	// may stop and the process can exit.
	Released bool `json:"released,omitempty"`
}

// DrainResponse acknowledges a drain request on a worker.
type DrainResponse struct {
	// Draining is always true once the request is accepted (drains are
	// sticky and idempotent).
	Draining bool `json:"draining"`
	// Inflight is the number of batches still executing on the worker at
	// the time of the request.
	Inflight int `json:"inflight"`
}

// ExecuteConfig is one run configuration inside a batch: the
// coordinator-assigned global index of the configuration within its job,
// and the opaque service-layer spec.
type ExecuteConfig struct {
	Index int    `json:"index"`
	Spec  []byte `json:"spec"`
}

// ExecuteRequest is one dispatched batch.
type ExecuteRequest struct {
	// JobID names the coordinator job the batch belongs to (observability
	// only; workers do not track jobs).
	JobID string `json:"job_id"`
	// Batch is the batch's ordinal within the job (observability only).
	Batch int `json:"batch"`
	// Configs are the configurations to execute, in index order.
	Configs []ExecuteConfig `json:"configs"`
}

// ExecuteResponse carries one result per requested configuration, in the
// same order as the request's Configs. Each result is an opaque
// service-layer ConfigResult payload.
type ExecuteResponse struct {
	Results []json.RawMessage `json:"results"`
}

// Decoder limits: a hostile or corrupt dispatch request must not buffer
// unbounded bytes into a worker.
const (
	// MaxExecuteBody caps the encoded request size (circuit-text specs are
	// the largest legitimate payloads, well under a megabyte each).
	MaxExecuteBody = 16 << 20
	// MaxBatchConfigs caps configurations per batch; the coordinator's
	// batch size is always far below it.
	MaxBatchConfigs = 1024
)

func (req *ExecuteRequest) validate() error {
	if req.JobID == "" {
		return errors.New("cluster: execute request without job_id")
	}
	if req.Batch < 0 {
		return fmt.Errorf("cluster: negative batch ordinal %d", req.Batch)
	}
	if len(req.Configs) == 0 {
		return errors.New("cluster: execute request with empty batch")
	}
	if len(req.Configs) > MaxBatchConfigs {
		return fmt.Errorf("cluster: batch of %d configs exceeds the %d limit",
			len(req.Configs), MaxBatchConfigs)
	}
	for i, c := range req.Configs {
		if c.Index < 0 {
			return fmt.Errorf("cluster: config %d has negative index %d", i, c.Index)
		}
		if i > 0 && c.Index <= req.Configs[i-1].Index {
			return fmt.Errorf("cluster: config indices not strictly increasing at %d", i)
		}
		if len(c.Spec) == 0 {
			return fmt.Errorf("cluster: config %d has an empty spec", i)
		}
	}
	return nil
}

// WorkerInfo is a point-in-time public view of one registered worker, for
// /healthz and /metrics.
type WorkerInfo struct {
	ID       string  `json:"id"`
	URL      string  `json:"url"`
	Capacity int     `json:"capacity"`
	Inflight int     `json:"inflight"`
	AgeSec   float64 `json:"last_seen_age_sec"`
	// Failures is the worker's consecutive dispatch-failure count; Breaker
	// is its circuit state: "closed", "open" or "half-open".
	Failures int    `json:"failures,omitempty"`
	Breaker  string `json:"breaker"`
	// Draining reports that the worker announced a drain and is fenced
	// from new batches while its in-flight ones finish.
	Draining bool `json:"draining,omitempty"`
}

// nowFunc is the registry clock, swappable in tests.
type nowFunc func() time.Time
