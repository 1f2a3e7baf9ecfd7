package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/fault"
)

// StatusError is a non-200 reply from a cluster peer. The status code is
// what lets the dispatch loop separate peer-says-no (4xx: the request
// itself is bad — a poison batch; re-sending it anywhere is useless) from
// peer-is-broken (5xx: retry on another worker).
type StatusError struct {
	URL  string
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: %s: status %d: %s", e.URL, e.Code, e.Body)
}

// Terminal reports whether the failure condemns the request rather than
// the peer: a 4xx means re-dispatching the same payload to another worker
// would fail identically.
func (e *StatusError) Terminal() bool { return e.Code >= 400 && e.Code < 500 }

// RetryableDispatch reports whether a dispatch error is worth re-trying on
// another worker. Transport errors, timeouts and 5xx replies are; a 4xx
// (the worker validated and rejected the batch itself) is not.
func RetryableDispatch(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return !se.Terminal()
	}
	return true
}

// Intra-cluster transport bounds. The dial timeout makes an unreachable
// or blackholed peer fail fast instead of hanging a dispatcher on
// connect; the idle timeout is how long pooled connections stay open
// unused.
const (
	dialTimeout     = 10 * time.Second
	idleConnTimeout = 90 * time.Second
)

// Client is the coordinator<->worker HTTP client: the coordinator uses
// Execute to dispatch batches, workers use Register to announce themselves
// and heartbeat. The zero value is not usable; build with NewTunedClient.
type Client struct {
	hc *http.Client
}

// NewTunedClient returns a client tuned for intra-cluster traffic: no
// overall request timeout (a batch legitimately runs for as long as its
// simulations do — slow-but-alive workers are caught by the coordinator's
// per-batch deadline and liveness expiry, not a transport-level guess),
// but a bounded dial so an unreachable peer fails fast instead of hanging
// a dispatcher on connection establishment.
func NewTunedClient() *Client {
	return &Client{hc: &http.Client{
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   dialTimeout,
				KeepAlive: 15 * time.Second,
			}).DialContext,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     idleConnTimeout,
			// Frames travel uncompressed; without this the transport
			// would advertise gzip on every request on its own.
			DisableCompression: true,
		},
	}}
}

// joinURL appends path to a base URL without doubling slashes.
func joinURL(base, path string) string {
	return strings.TrimRight(base, "/") + path
}

func (c *Client) postJSON(ctx context.Context, url string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", url, err)
	}
	// Drain whatever the handler wrote past what we read (the tail of an
	// error reply, trailing junk after a decoded document) before closing:
	// a Close on an unread body tears down the pooled connection, and under
	// a burst of error replies that churned a fresh TCP connection per
	// retry instead of reusing one.
	defer func() {
		drainBody(resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &StatusError{URL: url, Code: resp.StatusCode, Body: string(bytes.TrimSpace(msg))}
	}
	// Responses are deliberately not size-capped: they come from peers this
	// node chose to talk to, and a large batch of KeepLatencies results is
	// legitimately bigger than any request bound. Truncating one here would
	// misread a healthy worker as broken and churn it out of the registry.
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("cluster: %s: decode response: %w", url, err)
	}
	return nil
}

// Register announces (or heartbeats) a worker to the coordinator.
func (c *Client) Register(ctx context.Context, coordinatorURL string, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	if err := fault.Check(fault.ClusterRegister); err != nil {
		return resp, err
	}
	err := c.postJSON(ctx, joinURL(coordinatorURL, RegisterPath), req, &resp)
	return resp, err
}

// WireTraffic reports what one dispatch put on the wire: the body bytes
// in each direction, as framed. Zero BytesOut means nothing was sent.
type WireTraffic struct {
	BytesOut int64
	BytesIn  int64
}

// Execute dispatches one batch to a worker and returns its results. The
// request is framed with EncodeExecuteRequestBinary and the response
// decoded with DecodeExecuteResponseBinary; neither is compressed. Any
// transport error (a SIGKILLed worker resets the connection) or non-200
// status marks the batch undelivered; the caller re-dispatches it.
func (c *Client) Execute(ctx context.Context, workerURL string, req ExecuteRequest) (ExecuteResponse, WireTraffic, error) {
	if err := fault.Check(fault.ClusterDispatch); err != nil {
		return ExecuteResponse{}, WireTraffic{}, err
	}
	body := EncodeExecuteRequestBinary(req)
	traffic := WireTraffic{BytesOut: int64(len(body))}
	url := joinURL(workerURL, ExecutePath)
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return ExecuteResponse{}, traffic, fmt.Errorf("cluster: %w", err)
	}
	httpReq.Header.Set("Content-Type", BinaryContentType)
	httpResp, err := c.hc.Do(httpReq)
	if err != nil {
		return ExecuteResponse{}, traffic, fmt.Errorf("cluster: %s: %w", url, err)
	}
	defer func() {
		drainBody(httpResp.Body)
		httpResp.Body.Close()
	}()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return ExecuteResponse{}, traffic, &StatusError{URL: url, Code: httpResp.StatusCode, Body: string(bytes.TrimSpace(msg))}
	}
	// Responses are deliberately not size-capped: they come from peers this
	// node chose to talk to, and a large batch of KeepLatencies results is
	// legitimately bigger than any request bound.
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return ExecuteResponse{}, traffic, fmt.Errorf("cluster: %s: read response: %w", url, err)
	}
	traffic.BytesIn = int64(len(raw))
	resp, err := DecodeExecuteResponseBinary(raw)
	if err != nil {
		return ExecuteResponse{}, traffic, fmt.Errorf("cluster: %s: decode response: %w", url, err)
	}
	if len(resp.Results) != len(req.Configs) {
		return ExecuteResponse{}, traffic, fmt.Errorf("cluster: worker returned %d results for a %d-config batch",
			len(resp.Results), len(req.Configs))
	}
	return resp, traffic, nil
}

// Backoff computes capped exponential retry delays with jitter: attempt n
// sleeps Base<<n, capped at Max, then scaled by a uniform factor in
// [0.5, 1.5) so a burst of failures (every batch of a dead worker erroring
// at once) decorrelates instead of retrying in lockstep. Both fields
// must be positive; each caller owns its policy.
type Backoff struct {
	Base time.Duration // first-retry delay
	Max  time.Duration // cap before jitter
}

// Delay returns the sleep before retry attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	d = min(d, b.Max)
	// math/rand's top-level functions are safe for concurrent use; the
	// jitter is deliberately unseeded (decorrelation, not reproducibility —
	// deterministic chaos runs come from fault's seeded triggers).
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Sleep blocks for Delay(attempt) or until ctx ends, reporting whether the
// full delay elapsed (false: the caller's work was cancelled mid-backoff).
func (b Backoff) Sleep(ctx context.Context, attempt int) bool {
	t := time.NewTimer(b.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Heartbeat policy. Each beat is spread by up to heartbeatJitter of the
// interval in either direction: without it, every worker that registered
// against the same coordinator boot heartbeats in phase, and a restarted
// coordinator takes the whole herd's re-register burst in one instant. A
// failed register POST is retried heartbeatRetries times within its beat.
const (
	heartbeatJitter  = 0.2
	heartbeatRetries = 4
)

// Heartbeater keeps a worker registered with its coordinator: one Register
// POST immediately, then one per (jittered) interval until the context
// ends. Failures are retried heartbeatRetries times within the beat with
// backoff, then again at the next beat (the coordinator may simply not be
// up yet); onError, when non-nil, observes them.
type Heartbeater struct {
	Client         *Client
	CoordinatorURL string
	Self           RegisterRequest
	Interval       time.Duration
	// OnError observes failed heartbeats (nil ignores them).
	OnError func(error)
	// Draining, when non-nil, is sampled before each beat; true marks the
	// heartbeat as a drain announcement. Once the coordinator acks the
	// drain with Released the loop calls OnReleased (if non-nil) and exits.
	Draining func() bool
	// OnReleased observes the coordinator releasing this worker at the end
	// of a drain (nil ignores it).
	OnReleased func()
}

// jitterInterval spreads interval by ±heartbeatJitter, drawing from the
// shared unseeded PRNG: decorrelation across workers is the goal, so
// sharing a seed would defeat it.
func jitterInterval(interval time.Duration) time.Duration {
	span := float64(interval) * heartbeatJitter
	return interval + time.Duration((rand.Float64()*2-1)*span)
}

// Run blocks, heartbeating until ctx is cancelled or the coordinator
// releases a drained worker. Each register attempt gets a deadline of one
// interval, so a blackholed coordinator cannot wedge the loop: the worker
// keeps retrying at cadence and re-registers the moment the network heals.
func (h *Heartbeater) Run(ctx context.Context) {
	backoff := Backoff{Base: h.Interval / 8, Max: h.Interval}
	for {
		if h.beat(ctx, backoff) {
			if h.OnReleased != nil {
				h.OnReleased()
			}
			return
		}
		t := time.NewTimer(jitterInterval(h.Interval))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// beat performs one registration with its bounded retry budget, reporting
// whether the coordinator released this (draining) worker.
func (h *Heartbeater) beat(ctx context.Context, backoff Backoff) (released bool) {
	self := h.Self
	if h.Draining != nil && h.Draining() {
		self.Draining = true
	}
	for attempt := 0; ; attempt++ {
		call, cancel := context.WithTimeout(ctx, h.Interval)
		resp, err := h.Client.Register(call, h.CoordinatorURL, self)
		cancel()
		if err == nil || ctx.Err() != nil {
			return err == nil && resp.Released
		}
		if h.OnError != nil {
			h.OnError(err)
		}
		if attempt >= heartbeatRetries {
			return false // budget spent; the next beat tries again
		}
		if !backoff.Sleep(ctx, attempt) {
			return false
		}
	}
}
