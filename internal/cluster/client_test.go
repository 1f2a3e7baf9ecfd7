package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// countingServer is an httptest server that counts accepted TCP
// connections, so tests can assert the client reuses its pooled
// connection instead of churning a fresh one per request.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// TestErrorRepliesReuseConnection: a non-200 reply must not cost the
// connection. The old client closed the body with the tail of the error
// reply unread, which tears down the pooled connection — a coordinator
// retrying against an erroring worker then opened a fresh TCP connection
// per attempt.
func TestErrorRepliesReuseConnection(t *testing.T) {
	srv, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// An error reply bigger than the client's 512-byte preview, so the
		// unread tail is what the drain has to consume.
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "worker exploded: %s", strings.Repeat("boom ", 1024))
	}))
	c := NewTunedClient()
	req := sampleExecuteRequest()
	for i := 0; i < 5; i++ {
		_, _, err := c.Execute(context.Background(), srv.URL, req)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("5 error replies used %d connections, want 1 (body not drained?)", n)
	}
}

// TestDecodeErrorReuseConnection: same property on the decode-failure
// path — a 200 whose body the client gives up on mid-decode.
func TestDecodeErrorReuseConnection(t *testing.T) {
	srv, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", BinaryContentType)
		fmt.Fprintf(w, `{"results": "not a frame", "padding": %q}`, strings.Repeat("x", 4096))
	}))
	c := NewTunedClient()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Execute(context.Background(), srv.URL, sampleExecuteRequest()); err == nil {
			t.Fatal("bad response decoded")
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("3 decode failures used %d connections, want 1", n)
	}
}

// echoWorker is a handler that decodes an execute request as a worker
// does and answers one result per config (gzipped when the client
// advertised it and the body is big enough), recording the request's
// Content-Encoding.
func echoWorker(t *testing.T, sawEncoding *atomic.Value) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := DecodeExecuteRequestAuto(r.Body, r.Header.Get("Content-Type"), r.Header.Get("Content-Encoding"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sawEncoding.Store(r.Header.Get("Content-Encoding"))
		resp := ExecuteResponse{Results: make([]json.RawMessage, len(req.Configs))}
		for i, c := range req.Configs {
			resp.Results[i] = mustMarshal(t, map[string]any{"index": c.Index, "spec_bytes": len(c.Spec)})
		}
		body := EncodeExecuteResponseBinary(resp)
		if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			if gz, ok := MaybeGzip(body); ok {
				body = gz
				w.Header().Set("Content-Encoding", "gzip")
			}
		}
		w.Header().Set("Content-Type", BinaryContentType)
		w.Write(body)
	})
}

// TestExecuteWithBinary: a full binary dispatch round trip over real HTTP,
// including request gzip (the batch is padded past wireCompressMin) and a
// gzipped binary response, with the traffic counters seeing wire bytes.
func TestExecuteWithBinary(t *testing.T) {
	var saw atomic.Value
	srv, _ := countingServer(t, echoWorker(t, &saw))
	c := NewTunedClient()
	req := bigExecuteRequest(64)
	resp, traffic, err := c.Execute(context.Background(), srv.URL, req)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if saw.Load() != "gzip" {
		t.Fatalf("worker saw content encoding %v, want gzip", saw.Load())
	}
	if len(resp.Results) != len(req.Configs) {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if traffic.BytesOut == 0 || traffic.BytesIn == 0 {
		t.Fatalf("traffic = %+v", traffic)
	}
	// The request body repeats the same spec 64 times: gzip must have paid.
	if plain := int64(len(EncodeExecuteRequestBinary(req))); traffic.BytesOut >= plain {
		t.Fatalf("request not compressed: %d wire bytes vs %d plain", traffic.BytesOut, plain)
	}
}

// TestExecuteWithBinaryResultCountMismatch: a worker that returns fewer
// results than the batch holds is an error, never a short success.
func TestExecuteWithBinaryResultCountMismatch(t *testing.T) {
	srv, _ := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", BinaryContentType)
		w.Write(EncodeExecuteResponseBinary(ExecuteResponse{Results: []json.RawMessage{[]byte(`{}`)}}))
	}))
	c := NewTunedClient()
	_, _, err := c.Execute(context.Background(), srv.URL, bigExecuteRequest(4))
	if err == nil || !strings.Contains(err.Error(), "results for a") {
		t.Fatalf("err = %v", err)
	}
}

func bigExecuteRequest(configs int) ExecuteRequest {
	req := ExecuteRequest{JobID: "job-000042", Batch: 1}
	for i := 0; i < configs; i++ {
		req.Configs = append(req.Configs, ExecuteConfig{Index: i,
			Spec: json.RawMessage(`{"Benchmark":"gcm_n13","Scheduler":"dynamic","Opts":{"runs":3,"seed":42,"distance":11}}`)})
	}
	return req
}

func mustMarshal(t *testing.T, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
