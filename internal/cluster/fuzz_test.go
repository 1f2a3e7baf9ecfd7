package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"testing"
)

// checkAccepted fails the fuzz run if an accepted request breaks the
// decoder's documented invariants or does not survive a binary
// re-encode/re-decode.
func checkAccepted(t *testing.T, req ExecuteRequest) {
	t.Helper()
	if req.JobID == "" || req.Batch < 0 {
		t.Fatalf("accepted request with bad header: %+v", req)
	}
	if len(req.Configs) == 0 || len(req.Configs) > MaxBatchConfigs {
		t.Fatalf("accepted batch of %d configs", len(req.Configs))
	}
	for i, c := range req.Configs {
		if c.Index < 0 || len(c.Spec) == 0 {
			t.Fatalf("accepted bad config %d: %+v", i, c)
		}
		if i > 0 && c.Index <= req.Configs[i-1].Index {
			t.Fatalf("accepted non-increasing indices at %d", i)
		}
	}
	again, err := DecodeExecuteRequestBinary(bytes.NewReader(EncodeExecuteRequestBinary(req)))
	if err != nil {
		t.Fatalf("re-decode encoded request: %v", err)
	}
	if again.JobID != req.JobID || len(again.Configs) != len(req.Configs) {
		t.Fatalf("round trip changed the batch: %+v vs %+v", again, req)
	}
}

// FuzzDecodeExecuteRequest hammers the worker-side trust boundary as the
// execute handler drives it: a body under the binary Content-Type, with
// or without a gzip Content-Encoding. It must never panic, must reject
// every gzip-encoded body as an unsupported media type without decoding
// it, must never accept a request that violates its own invariants, and
// accepted requests must re-encode and re-decode to the same batch.
func FuzzDecodeExecuteRequest(f *testing.F) {
	valid := EncodeExecuteRequestBinary(sampleExecuteRequest())
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(valid)
	zw.Close()
	f.Add(valid, false)
	f.Add(gz.Bytes(), true)
	f.Add(gz.Bytes()[:gz.Len()/2], true) // torn gzip stream
	f.Add(valid, true)                   // gzip header missing
	f.Add([]byte(`{"job_id":"j","configs":[{"index":0,"spec":{}}]}`), false)
	f.Add([]byte{}, true)
	f.Add([]byte("\x00\xff garbage"), false)

	f.Fuzz(func(t *testing.T, data []byte, gzipped bool) {
		encoding := ""
		if gzipped {
			encoding = "gzip"
		}
		req, err := DecodeExecuteRequestAuto(bytes.NewReader(data), BinaryContentType, encoding)
		if gzipped && !errors.Is(err, ErrUnsupportedMediaType) {
			t.Fatalf("gzip-encoded body not rejected as unsupported: req %+v, err %v", req, err)
		}
		if err != nil {
			return
		}
		checkAccepted(t, req)
	})
}

// FuzzDecodeExecuteRequestBinary is the same contract for the frame
// decoder alone: no panics, no cap violations in accepted requests, and
// every accepted request survives a binary re-encode/re-decode.
func FuzzDecodeExecuteRequestBinary(f *testing.F) {
	valid := EncodeExecuteRequestBinary(ExecuteRequest{JobID: "job-000001", Batch: 2,
		Configs: []ExecuteConfig{
			{Index: 0, Spec: []byte(`{"Benchmark":"gcm_n13"}`)},
			{Index: 3, Spec: []byte(`{"Benchmark":"qft_n18","Opts":{"distance":5}}`)},
		}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:5])
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-2] ^= 0xff
	f.Add(crcFlip)
	future := append([]byte(nil), valid...)
	future[3] = wireVersion + 1
	f.Add(future)
	f.Add(EncodeExecuteResponseBinary(ExecuteResponse{Results: []json.RawMessage{[]byte(`{}`)}}))
	f.Add([]byte("RQX"))
	f.Add([]byte("\x00\xff garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeExecuteRequestBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkAccepted(t, req)
	})
}
