package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// decodeAsWorker decodes a request body the way a worker's execute
// handler receives it from the coordinator: a plain binary frame.
func decodeAsWorker(body []byte, contentEncoding string) (ExecuteRequest, error) {
	return DecodeExecuteRequestAuto(bytes.NewReader(body), BinaryContentType, contentEncoding)
}

func TestDecodeExecuteRequestValid(t *testing.T) {
	req, err := decodeAsWorker(EncodeExecuteRequestBinary(sampleExecuteRequest()), "")
	if err != nil {
		t.Fatalf("decode valid request: %v", err)
	}
	if req.JobID != "job-000042" || len(req.Configs) != 2 || req.Configs[1].Index != 7 {
		t.Fatalf("decoded request = %+v", req)
	}
}

// TestDecodeExecuteRequestRejects: every malformed batch shape is refused
// at the worker's decode boundary. Shapes the binary encoding cannot
// express directly (a negative batch or index) arrive as the out-of-range
// uvarints a buggy encoder would produce.
func TestDecodeExecuteRequestRejects(t *testing.T) {
	spec := []byte(`{}`)
	frame := func(req ExecuteRequest) []byte { return EncodeExecuteRequestBinary(req) }
	var huge ExecuteRequest
	huge.JobID = "j"
	for i := 0; i <= MaxBatchConfigs; i++ {
		huge.Configs = append(huge.Configs, ExecuteConfig{Index: i, Spec: spec})
	}
	valid := frame(sampleExecuteRequest())
	// A well-formed frame whose body carries one field more than this
	// build knows: a trailing blob after the last config.
	body, err := openWireFrame(valid, wireKindRequest)
	if err != nil {
		t.Fatal(err)
	}
	unknownField := sealWireFrame(wireKindRequest, appendWireBlob(append([]byte(nil), body...), []byte("surprise")))
	cases := []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"not json", []byte(`{"job_id":"j","batch":0,"configs":[{"index":0,"spec":{}}]}`)},
		{"trailing data", append(append([]byte(nil), valid...), frame(ExecuteRequest{JobID: "x"})...)},
		{"unknown field", unknownField},
		{"missing job id", frame(ExecuteRequest{Configs: []ExecuteConfig{{Index: 0, Spec: spec}}})},
		{"negative batch", frame(ExecuteRequest{JobID: "j", Batch: -1, Configs: []ExecuteConfig{{Index: 0, Spec: spec}}})},
		{"empty batch", frame(ExecuteRequest{JobID: "j"})},
		{"negative index", frame(ExecuteRequest{JobID: "j", Configs: []ExecuteConfig{{Index: -1, Spec: spec}}})},
		{"non-increasing indices", frame(ExecuteRequest{JobID: "j", Configs: []ExecuteConfig{{Index: 1, Spec: spec}, {Index: 1, Spec: spec}}})},
		{"empty spec", frame(ExecuteRequest{JobID: "j", Configs: []ExecuteConfig{{Index: 0}}})},
		{"oversized batch", frame(huge)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeAsWorker(tc.body, ""); err == nil {
				t.Fatalf("decode accepted %s", tc.name)
			}
		})
	}
}

// TestExecuteRequestRoundTrip: a request encoded as the coordinator sends
// it decodes back to itself, so the coordinator's encoder and the
// worker's strict decoder agree.
func TestExecuteRequestRoundTrip(t *testing.T) {
	in := bigExecuteRequest(32)
	out, err := decodeAsWorker(EncodeExecuteRequestBinary(in), "")
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.JobID != in.JobID || out.Batch != in.Batch || len(out.Configs) != len(in.Configs) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for i := range in.Configs {
		if out.Configs[i].Index != in.Configs[i].Index ||
			string(out.Configs[i].Spec) != string(in.Configs[i].Spec) {
			t.Fatalf("config %d mismatch: %+v vs %+v", i, out.Configs[i], in.Configs[i])
		}
	}
}

func sampleExecuteRequest() ExecuteRequest {
	return ExecuteRequest{
		JobID: "job-000042",
		Batch: 3,
		Configs: []ExecuteConfig{
			{Index: 4, Spec: json.RawMessage(`{"Benchmark":"gcm_n13","Opts":{"runs":1}}`)},
			{Index: 7, Spec: json.RawMessage(`{"Experiment":"fig10","Quick":true}`)},
		},
	}
}

// TestBinaryExecuteRequestRoundTrip: the binary framing carries every
// field, byte-for-byte on every spec.
func TestBinaryExecuteRequestRoundTrip(t *testing.T) {
	in := sampleExecuteRequest()
	frame := EncodeExecuteRequestBinary(in)
	out, err := DecodeExecuteRequestBinary(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.JobID != in.JobID || out.Batch != in.Batch || len(out.Configs) != len(in.Configs) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for i := range in.Configs {
		if out.Configs[i].Index != in.Configs[i].Index ||
			string(out.Configs[i].Spec) != string(in.Configs[i].Spec) {
			t.Fatalf("config %d mismatch: %+v vs %+v", i, out.Configs[i], in.Configs[i])
		}
	}
}

func TestBinaryExecuteResponseRoundTrip(t *testing.T) {
	in := ExecuteResponse{Results: []json.RawMessage{
		json.RawMessage(`{"total_cycles":812345}`),
		json.RawMessage(`{"total_cycles":812399,"mean_idle_fraction":0.131}`),
	}}
	out, err := DecodeExecuteResponseBinary(EncodeExecuteResponseBinary(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Results) != 2 || string(out.Results[0]) != string(in.Results[0]) ||
		string(out.Results[1]) != string(in.Results[1]) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	empty, err := DecodeExecuteResponseBinary(EncodeExecuteResponseBinary(ExecuteResponse{}))
	if err != nil || len(empty.Results) != 0 {
		t.Fatalf("empty response round trip: %+v err=%v", empty, err)
	}
}

// TestBinaryExecuteRequestRejects: the binary decoder is the worker's
// trust boundary — every malformed or cap-violating frame must be refused,
// never mis-parsed.
func TestBinaryExecuteRequestRejects(t *testing.T) {
	valid := EncodeExecuteRequestBinary(sampleExecuteRequest())
	flipCRC := append([]byte(nil), valid...)
	flipCRC[len(flipCRC)-1] ^= 0x01
	flipBody := append([]byte(nil), valid...)
	flipBody[len(flipBody)/2] ^= 0x40
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[3] = wireVersion + 1
	wrongKind := EncodeExecuteResponseBinary(ExecuteResponse{Results: []json.RawMessage{[]byte(`{}`)}})
	trailing := append(append([]byte(nil), valid...), 0xde, 0xad)
	empty := EncodeExecuteRequestBinary(ExecuteRequest{JobID: "j"})
	emptySpec := EncodeExecuteRequestBinary(ExecuteRequest{JobID: "j",
		Configs: []ExecuteConfig{{Index: 0}}})
	decreasing := EncodeExecuteRequestBinary(ExecuteRequest{JobID: "j",
		Configs: []ExecuteConfig{{Index: 2, Spec: []byte(`{}`)}, {Index: 1, Spec: []byte(`{}`)}}})
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty frame", nil},
		{"garbage", []byte("batch batch batch")},
		{"truncated", valid[:len(valid)-5]},
		{"crc flip", flipCRC},
		{"body flip", flipBody},
		{"wrong version", wrongVersion},
		{"wrong kind", wrongKind},
		{"trailing data", trailing},
		{"no configs", empty},
		{"empty spec", emptySpec},
		{"non-increasing indices", decreasing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeExecuteRequestBinary(bytes.NewReader(tc.frame)); err == nil {
				t.Fatalf("decode accepted %s", tc.name)
			}
		})
	}
}

// TestDecodeExecuteRequestAuto: the worker-side decoder accepts only plain
// binary frames; a JSON body, or any Content-Encoding but identity (gzip
// included), is an unsupported media type.
func TestDecodeExecuteRequestAuto(t *testing.T) {
	in := sampleExecuteRequest()
	jsonBody, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	binBody := EncodeExecuteRequestBinary(in)
	gzBody := gzipBytes(t, binBody)
	cases := []struct {
		name, ct, ce string
		body         []byte
		unsupported  bool
	}{
		{"json", "application/json", "", jsonBody, true},
		{"json default ct", "", "", jsonBody, true},
		{"binary", BinaryContentType, "", binBody, false},
		{"binary with charset", BinaryContentType + "; charset=utf-8", "", binBody, false},
		{"binary gzip", BinaryContentType, "gzip", gzBody, true},
		{"json gzip", "application/json", "gzip", gzipBytes(t, jsonBody), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeExecuteRequestAuto(bytes.NewReader(tc.body), tc.ct, tc.ce)
			if tc.unsupported {
				if !errors.Is(err, ErrUnsupportedMediaType) {
					t.Fatalf("err = %v, want ErrUnsupportedMediaType", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if req.JobID != in.JobID || len(req.Configs) != len(in.Configs) {
				t.Fatalf("req=%+v", req)
			}
		})
	}
	for _, ce := range []string{"br", "deflate", "gzip"} {
		if _, err := DecodeExecuteRequestAuto(bytes.NewReader(binBody), BinaryContentType, ce); !errors.Is(err, ErrUnsupportedMediaType) {
			t.Fatalf("content encoding %q: err = %v, want ErrUnsupportedMediaType", ce, err)
		}
	}
	if _, err := DecodeExecuteRequestAuto(bytes.NewReader(binBody), BinaryContentType, "identity"); err != nil {
		t.Fatalf("identity encoding: %v", err)
	}
}

func TestMaybeGzip(t *testing.T) {
	small := []byte("tiny")
	if out, ok := MaybeGzip(small); ok || !bytes.Equal(out, small) {
		t.Fatal("small body compressed")
	}
	big := bytes.Repeat([]byte(`{"total_cycles":812345,"mean_idle_fraction":0.131}`), 100)
	out, ok := MaybeGzip(big)
	if !ok || len(out) >= len(big) {
		t.Fatalf("compressible body not compressed: %d -> %d", len(big), len(out))
	}
	zr, err := gzip.NewReader(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	round, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(round, big) {
		t.Fatalf("gzip round trip: %v", err)
	}
}

func gzipBytes(t *testing.T, p []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
