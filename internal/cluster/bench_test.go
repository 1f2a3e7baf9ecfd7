package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// benchBatch builds a dispatch-sized batch with realistic sweep specs and
// the matching worker response full of result summaries — the payloads the
// coordinator<->worker wire actually carries.
func benchBatch(b *testing.B, configs int) (ExecuteRequest, ExecuteResponse) {
	req := ExecuteRequest{JobID: "job-000042", Batch: 1}
	resp := ExecuteResponse{}
	for i := 0; i < configs; i++ {
		req.Configs = append(req.Configs, ExecuteConfig{Index: i, Spec: json.RawMessage(fmt.Sprintf(
			`{"Benchmark":"gcm_n13","Scheduler":"dynamic","Opts":{"runs":3,"seed":%d,"distance":11,"keep_latencies":false}}`, i))})
		resp.Results = append(resp.Results, json.RawMessage(fmt.Sprintf(
			`{"benchmark":"gcm_n13","scheduler":"dynamic","runs":3,"mean_cycles":%d,"min_cycles":%d,"max_cycles":%d,"std_cycles":104.2,"mean_idle":0.131}`,
			812000+i, 811000+i, 813000+i)))
	}
	return req, resp
}

// BenchmarkWireBatchRoundTripBinary measures one batch dispatch's
// serialization work both ways: encode request, decode request (worker),
// encode response, decode response (coordinator). bytes/batch is the wire
// cost.
func BenchmarkWireBatchRoundTripBinary(b *testing.B) {
	req, resp := benchBatch(b, 64)
	b.ReportMetric(float64(len(EncodeExecuteRequestBinary(req))+len(EncodeExecuteResponseBinary(resp))), "bytes/batch")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqWire, respWire := EncodeExecuteRequestBinary(req), EncodeExecuteResponseBinary(resp)
		gotReq, err := DecodeExecuteRequestBinary(bytes.NewReader(reqWire))
		if err != nil {
			b.Fatal(err)
		}
		gotResp, err := DecodeExecuteResponseBinary(respWire)
		if err != nil {
			b.Fatal(err)
		}
		if len(gotReq.Configs) != len(req.Configs) || len(gotResp.Results) != len(resp.Results) {
			b.Fatal("round trip lost configs or results")
		}
	}
}
