package resultcodec

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	rescq "repro"
)

// fixtures covers every optional part and flag of the encoding: a sweep
// result as the daemon persists it, a cached one with layout params and
// latencies, an experiment report, an error, and the empty-versus-nil
// cases the JSON form tells apart.
func fixtures() []ConfigResult {
	opts := rescq.Options{Scheduler: "rescq", Distance: 7, PhysError: 1e-4, K: 25, TauMST: 100, Runs: 3, Seed: 1}
	compact := rescq.Options{Scheduler: "greedy", Layout: "compact",
		LayoutParams: map[string]string{"seed": "3", "fraction": "0.5", "": "x"},
		Distance:     11, PhysError: 1e-3, Compression: 0.25, Runs: 1, Seed: -9}
	sum := &rescq.Summary{Benchmark: "gcm_n13", Scheduler: "rescq", MeanCycles: 48217.333333333336,
		MinCycles: 48211, MaxCycles: 48224, StdCycles: 5.43, MeanIdle: 0.312}
	for i := 0; i < 3; i++ {
		sum.Runs = append(sum.Runs, rescq.Result{Scheduler: "rescq", Benchmark: "gcm_n13", Seed: int64(1 + i),
			TotalCycles: 48211 + 6*i, MeanIdleFraction: 0.31, PrepsStarted: 911, InjectionsCount: 402, EdgeRotations: 87})
	}
	lat := &rescq.Summary{Benchmark: "qft_n18", Scheduler: "greedy", Runs: []rescq.Result{{
		Scheduler: "greedy", Benchmark: "qft_n18", Seed: 1, TotalCycles: 900,
		CNOTLatencies: []int{0, 3, 1 << 40, -2}, RzLatencies: []int{7}, MeanIdleFraction: math.SmallestNonzeroFloat64,
	}}, MeanCycles: 900, MinCycles: 900, MaxCycles: 900, MeanIdle: math.Copysign(0, -1)}
	return []ConfigResult{
		{Index: 0, Benchmark: "gcm_n13", Scheduler: "rescq", Layout: "star", Options: &opts, Summary: sum},
		{Index: 1 << 33, Benchmark: "qft_n18", Scheduler: "greedy", Layout: "compact", Options: &compact, Cached: true, Summary: lat},
		{Index: 2, Report: "==== fig13 ====\nd  cycles\n7  48211 <&>\n"},
		{Index: 3, Benchmark: "gcm_n13", Scheduler: "rescq", Layout: "star", Options: &opts, Error: "rescq: distance 4 must be odd — ü"},
		{Index: 4, Summary: &rescq.Summary{}},                       // nil runs: "runs":null
		{Index: 5, Summary: &rescq.Summary{Runs: []rescq.Result{}}}, // empty runs: "runs":[]
		{Index: -1},
		{},
	}
}

// TestRoundTripAndJSONIdentity: every fixture decodes to a result that
// marshals to the same JSON as the original, re-encodes to the same
// bytes, and JSON reproduces the original's JSON from the typed bytes.
func TestRoundTripAndJSONIdentity(t *testing.T) {
	for i, want := range fixtures() {
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		typed, err := Append(nil, &want)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		if typed[0] != tag {
			t.Fatalf("fixture %d starts with %#x", i, typed[0])
		}
		var got ConfigResult
		if err := Decode(typed, &got); err != nil {
			t.Fatalf("fixture %d: decode: %v", i, err)
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("fixture %d JSON after round trip:\n got %s\nwant %s", i, gotJSON, wantJSON)
		}
		again, err := Append(nil, &got)
		if err != nil || !bytes.Equal(again, typed) {
			t.Fatalf("fixture %d re-encodes differently (err %v)", i, err)
		}
		viaJSON, err := JSON(typed)
		if err != nil || !bytes.Equal(viaJSON, wantJSON) {
			t.Fatalf("fixture %d: JSON(typed) = %s, %v; want %s", i, viaJSON, err, wantJSON)
		}
		// The JSON form decodes to the same result, and passes through
		// JSON untouched.
		var fromJSON ConfigResult
		if err := Decode(wantJSON, &fromJSON); err != nil {
			t.Fatal(err)
		}
		if b, _ := json.Marshal(fromJSON); !bytes.Equal(b, wantJSON) {
			t.Fatalf("fixture %d: JSON payload decodes to %s", i, b)
		}
		if same, err := JSON(wantJSON); err != nil || !bytes.Equal(same, wantJSON) {
			t.Fatalf("fixture %d: JSON(json) changed the payload", i)
		}
	}
}

// TestDecodeIntoReusedValue: Decode overwrites every field, so a value
// reused across payloads keeps nothing from the previous one.
func TestDecodeIntoReusedValue(t *testing.T) {
	fx := fixtures()
	a, _ := Append(nil, &fx[1])
	b, _ := Append(nil, &fx[6])
	var r ConfigResult
	if err := Decode(a, &r); err != nil {
		t.Fatal(err)
	}
	if err := Decode(b, &r); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(r); string(got) != `{"index":-1,"cached":false}` {
		t.Fatalf("reused value = %s", got)
	}
	if err := Decode([]byte(`{"index":9}`), &r); err != nil || r.Index != 9 || r.Cached {
		t.Fatalf("JSON into reused value = %+v, %v", r, err)
	}
}

// TestAppendRefusesWhatJSONCannotHold: a result JSON could not marshal
// (a non-finite float) or would rewrite (invalid UTF-8) has no typed
// encoding either, and a failed Append leaves dst as it was.
func TestAppendRefusesWhatJSONCannotHold(t *testing.T) {
	dst := []byte("prefix")
	for _, r := range []ConfigResult{
		{Summary: &rescq.Summary{MeanCycles: math.NaN()}},
		{Options: &rescq.Options{PhysError: math.Inf(1)}},
		{Summary: &rescq.Summary{Runs: []rescq.Result{{MeanIdleFraction: math.Inf(-1)}}}},
		{Error: "bad \xff byte"},
		{Options: &rescq.Options{LayoutParams: map[string]string{"k": "\xc3"}}},
	} {
		out, err := Append(dst, &r)
		if err == nil {
			t.Fatalf("Append(%+v) succeeded", r)
		}
		if string(out) != "prefix" {
			t.Fatalf("failed Append returned %q", out)
		}
	}
}

// TestDecodeRefusesNonCanonical: byte strings Append never produces are
// refused, so no two accepted payloads decode to the same result.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	fx := fixtures()
	base, _ := Append(nil, &fx[6]) // {Index: -1}: tag, flags, varint(-1)=1, two empty strings x5
	cases := map[string][]byte{
		"empty":          {},
		"tag only":       {tag},
		"wrong tag":      append([]byte{2}, base[1:]...),
		"unknown flag":   append([]byte{tag, 0x80}, base[2:]...),
		"unknown flag 3": append([]byte{tag, 1 << 3}, base[2:]...),
		"nil runs alone": append([]byte{tag, flagNilRuns}, base[2:]...),
		"padded varint":  append([]byte{tag, 0, 0x81, 0x00}, base[3:]...),
		"trailing byte":  append(append([]byte{}, base...), 0),
		"truncated":      base[:len(base)-1],
	}
	// Params out of order: encode, then swap the two keys' bytes.
	two := ConfigResult{Options: &rescq.Options{LayoutParams: map[string]string{"a": "1", "b": "2"}}}
	enc, _ := Append(nil, &two)
	i := bytes.Index(enc, []byte{1, 'a', 1, '1', 1, 'b', 1, '2'})
	swapped := append([]byte{}, enc...)
	copy(swapped[i:], []byte{1, 'b', 1, '2', 1, 'a', 1, '1'})
	cases["params out of order"] = swapped
	dup := append([]byte{}, enc...)
	copy(dup[i:], []byte{1, 'a', 1, '1', 1, 'a', 1, '2'})
	cases["duplicate param"] = dup
	// A NaN mean_cycles, spliced into a valid summary's float bytes.
	withSum, _ := Append(nil, &ConfigResult{Summary: &rescq.Summary{MeanCycles: 1.5}})
	j := bytes.Index(withSum, binaryLE(math.Float64bits(1.5)))
	nan := append([]byte{}, withSum...)
	copy(nan[j:], binaryLE(math.Float64bits(math.NaN())))
	cases["nan"] = nan
	// A run count no remaining bytes could hold.
	huge := append([]byte{tag, flagSummary, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, make([]byte, 40)...)
	cases["run count beyond input"] = huge

	for name, b := range cases {
		if _, err := decodeTyped(b); err == nil {
			t.Errorf("%s: decoded %x", name, b)
		}
	}
}

func binaryLE(v uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// FuzzDecodeResult: the typed decoder never panics, allocates in
// proportion to its input, and every payload it accepts re-encodes to
// exactly the same bytes and marshals to JSON.
func FuzzDecodeResult(f *testing.F) {
	for _, r := range fixtures() {
		b, err := Append(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{tag, flagSummary, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{tag, flagOptions, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeTyped(data)
		if err != nil {
			return
		}
		// What the decoder allocated for is bounded by the bytes that
		// encode it: every run, param and latency costs input bytes.
		claimed := 0
		if o := res.Options; o != nil {
			claimed += minParamBytes * len(o.LayoutParams)
		}
		if s := res.Summary; s != nil {
			claimed += minRunBytes * len(s.Runs)
			for _, run := range s.Runs {
				claimed += len(run.CNOTLatencies) + len(run.RzLatencies)
			}
		}
		if claimed > len(data) {
			t.Fatalf("decoded %d bytes' worth of elements from %d input bytes", claimed, len(data))
		}
		again, err := Append(nil, &res)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, data)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("accepted payload does not marshal: %v", err)
		}
	})
}

// TestDecodeAllocationsBoundedByInput: a short payload claiming huge
// counts is refused before anything is allocated for them.
func TestDecodeAllocationsBoundedByInput(t *testing.T) {
	claims := [][]byte{
		{tag, flagSummary, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, // runs
		{tag, flagOptions, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, // params
		{tag, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},                          // a string
		append([]byte{tag, flagSummary, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x0f},
			make([]byte, 20)...), // latencies
	}
	for _, b := range claims {
		allocs := testing.AllocsPerRun(10, func() { decodeTyped(b) })
		if allocs > 2 {
			t.Errorf("%x: %v allocations", b, allocs)
		}
	}
}
