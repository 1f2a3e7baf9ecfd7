package resultcodec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	rescq "repro"
)

// specFixtures covers each kind of spec a job holds: a sweep
// configuration, a latency-keeping run on a layout with params, a
// circuit-text run, an experiment, and the zero spec.
func specFixtures() []Spec {
	return []Spec{
		{Benchmark: "gcm_n13", Opts: rescq.Options{Scheduler: "rescq", Distance: 7, PhysError: 1e-4, K: 25, TauMST: 100, Runs: 3, Seed: 1}},
		{Benchmark: "vqe_n13", KeepLatencies: true, Opts: rescq.Options{Scheduler: "greedy", Layout: "compact",
			LayoutParams: map[string]string{"seed": "3", "fraction": "0.5", "": "x"},
			Distance:     11, PhysError: 3e-4, Compression: 0.25, Runs: 1, Seed: -9}},
		{Name: "bell — ü", CircuitText: "qubits 2\n2\ncnot 0 1\nrz 0 pi/4\n", Opts: rescq.Options{Distance: 5, PhysError: math.SmallestNonzeroFloat64}},
		{Experiment: "fig13", Quick: true, Opts: rescq.Options{Compression: math.Copysign(0, -1)}},
		{},
	}
}

func specPtrs(specs []Spec) []*Spec {
	out := make([]*Spec, len(specs))
	for i := range specs {
		out[i] = &specs[i]
	}
	return out
}

// TestSpecsRoundTripAndJSONIdentity: a spec list decodes to specs equal to
// the originals, re-encodes to the same bytes, and JSON reproduces the
// JSON the list marshals to. Lists of one spec, as a dispatch batch sends
// them, and the empty list round-trip too.
func TestSpecsRoundTripAndJSONIdentity(t *testing.T) {
	all := specFixtures()
	lists := [][]Spec{all, {}}
	for i := range all {
		lists = append(lists, all[i:i+1])
	}
	for i, want := range lists {
		typed, err := AppendSpecs(nil, specPtrs(want)...)
		if err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
		if typed[0] != specsTag {
			t.Fatalf("list %d starts with %#x", i, typed[0])
		}
		got, err := DecodeSpecs(typed)
		if err != nil {
			t.Fatalf("list %d: decode: %v", i, err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("list %d JSON after round trip:\n got %s\nwant %s", i, gotJSON, wantJSON)
		}
		if again, err := AppendSpecs(nil, specPtrs(got)...); err != nil || !bytes.Equal(again, typed) {
			t.Fatalf("list %d re-encodes differently (err %v)", i, err)
		}
		if viaJSON, err := JSON(typed); err != nil || !bytes.Equal(viaJSON, wantJSON) {
			t.Fatalf("list %d: JSON(typed) = %s, %v; want %s", i, viaJSON, err, wantJSON)
		}
		// A JSON spec list passes through JSON untouched, and DecodeSpecs
		// refuses it: callers sniff the '['.
		if viaJSON, err := JSON(wantJSON); err != nil || !bytes.Equal(viaJSON, wantJSON) {
			t.Fatalf("list %d: JSON(json) = %s, %v", i, viaJSON, err)
		}
		if _, err := DecodeSpecs(wantJSON); err == nil {
			t.Fatalf("list %d: DecodeSpecs accepted JSON", i)
		}
	}
}

// TestSpecRoundTripsEveryField fills every exported field of Spec, and of
// the structs it holds, with a distinct non-zero value through reflection,
// and checks that the spec survives the codec. A field added later without
// codec support arrives zero and fails this test.
func TestSpecRoundTripsEveryField(t *testing.T) {
	var spec Spec
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			f := v.Field(i)
			n++
			switch f.Kind() {
			case reflect.String:
				f.SetString(fmt.Sprintf("field-%d", n))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(-1000 * n))
			case reflect.Float64:
				f.SetFloat(float64(n) + 0.125)
			case reflect.Map:
				f.Set(reflect.ValueOf(map[string]string{fmt.Sprintf("k%d", n): "v", "a": fmt.Sprint(n)}))
			case reflect.Struct:
				fill(f)
			default:
				t.Fatalf("%s.%s: kind %s has no filler; extend this test and the codec", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&spec).Elem())
	typed, err := AppendSpecs(nil, &spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpecs(typed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], spec) {
		t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", got, spec)
	}
}

// TestDecodeSpecsRefusesNonCanonical: byte strings AppendSpecs never
// produces are refused, so no two accepted lists decode to the same specs.
func TestDecodeSpecsRefusesNonCanonical(t *testing.T) {
	one, _ := AppendSpecs(nil, &Spec{Benchmark: "gcm_n13"})
	cases := map[string][]byte{
		"empty":           {},
		"tag only":        {specsTag},
		"result tag":      append([]byte{tag}, one[1:]...),
		"json list":       []byte(`[{"Benchmark":"gcm_n13"}]`),
		"unknown flag":    append([]byte{specsTag, 1, 0x80}, one[3:]...),
		"padded count":    append([]byte{specsTag, 0x81, 0x00}, one[2:]...),
		"trailing byte":   append(append([]byte{}, one...), 0),
		"truncated":       one[:len(one)-1],
		"count too large": append([]byte{specsTag, 2}, one[2:]...),
		"huge count":      append([]byte{specsTag, 0xff, 0xff, 0xff, 0xff, 0x0f}, make([]byte, 40)...),
	}
	two, _ := AppendSpecs(nil, &Spec{Opts: rescq.Options{LayoutParams: map[string]string{"a": "1", "b": "2"}}})
	i := bytes.Index(two, []byte{1, 'a', 1, '1', 1, 'b', 1, '2'})
	swapped := append([]byte{}, two...)
	copy(swapped[i:], []byte{1, 'b', 1, '2', 1, 'a', 1, '1'})
	cases["params out of order"] = swapped
	withFloat, _ := AppendSpecs(nil, &Spec{Opts: rescq.Options{PhysError: 1.5}})
	j := bytes.Index(withFloat, binaryLE(math.Float64bits(1.5)))
	inf := append([]byte{}, withFloat...)
	copy(inf[j:], binaryLE(math.Float64bits(math.Inf(1))))
	cases["infinite"] = inf
	for name, b := range cases {
		if _, err := DecodeSpecs(b); err == nil {
			t.Errorf("%s: decoded %x", name, b)
		}
	}
	if _, err := AppendSpecs(nil, &Spec{Opts: rescq.Options{Compression: math.NaN()}}); err == nil {
		t.Error("AppendSpecs accepted a NaN")
	}
	if _, err := AppendSpecs(nil, &Spec{Name: "\xff"}); err == nil {
		t.Error("AppendSpecs accepted invalid UTF-8")
	}
}

// FuzzDecodeSpecs: the spec decoder never panics, allocates in proportion
// to its input, and every list it accepts re-encodes to exactly the same
// bytes and marshals to JSON.
func FuzzDecodeSpecs(f *testing.F) {
	all := specFixtures()
	for i := range all {
		b, err := AppendSpecs(nil, &all[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	b, _ := AppendSpecs(nil, specPtrs(all)...)
	f.Add(b)
	f.Add([]byte{specsTag, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte(`[{"Benchmark":"gcm_n13"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := DecodeSpecs(data)
		if err != nil {
			return
		}
		claimed := minSpecBytes * len(specs)
		for _, s := range specs {
			claimed += minParamBytes * len(s.Opts.LayoutParams)
		}
		if claimed > len(data) {
			t.Fatalf("decoded %d bytes' worth of specs from %d input bytes", claimed, len(data))
		}
		again, err := AppendSpecs(nil, specPtrs(specs)...)
		if err != nil {
			t.Fatalf("accepted list does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, data)
		}
		if _, err := json.Marshal(specs); err != nil {
			t.Fatalf("accepted list does not marshal: %v", err)
		}
	})
}
