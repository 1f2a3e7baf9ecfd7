package rescq

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// jsonEra decodes an options document the way the daemon replays job
// specs and JSON result payloads: not strictly, so keys Options no longer
// has, such as the "parallel" of older logs, are dropped.
func jsonEra(doc string) Options {
	var o Options
	if err := json.Unmarshal([]byte(doc), &o); err != nil {
		panic(err)
	}
	return o
}

func TestOptionsWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want Options
	}{
		{
			name: "zero value gets every default",
			in:   Options{},
			want: Options{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, Runs: 3, Seed: 1},
		},
		{
			name: "explicit fields survive",
			in:   Options{Scheduler: Greedy, Distance: 11, PhysError: 1e-3, Runs: 5, Seed: 42},
			want: Options{Scheduler: Greedy, Distance: 11, PhysError: 1e-3, Runs: 5, Seed: 42},
		},
		{
			name: "K and TauMST are scheduler knobs, not defaulted here",
			in:   Options{K: 50, TauMST: 200},
			want: Options{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, K: 50, TauMST: 200, Runs: 3, Seed: 1},
		},
		{
			name: "Parallel with Runs=1 stays a serial single run",
			in:   jsonEra(`{"parallel":true,"runs":1}`),
			want: Options{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, Runs: 1, Seed: 1},
		},
		{
			name: "Compression zero means uncompressed, not defaulted",
			in:   Options{Compression: 0},
			want: Options{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, Runs: 3, Seed: 1},
		},
		{
			name: "negative runs pass through for Validate to reject",
			in:   Options{Runs: -2},
			want: Options{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, Runs: -2, Seed: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.withDefaults(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("withDefaults() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		in      Options
		wantErr string // "" means valid
	}{
		{"zero value is valid after defaults", Options{}, ""},
		{"all three schedulers valid", Options{Scheduler: Greedy}, ""},
		{"autobraid valid", Options{Scheduler: AutoBraid}, ""},
		{"rescq valid", Options{Scheduler: RESCQ}, ""},
		{"unknown scheduler", Options{Scheduler: "magic"}, "unknown scheduler"},
		{"distance too small", Options{Distance: 1}, "distance"},
		{"even distance", Options{Distance: 8}, "distance"},
		{"negative distance", Options{Distance: -7}, "distance"},
		{"minimum odd distance valid", Options{Distance: 3}, ""},
		{"negative phys error", Options{PhysError: -1e-4}, "error rate"},
		{"phys error at half", Options{PhysError: 0.5}, "error rate"},
		{"phys error above half", Options{PhysError: 0.9}, "error rate"},
		{"tiny phys error valid", Options{PhysError: 1e-9}, ""},
		{"negative compression", Options{Compression: -0.1}, "compression"},
		{"compression above one", Options{Compression: 1.1}, "compression"},
		{"full compression valid", Options{Compression: 1.0}, ""},
		{"negative runs", Options{Runs: -1}, "runs"},
		{"runs default from zero is valid", Options{Runs: 0}, ""},
		{"parallel with one run valid", jsonEra(`{"parallel":true,"runs":1}`), ""},
		{"parallel with defaults valid", jsonEra(`{"parallel":true}`), ""},
		{"negative k", Options{K: -1}, "tau_mst"},
		{"negative tau", Options{TauMST: -5}, "tau_mst"},
		{"explicit paper operating point valid", Options{K: 25, TauMST: 100}, ""},
		{"everything wrong reports scheduler first", Options{Scheduler: "x", Distance: 2, Runs: -1}, "unknown scheduler"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.in.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestOptionsCanonical(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want Options
	}{
		{
			name: "defaults are materialized, including the engine-side K/TauMST",
			in:   Options{},
			want: Options{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, K: 25, TauMST: 100, Runs: 3, Seed: 1},
		},
		{
			name: "parallel is an execution detail, stripped",
			in:   jsonEra(`{"parallel":true}`),
			want: Options{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, K: 25, TauMST: 100, Runs: 3, Seed: 1},
		},
		{
			name: "rescq keeps its K and TauMST knobs",
			in:   Options{K: 50, TauMST: 200},
			want: Options{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, K: 50, TauMST: 200, Runs: 3, Seed: 1},
		},
		{
			name: "static schedulers ignore K and TauMST, zeroed",
			in:   Options{Scheduler: Greedy, K: 50, TauMST: 200},
			want: Options{Scheduler: Greedy, Distance: 7, PhysError: 1e-4, Runs: 3, Seed: 1},
		},
		{
			name: "explicit star layout with no params is the default, cleared",
			in:   Options{Layout: "star"},
			want: Options{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, K: 25, TauMST: 100, Runs: 3, Seed: 1},
		},
		{
			name: "non-default layouts and their params survive",
			in:   Options{Layout: "compact", LayoutParams: map[string]string{"fraction": "0.5"}},
			want: Options{Scheduler: RESCQ, Layout: "compact", LayoutParams: map[string]string{"fraction": "0.5"}, Distance: 7, PhysError: 1e-4, K: 25, TauMST: 100, Runs: 3, Seed: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Canonical(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Canonical() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestCacheKey(t *testing.T) {
	base := Options{Runs: 2, Seed: 7}
	key := CacheKey("bench:gcm_n13", base)
	if len(key) != 64 { // sha256 hex
		t.Fatalf("key %q is not a sha256 hex digest", key)
	}

	same := []Options{
		jsonEra(`{"runs":2,"seed":7,"parallel":true}`),
		{Scheduler: RESCQ, Distance: 7, PhysError: 1e-4, Runs: 2, Seed: 7},
		// The paper operating point spelled explicitly: the engine treats
		// K=0/TauMST=0 as 25/100, so the keys must agree.
		{K: 25, TauMST: 100, Runs: 2, Seed: 7},
		// The default layout spelled explicitly.
		{Layout: "star", Runs: 2, Seed: 7},
	}
	for i, o := range same {
		if got := CacheKey("bench:gcm_n13", o); got != key {
			t.Errorf("equivalent options %d produced a different key", i)
		}
	}

	different := map[string]string{
		"circuit":     CacheKey("bench:qft_n18", base),
		"scheduler":   CacheKey("bench:gcm_n13", Options{Scheduler: Greedy, Runs: 2, Seed: 7}),
		"distance":    CacheKey("bench:gcm_n13", Options{Distance: 9, Runs: 2, Seed: 7}),
		"phys error":  CacheKey("bench:gcm_n13", Options{PhysError: 1e-3, Runs: 2, Seed: 7}),
		"k":           CacheKey("bench:gcm_n13", Options{K: 50, Runs: 2, Seed: 7}),
		"tau":         CacheKey("bench:gcm_n13", Options{TauMST: 200, Runs: 2, Seed: 7}),
		"compression": CacheKey("bench:gcm_n13", Options{Compression: 0.5, Runs: 2, Seed: 7}),
		"runs":        CacheKey("bench:gcm_n13", Options{Runs: 3, Seed: 7}),
		"seed":        CacheKey("bench:gcm_n13", Options{Runs: 2, Seed: 8}),
		"layout":      CacheKey("bench:gcm_n13", Options{Layout: "linear", Runs: 2, Seed: 7}),
		"layout params": CacheKey("bench:gcm_n13",
			Options{Layout: "compact", LayoutParams: map[string]string{"fraction": "0.5"}, Runs: 2, Seed: 7}),
		"layout param value": CacheKey("bench:gcm_n13",
			Options{Layout: "compact", LayoutParams: map[string]string{"fraction": "0.25"}, Runs: 2, Seed: 7}),
	}
	seen := map[string]string{key: "base"}
	for what, k := range different {
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collided with %s", what, prev)
		}
		seen[k] = what
	}

	// K/TauMST are dead knobs for the static baselines: keys must agree.
	a := CacheKey("bench:gcm_n13", Options{Scheduler: Greedy, K: 25})
	b := CacheKey("bench:gcm_n13", Options{Scheduler: Greedy, K: 100, TauMST: 7})
	if a != b {
		t.Error("greedy keys should ignore the RESCQ-only knobs")
	}
}
