package rescq_test

// registry_test.go checks the layout axis from the outside: every built-in
// layout is runnable through rescq.Run, bad layout names and params fail
// validation, and the default star path keeps its exact pre-layout cache
// identity.

import (
	"strings"
	"testing"

	rescq "repro"
)

// pinnedDefaultKey is CacheKey("bench:gcm_n13", Options{}) as computed
// before the layout axis existed. It must never drift: the daemon's result
// cache and every stored key in the wild depend on layout-unset requests
// hashing exactly as they always did.
const pinnedDefaultKey = "5ba0524a78ec383e0dbef96c570d7e517b58544e031eafc5b60c638b9ece938f"

func TestCacheKeyPinnedForLayoutUnsetRequests(t *testing.T) {
	if got := rescq.CacheKey("bench:gcm_n13", rescq.Options{}); got != pinnedDefaultKey {
		t.Fatalf("layout-unset cache key drifted:\ngot  %s\nwant %s", got, pinnedDefaultKey)
	}
	explicit := rescq.Options{Layout: "star"}
	if got := rescq.CacheKey("bench:gcm_n13", explicit); got != pinnedDefaultKey {
		t.Fatalf("explicit star cache key differs from the pinned default key: %s", got)
	}
	if got := rescq.CacheKey("bench:gcm_n13", rescq.Options{Layout: "linear"}); got == pinnedDefaultKey {
		t.Fatal("linear layout shares the star cache key")
	}
	// A layout-unset request WITH params must not alias the plain default
	// key (the params change — or invalidate — the fabric).
	withParams := rescq.Options{LayoutParams: map[string]string{"fraction": "0.5"}}
	if got := rescq.CacheKey("bench:gcm_n13", withParams); got == pinnedDefaultKey {
		t.Fatal("layout-unset options with params alias the default star cache key")
	}
	explicitWithParams := rescq.Options{Layout: "star", LayoutParams: map[string]string{"fraction": "0.5"}}
	if rescq.CacheKey("bench:gcm_n13", withParams) != rescq.CacheKey("bench:gcm_n13", explicitWithParams) {
		t.Fatal("implicit and explicit default-layout spellings with equal params should share a key")
	}
}

// TestValidateRejectsBadLayoutParams asserts malformed layout knobs are
// caught at validation time (a 400 at the daemon), not inside the queued
// job.
func TestValidateRejectsBadLayoutParams(t *testing.T) {
	cases := []struct {
		name string
		opts rescq.Options
		want string
	}{
		{"params on the default layout", rescq.Options{LayoutParams: map[string]string{"fraction": "0.5"}}, "takes no parameters"},
		{"params on explicit star", rescq.Options{Layout: "star", LayoutParams: map[string]string{"x": "1"}}, "takes no parameters"},
		{"typoed compact key", rescq.Options{Layout: "compact", LayoutParams: map[string]string{"fractoin": "0.5"}}, "unknown parameter"},
		{"out-of-range compact fraction", rescq.Options{Layout: "compact", LayoutParams: map[string]string{"fraction": "1.5"}}, "out of [0,1]"},
		{"custom without spec", rescq.Options{Layout: "custom"}, "spec"},
		{"custom with malformed spec", rescq.Options{Layout: "custom", LayoutParams: map[string]string{"spec": "{"}}, "bad spec JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) accepted, want error containing %q", tc.opts, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	// A well-formed custom spec validates even though the qubit count is
	// unknown until run time.
	ok := rescq.Options{Layout: "custom", LayoutParams: map[string]string{"spec": `{"tiles":["...",".D.","..."]}`}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid custom spec rejected: %v", err)
	}
}

func TestBuiltinLayoutsRunEndToEnd(t *testing.T) {
	base := rescq.Options{Distance: 5, Runs: 1}
	cycles := map[string]float64{}
	for _, layout := range []string{"star", "linear", "compact"} {
		opts := base
		opts.Layout = layout
		sum, err := rescq.Run("vqe_n13", opts)
		if err != nil {
			t.Fatalf("layout %s: %v", layout, err)
		}
		if sum.MeanCycles <= 0 {
			t.Fatalf("layout %s: mean cycles %v", layout, sum.MeanCycles)
		}
		cycles[layout] = sum.MeanCycles
	}
	t.Logf("vqe_n13 mean cycles by layout: %v", cycles)

	spec := `{"tiles": [
		".....",
		".D.D.",
		".....",
		".D.D.",
		"....."
	]}`
	sum, err := rescq.RunCircuitText("ghz4", "qubits 4\n3\nh 0\ncx 0 1\ncx 2 3\n",
		rescq.Options{Layout: "custom", LayoutParams: map[string]string{"spec": spec}, Runs: 1})
	if err != nil {
		t.Fatalf("custom layout run: %v", err)
	}
	if sum.MeanCycles <= 0 {
		t.Fatalf("custom layout: mean cycles %v", sum.MeanCycles)
	}
}

func TestValidateUnknownLayoutEnumeratesRegistered(t *testing.T) {
	err := rescq.Options{Layout: "moebius"}.Validate()
	if err == nil {
		t.Fatal("unknown layout validated")
	}
	for _, want := range []string{"moebius", "star", "linear", "compact", "custom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}
