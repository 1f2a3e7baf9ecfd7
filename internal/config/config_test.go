package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestReadMinimal(t *testing.T) {
	c, err := Read(strings.NewReader(`{"benchmark":"gcm_n13"}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheduler != "rescq" || c.Distance != 7 || c.PhysError != 1e-4 ||
		c.K != 25 || c.TauMST != 100 || c.NumberOfRuns != 10 || c.Seed != 1 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

// TestEngineDefaultsFromCore: a config that leaves K and TauMST unset
// simulates the engine's own operating point, core.DefaultConfig.
func TestEngineDefaultsFromCore(t *testing.T) {
	c := Config{}.WithDefaults()
	if def := core.DefaultConfig(); c.K != def.K || c.TauMST != def.TauMST {
		t.Errorf("config defaults K=%d TauMST=%d, core.DefaultConfig K=%d TauMST=%d", c.K, c.TauMST, def.K, def.TauMST)
	}
}

func TestReadFull(t *testing.T) {
	text := `{
		"benchmark": "dnn_n16",
		"scheduler": "autobraid",
		"distance": 9,
		"phys_error": 0.001,
		"k": 100,
		"tau_mst": 50,
		"compression": 0.5,
		"number_of_runs": 4,
		"seed": 42
	}`
	c, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if c.Distance != 9 || c.K != 100 || c.Compression != 0.5 || c.Seed != 42 {
		t.Errorf("parsed config wrong: %+v", c)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no target":        `{}`,
		"both targets":     `{"benchmark":"x","circuit_file":"y"}`,
		"bad scheduler":    `{"benchmark":"x","scheduler":"magic"}`,
		"even distance":    `{"benchmark":"x","distance":8}`,
		"bad error rate":   `{"benchmark":"x","phys_error":0.7}`,
		"bad compression":  `{"benchmark":"x","compression":2}`,
		"negative runs":    `{"benchmark":"x","number_of_runs":-1}`,
		"unknown field":    `{"benchmark":"x","wat":1}`,
		"removed parallel": `{"benchmark":"gcm_n13","parallel":true}`,
		"not json":         `benchmark: x`,
	}
	for name, text := range cases {
		if _, err := Read(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected error for %s", name, text)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.json")
	if err := os.WriteFile(path, []byte(`{"benchmark":"vqe_n13","scheduler":"greedy"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Benchmark != "vqe_n13" || c.Scheduler != "greedy" {
		t.Errorf("loaded config wrong: %+v", c)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestReadLayout(t *testing.T) {
	c, err := Read(strings.NewReader(`{
		"benchmark": "gcm_n13",
		"layout": "compact",
		"layout_params": {"fraction": "0.5", "seed": "3"}
	}`))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if c.Layout != "compact" || c.LayoutParams["fraction"] != "0.5" || c.LayoutParams["seed"] != "3" {
		t.Errorf("layout fields not threaded: %+v", c)
	}

	_, err = Read(strings.NewReader(`{"benchmark": "gcm_n13", "layout": "moebius"}`))
	if err == nil {
		t.Fatal("unknown layout accepted")
	}
	for _, want := range []string{"moebius", "star", "linear", "compact", "custom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should enumerate %q", err, want)
		}
	}
}

func TestUnknownSchedulerEnumeratesRegistry(t *testing.T) {
	_, err := Read(strings.NewReader(`{"benchmark": "gcm_n13", "scheduler": "magic"}`))
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	for _, want := range []string{"magic", "greedy", "autobraid", "rescq"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should enumerate %q", err, want)
		}
	}
}
