// Package config reads the JSON experiment configurations consumed by
// cmd/rescq-sim, mirroring the artifact's config-file workflow: one file
// describes the benchmark (or an external circuit file), the scheduler and
// its parameters, the code point (d, p), the grid compression, and the
// number of seeded runs.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	rescq "repro"
	"repro/internal/core"
)

// Config is one simulation configuration.
type Config struct {
	// Benchmark names a Table 3 circuit (e.g. "gcm_n13"). Mutually
	// exclusive with CircuitFile.
	Benchmark string `json:"benchmark,omitempty"`
	// CircuitFile points at a circuit in the artifact text format.
	CircuitFile string `json:"circuit_file,omitempty"`
	// Scheduler names the scheduler: "greedy", "autobraid" or "rescq"
	// (default).
	Scheduler string `json:"scheduler,omitempty"`
	// Layout names the lattice layout: "star" (default), "linear",
	// "compact" or "custom".
	Layout string `json:"layout,omitempty"`
	// LayoutParams passes layout-specific knobs (e.g. the "compact"
	// layout's "fraction", or the "custom" layout's JSON "spec").
	LayoutParams map[string]string `json:"layout_params,omitempty"`
	// Distance is the surface code distance (default 7).
	Distance int `json:"distance,omitempty"`
	// PhysError is the physical error rate (default 1e-4).
	PhysError float64 `json:"phys_error,omitempty"`
	// K is RESCQ's MST recomputation period (default core.DefaultConfig's).
	K int `json:"k,omitempty"`
	// TauMST is RESCQ's MST latency in cycles (default core.DefaultConfig's).
	TauMST int `json:"tau_mst,omitempty"`
	// Compression in [0,1] (default 0).
	Compression float64 `json:"compression,omitempty"`
	// NumberOfRuns is the seeded-run count (default 10, the artifact's
	// reduced default).
	NumberOfRuns int `json:"number_of_runs,omitempty"`
	// Seed is the base seed (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// Load reads and validates a config file.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Read parses a config from r and validates it.
func Read(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("config: parse: %w", err)
	}
	c = c.WithDefaults()
	return c, c.Validate()
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scheduler == "" {
		c.Scheduler = "rescq"
	}
	if c.Distance == 0 {
		c.Distance = 7
	}
	if c.PhysError == 0 {
		c.PhysError = 1e-4
	}
	def := core.DefaultConfig()
	if c.K == 0 {
		c.K = def.K
	}
	if c.TauMST == 0 {
		c.TauMST = def.TauMST
	}
	if c.NumberOfRuns == 0 {
		c.NumberOfRuns = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Options returns the simulation options the config describes.
func (c Config) Options() rescq.Options {
	return rescq.Options{
		Scheduler:    rescq.SchedulerKind(c.Scheduler),
		Layout:       c.Layout,
		LayoutParams: c.LayoutParams,
		Distance:     c.Distance,
		PhysError:    c.PhysError,
		K:            c.K,
		TauMST:       c.TauMST,
		Compression:  c.Compression,
		Runs:         c.NumberOfRuns,
		Seed:         c.Seed,
	}
}

// Validate reports configuration errors: the circuit source here, every
// simulation option through rescq.Options.Validate.
func (c Config) Validate() error {
	if c.Benchmark == "" && c.CircuitFile == "" {
		return fmt.Errorf("config: need benchmark or circuit_file")
	}
	if c.Benchmark != "" && c.CircuitFile != "" {
		return fmt.Errorf("config: benchmark and circuit_file are mutually exclusive")
	}
	if err := c.Options().Validate(); err != nil {
		// Swap the package prefix, so the message reads "config: ..." once.
		return fmt.Errorf("config: %s", strings.TrimPrefix(err.Error(), "rescq: "))
	}
	return nil
}
