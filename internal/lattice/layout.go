package lattice

// layout.go is the layout catalog: the named grid builders the rest of the
// system (rescq.Options, the sweep daemon, the CLIs) selects by name. The
// set is closed, so it is one compile-time table, sorted by name:
//
//   - "compact": the STAR grid with a deterministic fraction of its
//                ancillas removed, generalizing the ad-hoc Grid.Compress
//                path into a first-class reduced-ancilla tiling
//   - "custom":  an arbitrary tiling described by a JSON spec
//   - "linear":  a single block row (NewLinearGrid)
//   - "star":    the paper's STAR grid (the default; byte-identical to
//                NewSTARGrid)
//
// Build resolves a name ("" means the default "star") into a fresh Grid.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Params carries layout-specific knobs as string key/values. The string
// form keeps the type wire-friendly (it is the JSON "layout_params" object
// of rescq.Options) and canonicalizable for cache keys.
type Params map[string]string

// Canonical renders the params deterministically (sorted "k=v" pairs) for
// inclusion in cache keys: equal canonical strings mean equal params.
func (p Params) Canonical() string {
	if len(p) == 0 {
		return ""
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%q=%q", k, p[k])
	}
	return sb.String()
}

// float reads a float64 param with a default for the missing key. Error
// messages are bare: Build and ValidateParams prepend the layout context.
func (p Params) float(key string, def float64) (float64, error) {
	s, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("param %q: %v", key, err)
	}
	return v, nil
}

// int64 reads an int64 param with a default for the missing key.
func (p Params) int64(key string, def int64) (int64, error) {
	s, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("param %q: %v", key, err)
	}
	return v, nil
}

// checkKeys rejects params outside the allowed set, so a typoed knob fails
// loudly instead of silently building the wrong fabric (and silently
// fragmenting the result cache).
func (p Params) checkKeys(allowed ...string) error {
	for k := range p {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			if len(allowed) == 0 {
				return fmt.Errorf("takes no parameters (got %q)", k)
			}
			return fmt.Errorf("unknown parameter %q (known: %s)", k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// Layout describes one layout of the catalog.
type Layout struct {
	// Name is the catalog key ("star", "linear", ...).
	Name string `json:"name"`
	// Description is a one-line human-readable summary (shown by the
	// daemon's capabilities endpoint and the CLIs).
	Description string `json:"description"`
	// Params documents the accepted layout params ("key: meaning").
	Params map[string]string `json:"params,omitempty"`

	// build constructs a fresh grid for n data qubits under the given
	// params. It must be deterministic: the same (n, params) must always
	// produce an identical grid, because simulation results are cached on
	// (circuit, options-including-layout) alone.
	build func(n int, p Params) (*Grid, error)
	// checkParams validates params without building (used by
	// ValidateParams so request validation can reject bad knobs before a
	// job is queued).
	checkParams func(p Params) error
}

// DefaultLayout is the layout used when none is named: the paper's STAR
// grid.
const DefaultLayout = "star"

// lookup resolves a layout name ("" means DefaultLayout). Unknown names
// fail with an error enumerating the catalog.
func lookup(name string) (Layout, error) {
	if name == "" {
		name = DefaultLayout
	}
	for _, l := range catalog {
		if l.Name == name {
			return l, nil
		}
	}
	return Layout{}, fmt.Errorf("lattice: unknown layout %q (registered: %s)",
		name, strings.Join(Layouts(), ", "))
}

// Known reports whether name is a known layout ("" counts: it is the
// default).
func Known(name string) bool {
	_, err := lookup(name)
	return err == nil
}

// Layouts returns the layout names, sorted.
func Layouts() []string {
	names := make([]string, len(catalog))
	for i, l := range catalog {
		names[i] = l.Name
	}
	return names
}

// Describe returns the full descriptors of every layout, sorted by name.
func Describe() []Layout { return slices.Clone(catalog) }

// ValidateParams checks the params against the named layout ("" means
// DefaultLayout) without building a grid, so request validation can reject
// a typoed or malformed knob up front instead of failing the queued job.
// Properties a checker cannot see without the qubit count (e.g. the custom
// layout's data-tile count) remain build-time errors.
func ValidateParams(name string, p Params) error {
	l, err := lookup(name)
	if err != nil {
		return err
	}
	if err := l.checkParams(p); err != nil {
		return fmt.Errorf("lattice: layout %q: %w", l.Name, err)
	}
	return nil
}

// Build constructs a fresh grid for n data qubits under the named layout
// ("" means DefaultLayout). Unknown names fail with an error enumerating
// the catalog.
func Build(name string, n int, p Params) (*Grid, error) {
	l, err := lookup(name)
	if err != nil {
		return nil, err
	}
	g, err := l.build(n, p)
	if err != nil {
		// Builders that delegate to package-level constructors
		// (NewGridFromTiles, CheckInvariants) return errors already
		// carrying the package prefix; strip it so the wrapped message
		// reads "lattice: layout X: ..." exactly once.
		return nil, fmt.Errorf("lattice: layout %q: %s", l.Name,
			strings.TrimPrefix(err.Error(), "lattice: "))
	}
	return g, nil
}

// MustBuild is Build for static configurations known to be valid (tests,
// examples); it panics on error.
func MustBuild(name string, n int, p Params) *Grid {
	g, err := Build(name, n, p)
	if err != nil {
		panic(err)
	}
	return g
}

// customSpec is the JSON document of the "custom" layout's "spec" param.
type customSpec struct {
	// Tiles is the grid as ASCII-art rows: 'D' data, '.' ancilla,
	// ' ' hole. All rows must have equal width and the data-tile count
	// must equal the circuit's qubit count.
	Tiles []string `json:"tiles"`
}

// compactParams parses and range-checks the "compact" layout's knobs.
func compactParams(p Params) (fraction float64, seed int64, err error) {
	if err := p.checkKeys("fraction", "seed"); err != nil {
		return 0, 0, err
	}
	fraction, err = p.float("fraction", 1)
	if err != nil {
		return 0, 0, err
	}
	if fraction < 0 || fraction > 1 {
		return 0, 0, fmt.Errorf("fraction %v out of [0,1]", fraction)
	}
	seed, err = p.int64("seed", 1)
	if err != nil {
		return 0, 0, err
	}
	return fraction, seed, nil
}

// customParams parses the "custom" layout's JSON spec. The tiling's shape
// and glyphs are validated here; the n-dependent properties (data-tile
// count, connectivity) are checked when the grid is built.
func customParams(p Params) (customSpec, error) {
	var spec customSpec
	if err := p.checkKeys("spec"); err != nil {
		return spec, err
	}
	raw, ok := p["spec"]
	if !ok {
		return spec, fmt.Errorf("missing required param %q", "spec")
	}
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("bad spec JSON: %v", err)
	}
	if len(spec.Tiles) == 0 {
		return spec, fmt.Errorf("spec needs at least one row")
	}
	for r, row := range spec.Tiles {
		if len(row) != len(spec.Tiles[0]) {
			return spec, fmt.Errorf("spec row %d is %d tiles wide, want %d", r, len(row), len(spec.Tiles[0]))
		}
		if i := strings.IndexFunc(row, func(c rune) bool { return c != 'D' && c != '.' && c != ' ' }); i >= 0 {
			return spec, fmt.Errorf("spec row %d col %d: unknown tile %q (want 'D', '.' or ' ')", r, i, row[i])
		}
	}
	return spec, nil
}

// paramless adapts a grid constructor that takes no params into a build
// function.
func paramless(newGrid func(n int) *Grid) func(n int, p Params) (*Grid, error) {
	return func(n int, p Params) (*Grid, error) {
		if err := p.checkKeys(); err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("need at least one qubit (got %d)", n)
		}
		return newGrid(n), nil
	}
}

// catalog is every layout, sorted by name.
var catalog = []Layout{
	{
		Name:        "compact",
		Description: "STAR grid with a deterministic fraction of its ancillas removed (paper section 5.3 grid compression as a first-class tiling)",
		Params: map[string]string{
			"fraction": "compression fraction in [0,1]; 1 targets one ancilla per data qubit (default 1)",
			"seed":     "removal-order seed, part of the layout identity (default 1)",
		},
		checkParams: func(p Params) error { _, _, err := compactParams(p); return err },
		build: func(n int, p Params) (*Grid, error) {
			fraction, seed, err := compactParams(p)
			if err != nil {
				return nil, err
			}
			if n < 1 {
				return nil, fmt.Errorf("need at least one qubit (got %d)", n)
			}
			g := NewSTARGrid(n)
			// The removal order is part of the layout identity, so it uses
			// its own seeded RNG — unlike Options.Compression, which
			// varies the removal per seeded run.
			g.Compress(fraction, rand.New(rand.NewSource(seed)))
			return g, nil
		},
	},
	{
		Name:        "custom",
		Description: "arbitrary tiling from a JSON spec: {\"tiles\": [\"row\", ...]} with 'D' data, '.' ancilla, ' ' hole tiles",
		Params: map[string]string{
			"spec": "JSON document {\"tiles\": [...]}; required",
		},
		checkParams: func(p Params) error { _, err := customParams(p); return err },
		build: func(n int, p Params) (*Grid, error) {
			spec, err := customParams(p)
			if err != nil {
				return nil, err
			}
			g, err := NewGridFromTiles(spec.Tiles)
			if err != nil {
				return nil, err
			}
			if g.NumQubits() != n {
				return nil, fmt.Errorf("spec has %d data tiles, circuit needs %d", g.NumQubits(), n)
			}
			return g, nil
		},
	},
	{
		Name:        "linear",
		Description: "single block row: a 3x(2n+1) strip whose routing distance grows linearly with qubit separation (adversarial topology for congestion studies)",
		checkParams: func(p Params) error { return p.checkKeys() },
		build:       paramless(NewLinearGrid),
	},
	{
		Name:        "star",
		Description: "STAR grid of Akahoshi et al.: one data qubit per 2x2 block on a near-square block grid, full ancilla corridors (the paper's substrate, and the default)",
		checkParams: func(p Params) error { return p.checkKeys() },
		build:       paramless(NewSTARGrid),
	},
}
