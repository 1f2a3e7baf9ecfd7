package lattice

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateLayouts = flag.Bool("update", false, "rewrite the layout golden files under testdata/ from the current builders")

// customTestSpec is a small hand-written tiling: four qubits around a
// cross-shaped ancilla corridor with the corners punched out.
const customTestSpec = `{"tiles": [
	" .D. ",
	".....",
	"D...D",
	".....",
	" .D. "
]}`

// TestLayoutGoldens pins Grid.Render() for every built-in layout, so a
// registry or constructor refactor cannot silently move a tile. The star
// golden doubles as the byte-identity guarantee for the default path.
func TestLayoutGoldens(t *testing.T) {
	cases := []struct {
		file   string
		layout string
		n      int
		params Params
	}{
		{"layout_star_n8.golden", "star", 8, nil},
		{"layout_star_n13.golden", "star", 13, nil},
		{"layout_linear_n8.golden", "linear", 8, nil},
		{"layout_compact_n8.golden", "compact", 8, nil},
		{"layout_compact_n8_f50.golden", "compact", 8, Params{"fraction": "0.5", "seed": "3"}},
		{"layout_custom_cross.golden", "custom", 4, Params{"spec": customTestSpec}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			g, err := Build(tc.layout, tc.n, tc.params)
			if err != nil {
				t.Fatalf("Build(%q, %d): %v", tc.layout, tc.n, err)
			}
			got := g.Render()
			path := filepath.Join("testdata", tc.file)
			if *updateLayouts {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test ./internal/lattice -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted:\ngot:\n%s\nwant:\n%s", tc.file, got, want)
			}
		})
	}
}

// TestStarBuilderByteIdentical asserts the registry's default path is the
// exact constructor the whole pre-registry codebase used.
func TestStarBuilderByteIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 13, 27, 100} {
		direct := NewSTARGrid(n)
		viaDefault := MustBuild("", n, nil)
		viaName := MustBuild("star", n, nil)
		for _, g := range []*Grid{viaDefault, viaName} {
			if g.Render() != direct.Render() {
				t.Fatalf("n=%d: registry star grid differs from NewSTARGrid", n)
			}
			if g.NumAncilla() != direct.NumAncilla() || g.Rows() != direct.Rows() || g.Cols() != direct.Cols() {
				t.Fatalf("n=%d: registry star grid shape differs", n)
			}
		}
	}
}

// TestLayoutInvariants property-checks every registered layout across a
// size sweep: the builder must produce n data qubits, a single 4-connected
// ancilla network, and at least one adjacent ancilla per data qubit (a
// qubit with no ancilla can neither route nor inject). The corridor
// layouts (star, linear) must additionally expose both a Z-edge and an
// X-edge ancilla for every qubit in the initial orientation.
func TestLayoutInvariants(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 13, 16, 27}
	params := map[string]Params{
		// custom is exercised separately: its tiling fixes the qubit count.
		"custom": nil,
	}
	for _, name := range Layouts() {
		if name == "custom" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for _, n := range sizes {
				g, err := Build(name, n, params[name])
				if err != nil {
					t.Fatalf("Build(%q, %d): %v", name, n, err)
				}
				checkLayoutInvariants(t, name, n, g)
			}
		})
	}
	t.Run("custom", func(t *testing.T) {
		g, err := Build("custom", 4, Params{"spec": customTestSpec})
		if err != nil {
			t.Fatal(err)
		}
		checkLayoutInvariants(t, "custom", 4, g)
	})
}

func checkLayoutInvariants(t *testing.T, name string, n int, g *Grid) {
	t.Helper()
	if g.NumQubits() != n {
		t.Fatalf("%s n=%d: grid has %d qubits", name, n, g.NumQubits())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("%s n=%d: %v", name, n, err)
	}
	seen := make(map[Coord]bool, n)
	for q := 0; q < n; q++ {
		c := g.DataTile(q)
		if g.Kind(c) != TileData {
			t.Fatalf("%s n=%d: qubit %d sits on non-data tile %v", name, n, q, c)
		}
		if seen[c] {
			t.Fatalf("%s n=%d: two qubits share tile %v", name, n, c)
		}
		seen[c] = true
		if len(g.ZEdgeAncillas(q, nil))+len(g.XEdgeAncillas(q, nil)) == 0 {
			t.Fatalf("%s n=%d: qubit %d has neither Z- nor X-edge ancillas", name, n, q)
		}
		// The full-corridor layouts guarantee both edge types.
		if name == "star" || name == "linear" {
			if len(g.ZEdgeAncillas(q, nil)) == 0 {
				t.Fatalf("%s n=%d: qubit %d has no Z-edge ancilla", name, n, q)
			}
			if len(g.XEdgeAncillas(q, nil)) == 0 {
				t.Fatalf("%s n=%d: qubit %d has no X-edge ancilla", name, n, q)
			}
		}
	}
}

// TestLayoutRegistry covers the catalog lookups themselves.
func TestLayoutRegistry(t *testing.T) {
	for _, want := range []string{"star", "linear", "compact", "custom"} {
		if !Known(want) {
			t.Errorf("built-in layout %q not registered", want)
		}
	}
	if !Known("") {
		t.Error("empty name should be known (the default)")
	}
	if Known("definitely-not-registered") {
		t.Error("unknown name reported as known")
	}

	if _, err := Build("definitely-not-registered", 4, nil); err == nil {
		t.Error("unknown layout should fail")
	} else {
		for _, want := range []string{"definitely-not-registered", "star", "linear", "compact", "custom"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q should enumerate %q", err, want)
			}
		}
	}

	// Layouts and Describe promise name order; the catalog is written in it.
	if names := Layouts(); !slices.IsSorted(names) {
		t.Errorf("Layouts() = %v, want sorted", names)
	}
}

// TestLayoutParamErrors asserts builders are strict about their params, so
// a typo cannot silently build the wrong fabric.
func TestLayoutParamErrors(t *testing.T) {
	cases := []struct {
		name    string
		layout  string
		n       int
		params  Params
		wantErr string
	}{
		{"star takes no params", "star", 4, Params{"fraction": "1"}, "takes no parameters"},
		{"linear takes no params", "linear", 4, Params{"x": "1"}, "takes no parameters"},
		{"compact rejects unknown keys", "compact", 4, Params{"fractoin": "1"}, "unknown parameter"},
		{"compact rejects bad fraction", "compact", 4, Params{"fraction": "pony"}, "fraction"},
		{"compact rejects out-of-range fraction", "compact", 4, Params{"fraction": "1.5"}, "out of [0,1]"},
		{"compact rejects bad seed", "compact", 4, Params{"seed": "x"}, "seed"},
		{"custom requires spec", "custom", 4, nil, "spec"},
		{"custom rejects bad JSON", "custom", 4, Params{"spec": "{"}, "bad spec JSON"},
		{"custom rejects unknown JSON fields", "custom", 4, Params{"spec": `{"tiles":["D."],"x":1}`}, "bad spec JSON"},
		{"custom qubit-count mismatch", "custom", 3, Params{"spec": customTestSpec}, "needs 3"},
		{"custom ragged rows", "custom", 1, Params{"spec": `{"tiles":["D.", "."]}`}, "wide"},
		{"custom unknown tile glyph", "custom", 1, Params{"spec": `{"tiles":["Dx"]}`}, "unknown tile"},
		{"custom disconnected ancillas", "custom", 2, Params{"spec": `{"tiles":[".D D."]}`}, "not connected"},
		{"custom stranded qubit", "custom", 2, Params{"spec": `{"tiles":["D .", "  .", "D ."]}`}, "no adjacent ancilla"},
		{"custom no data tiles", "custom", 0, Params{"spec": `{"tiles":["..."]}`}, "no data tiles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.layout, tc.n, tc.params)
			if err == nil {
				t.Fatalf("Build(%q, %v) succeeded, want error containing %q", tc.layout, tc.params, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCompactDeterministic asserts the compact layout is a function of
// (n, params) alone — the property result caching relies on.
func TestCompactDeterministic(t *testing.T) {
	p := Params{"fraction": "0.75", "seed": "9"}
	a := MustBuild("compact", 16, p)
	b := MustBuild("compact", 16, p)
	if a.Render() != b.Render() {
		t.Fatal("compact layout not deterministic for equal params")
	}
	c := MustBuild("compact", 16, Params{"fraction": "0.75", "seed": "10"})
	if a.Render() == c.Render() {
		t.Fatal("different seeds produced identical compact grids (suspicious)")
	}
	if a.NumAncilla() >= MustBuild("star", 16, nil).NumAncilla() {
		t.Fatal("compact layout removed no ancillas")
	}
}

// TestCloneIndependence asserts a cloned grid shares no mutable state with
// its source — runs mutate clones while the configuration's base grid is
// reused.
func TestCloneIndependence(t *testing.T) {
	base := MustBuild("star", 9, nil)
	render, anc, ids := base.Render(), slices.Clone(base.ancTile), slices.Clone(base.ancID)
	c := base.Clone()
	if c.Render() != render {
		t.Fatal("clone renders differently")
	}
	c.ToggleOrientation(0)
	if base.Orientation(0) != ZNorthSouth {
		t.Error("clone orientation toggle leaked into the base grid")
	}
	if removed := c.Compress(1, rand.New(rand.NewSource(1))); removed == 0 {
		t.Fatal("compress removed nothing")
	}
	if base.Render() != render || base.NumAncilla() == c.NumAncilla() ||
		!slices.Equal(base.ancTile, anc) || !slices.Equal(base.ancID, ids) {
		t.Error("clone compression leaked into the base grid")
	}
	if err := base.CheckInvariants(); err != nil {
		t.Errorf("base grid corrupted: %v", err)
	}
}
