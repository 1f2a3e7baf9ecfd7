package lattice

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSTARGridLayout(t *testing.T) {
	g := NewSTARGrid(4) // 2x2 block grid -> 5x5 tiles
	if g.Rows() != 5 || g.Cols() != 5 {
		t.Fatalf("dims = %dx%d, want 5x5", g.Rows(), g.Cols())
	}
	if g.NumQubits() != 4 {
		t.Fatalf("NumQubits = %d, want 4", g.NumQubits())
	}
	// Data qubits at odd/odd coordinates, row-major.
	want := []Coord{{1, 1}, {1, 3}, {3, 1}, {3, 3}}
	for q, c := range want {
		if g.DataTile(q) != c {
			t.Errorf("DataTile(%d) = %v, want %v", q, g.DataTile(q), c)
		}
		if g.Kind(c) != TileData {
			t.Errorf("tile %v of qubit %d is %v, want a data tile", c, q, g.Kind(c))
		}
	}
	if g.NumAncilla() != 25-4 {
		t.Errorf("NumAncilla = %d, want 21", g.NumAncilla())
	}
	if !g.AncillaConnected() {
		t.Error("fresh STAR grid must have a connected ancilla network")
	}
}

func TestSTARGridRatioApproachesThree(t *testing.T) {
	// For large filled grids the ancilla:data ratio tends to 3 (plus
	// boundary), per the STAR architecture.
	g := NewSTARGrid(400) // 20x20 blocks
	ratio := g.AncillaPerData()
	if ratio < 3.0 || ratio > 3.5 {
		t.Errorf("ancilla per data = %v, want ~3", ratio)
	}
}

func TestEdgeDirections(t *testing.T) {
	g := NewSTARGrid(4)
	if g.Orientation(0) != ZNorthSouth {
		t.Fatal("initial orientation must be ZNorthSouth")
	}
	z := g.ZEdgeDirs(0)
	if z != [2]Dir{North, South} {
		t.Errorf("ZEdgeDirs = %v, want [North South]", z)
	}
	x := g.XEdgeDirs(0)
	if x != [2]Dir{East, West} {
		t.Errorf("XEdgeDirs = %v, want [East West]", x)
	}
	g.ToggleOrientation(0)
	if g.Orientation(0) != ZEastWest {
		t.Error("toggle should flip orientation")
	}
	if g.ZEdgeDirs(0) != [2]Dir{East, West} {
		t.Error("rotated qubit should expose Z edges east/west")
	}
	g.ToggleOrientation(0)
	if g.Orientation(0) != ZNorthSouth {
		t.Error("double toggle should restore orientation")
	}
}

func TestEdgeAncillas(t *testing.T) {
	g := NewSTARGrid(4)
	// Qubit 0 at (1,1): Z neighbours at (0,1) and (2,1).
	za := g.ZEdgeAncillas(0, nil)
	if len(za) != 2 {
		t.Fatalf("ZEdgeAncillas = %v, want 2 tiles", za)
	}
	xa := g.XEdgeAncillas(0, nil)
	if len(xa) != 2 {
		t.Fatalf("XEdgeAncillas = %v, want 2 tiles", xa)
	}
	diag := g.DiagonalAncillas(0, nil)
	if len(diag) != 4 {
		t.Fatalf("DiagonalAncillas = %v, want 4 tiles", diag)
	}
}

func TestAncillaIDsDense(t *testing.T) {
	g := NewSTARGrid(9)
	seen := make(map[int]bool)
	for r := 0; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			co := Coord{r, c}
			id := g.AncillaID(co)
			if g.Kind(co) == TileAncilla {
				if id < 0 || id >= g.NumAncilla() {
					t.Fatalf("ancilla at %v has bad ID %d", co, id)
				}
				if seen[id] {
					t.Fatalf("duplicate ancilla ID %d", id)
				}
				seen[id] = true
				if g.AncillaTile(id) != co {
					t.Fatalf("AncillaTile(%d) = %v, want %v", id, g.AncillaTile(id), co)
				}
			} else if id != -1 {
				t.Fatalf("non-ancilla %v has ID %d", co, id)
			}
		}
	}
	if len(seen) != g.NumAncilla() {
		t.Errorf("found %d ancillas, want %d", len(seen), g.NumAncilla())
	}
}

func TestAncillaGraphStructure(t *testing.T) {
	g := NewSTARGrid(4)
	gr := g.AncillaGraphInto(nil)
	if gr.NumVertices() != g.NumAncilla() {
		t.Fatalf("graph vertices = %d, want %d", gr.NumVertices(), g.NumAncilla())
	}
	if !g.AncillaConnected() {
		t.Error("ancilla graph of a fresh grid must be connected")
	}
	// Each edge must join 4-adjacent ancilla tiles.
	for i := 0; i < gr.NumEdges(); i++ {
		e := gr.Edge(i)
		a, b := g.AncillaTile(e.U), g.AncillaTile(e.V)
		dr, dc := a.Row-b.Row, a.Col-b.Col
		if dr < 0 {
			dr = -dr
		}
		if dc < 0 {
			dc = -dc
		}
		if dr+dc != 1 {
			t.Fatalf("edge %v-%v joins non-adjacent tiles", a, b)
		}
	}
}

func TestCompressZero(t *testing.T) {
	g := NewSTARGrid(8)
	n := g.NumAncilla()
	if got := g.Compress(0, rand.New(rand.NewSource(1))); got != 0 {
		t.Errorf("Compress(0) = %d, want 0", got)
	}
	if g.NumAncilla() != n {
		t.Error("Compress(0) must not remove ancillas")
	}
}

func TestCompressFull(t *testing.T) {
	g := NewSTARGrid(8)
	before := g.NumAncilla()
	done := g.Compress(1.0, rand.New(rand.NewSource(7)))
	if done == 0 {
		t.Fatal("expected some blocks to compress")
	}
	if g.NumAncilla() >= before {
		t.Error("compression should remove ancillas")
	}
	if !g.AncillaConnected() {
		t.Error("compression must preserve ancilla connectivity")
	}
	var buf []Coord
	for q := 0; q < g.NumQubits(); q++ {
		buf = g.AncillaNeighbors(g.DataTile(q), buf[:0])
		if len(buf) == 0 {
			t.Errorf("qubit %d lost all adjacent ancillas", q)
		}
	}
}

func TestCompressMonotone(t *testing.T) {
	counts := make([]int, 0, 5)
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		g := NewSTARGrid(16)
		g.Compress(f, rand.New(rand.NewSource(3)))
		counts = append(counts, g.NumAncilla())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("ancilla count should not increase with compression: %v", counts)
		}
	}
	if counts[len(counts)-1] >= counts[0] {
		t.Errorf("full compression should remove ancillas: %v", counts)
	}
}

// Property: any compression level preserves connectivity, data adjacency,
// and never touches data tiles.
func TestCompressInvariantsProperty(t *testing.T) {
	f := func(seed int64, frac8 uint8, nq uint8) bool {
		n := 2 + int(nq)%30
		frac := float64(frac8%101) / 100
		g := NewSTARGrid(n)
		g.Compress(frac, rand.New(rand.NewSource(seed)))
		if !g.AncillaConnected() {
			return false
		}
		var buf []Coord
		for q := 0; q < g.NumQubits(); q++ {
			if g.Kind(g.DataTile(q)) != TileData {
				return false
			}
			buf = g.AncillaNeighbors(g.DataTile(q), buf[:0])
			if len(buf) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRender(t *testing.T) {
	g := NewSTARGrid(2)
	s := g.Render()
	if s == "" {
		t.Fatal("empty render")
	}
	countD := 0
	for _, ch := range s {
		if ch == 'D' {
			countD++
		}
	}
	if countD != 2 {
		t.Errorf("render shows %d data tiles, want 2", countD)
	}
}
