package lattice

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestShortestAncillaPathTrivial(t *testing.T) {
	g := NewSTARGrid(4)
	a := Coord{0, 1}
	p := g.ShortestAncillaPathInto([]Coord{a}, []Coord{a}, nil, nil)
	if len(p) != 1 || p[0] != a {
		t.Errorf("self path = %v, want [%v]", p, a)
	}
}

func TestShortestAncillaPathStraightLine(t *testing.T) {
	g := NewSTARGrid(4)
	// Row 0 is a full ancilla corridor: (0,0) to (0,4) is length 5.
	p := g.ShortestAncillaPathInto([]Coord{{0, 0}}, []Coord{{0, 4}}, nil, nil)
	if len(p) != 5 {
		t.Fatalf("path = %v, want 5 tiles", p)
	}
	if !g.PathContiguous(p) {
		t.Error("path must be contiguous ancillas")
	}
}

func TestShortestAncillaPathAvoidsBlocked(t *testing.T) {
	g := NewSTARGrid(4)
	blocked := Coord{0, 2}
	p := g.ShortestAncillaPathInto([]Coord{{0, 0}}, []Coord{{0, 4}}, reservedFrom(g, map[Coord]bool{blocked: true}), nil)
	if p == nil {
		t.Fatal("detour should exist")
	}
	for _, c := range p {
		if c == blocked {
			t.Fatalf("path %v passes through blocked tile", p)
		}
	}
	if len(p) <= 5 {
		t.Errorf("detour should be longer than the straight line, got %d", len(p))
	}
	if !g.PathContiguous(p) {
		t.Error("detour must be contiguous")
	}
}

func TestShortestAncillaPathNoRoute(t *testing.T) {
	g := NewSTARGrid(4)
	blockAll := map[Coord]bool{} // every tile off row 0
	for r := 1; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			blockAll[Coord{r, c}] = true
		}
	}
	p := g.ShortestAncillaPathInto([]Coord{{0, 0}}, []Coord{{4, 4}}, reservedFrom(g, blockAll), nil)
	if p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
}

func TestShortestAncillaPathMultiSource(t *testing.T) {
	g := NewSTARGrid(4)
	// Sources on opposite corners; nearest one should win.
	p := g.ShortestAncillaPathInto([]Coord{{4, 4}, {0, 0}}, []Coord{{0, 1}}, nil, nil)
	if p == nil || p[0] != (Coord{0, 0}) {
		t.Errorf("path = %v, want to start at (0,0)", p)
	}
	if len(p) != 2 {
		t.Errorf("path length = %d, want 2", len(p))
	}
}

func TestBraidPath(t *testing.T) {
	g := NewSTARGrid(9) // 7x7 tiles
	a, b := Coord{0, 0}, Coord{0, 6}
	p := g.BraidPathInto(a, b, nil, nil)
	if p == nil {
		t.Fatal("row corridor braid should exist")
	}
	if !g.PathContiguous(p) {
		t.Error("braid path must be contiguous")
	}
	if p[0] != a || p[len(p)-1] != b {
		t.Errorf("braid endpoints wrong: %v", p)
	}
}

func TestBraidPathAroundData(t *testing.T) {
	g := NewSTARGrid(9)
	// (1,0) to (1,6): row 1 contains data tiles at odd columns, so the
	// row-first L fails; column-first goes through row? Column-first from
	// (1,0): walk column 0 to row 1 (already there), then row 1 East —
	// also blocked. BraidPath should return nil here.
	p := g.BraidPathInto(Coord{1, 0}, Coord{1, 6}, nil, nil)
	if p != nil {
		t.Errorf("expected nil braid through data row, got %v", p)
	}
}

func TestBraidPathLShape(t *testing.T) {
	g := NewSTARGrid(9)
	p := g.BraidPathInto(Coord{0, 0}, Coord{6, 0}, nil, nil)
	if p == nil {
		t.Fatal("column corridor braid should exist")
	}
	if len(p) != 7 {
		t.Errorf("braid length = %d, want 7", len(p))
	}
}

// Property: BFS paths are never longer than braid paths between the same
// endpoints, are contiguous, avoid blocked tiles, and start/end correctly.
func TestShortestPathProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewSTARGrid(4 + rng.Intn(12))
		// Random blocked set, not too dense.
		blockedSet := map[Coord]bool{}
		for i := 0; i < g.NumAncilla()/10; i++ {
			blockedSet[g.AncillaTile(rng.Intn(g.NumAncilla()))] = true
		}
		reserved := reservedFrom(g, blockedSet)
		for k := 0; k < 8; k++ {
			a := g.AncillaTile(rng.Intn(g.NumAncilla()))
			b := g.AncillaTile(rng.Intn(g.NumAncilla()))
			if blockedSet[a] || blockedSet[b] {
				continue
			}
			bfs := g.ShortestAncillaPathInto([]Coord{a}, []Coord{b}, reserved, nil)
			braid := g.BraidPathInto(a, b, reserved, nil)
			if bfs == nil {
				if braid != nil {
					return false // BFS is complete; braid cannot beat it
				}
				continue
			}
			if bfs[0] != a || bfs[len(bfs)-1] != b || !g.PathContiguous(bfs) {
				return false
			}
			for _, c := range bfs {
				if blockedSet[c] {
					return false
				}
			}
			if braid != nil && len(braid) < len(bfs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPathIntoVariantsAppendWithoutAllocating checks that the buffer
// queries append the same route after a caller's prefix as into an empty
// buffer, and allocate nothing once the buffer has capacity.
func TestPathIntoVariantsAppendWithoutAllocating(t *testing.T) {
	g := NewSTARGrid(16)
	prefix := Coord{-1, -1}
	buf := make([]Coord, 0, 64)
	for i := 0; i < g.NumAncilla(); i += 7 {
		a, b := g.AncillaTile(0), g.AncillaTile(i)
		if got, want := g.BraidPathInto(a, b, nil, append(buf[:0], prefix)), g.BraidPathInto(a, b, nil, nil); want != nil && !slices.Equal(got, append([]Coord{prefix}, want...)) {
			t.Fatalf("BraidPathInto(%v, %v) = %v, want prefix + %v", a, b, got, want)
		}
		want := g.ShortestAncillaPathInto([]Coord{a}, []Coord{b}, nil, nil)
		if got := g.ShortestAncillaPathInto([]Coord{a}, []Coord{b}, nil, append(buf[:0], prefix)); !slices.Equal(got, append([]Coord{prefix}, want...)) {
			t.Fatalf("ShortestAncillaPathInto(%v, %v) = %v, want prefix + %v", a, b, got, want)
		}
	}
	src, dst := []Coord{g.AncillaTile(0)}, []Coord{g.AncillaTile(g.NumAncilla() - 1)}
	allocs := testing.AllocsPerRun(50, func() {
		buf = g.BraidPathInto(src[0], dst[0], nil, buf[:0])
		buf = g.ShortestAncillaPathInto(src, dst, nil, buf[:0])
		buf = g.ZEdgeAncillas(3, buf[:0])
		buf = g.XEdgeAncillas(3, buf)
		buf = g.DiagonalAncillas(3, buf)
	})
	if allocs != 0 {
		t.Errorf("buffer variants allocate %v times per call, want 0", allocs)
	}
}

// BenchmarkShortestAncillaPath times one BFS between two qubits' ancilla
// neighbours on the 160-qubit STAR grid (qft_n160's) with a quarter of
// the ancillas reserved, the shape of a greedy CNOT routing query under
// load. Informational: it runs in the benchmark smoke, not the gate.
func BenchmarkShortestAncillaPath(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewSTARGrid(160)
	busy := map[Coord]bool{}
	for len(busy) < g.NumAncilla()/4 {
		busy[g.AncillaTile(rng.Intn(g.NumAncilla()))] = true
	}
	reserved := reservedFrom(g, busy)
	type query struct{ src, dst []Coord }
	queries := make([]query, 64)
	for i := range queries {
		a, c := rng.Intn(g.NumQubits()), rng.Intn(g.NumQubits())
		queries[i] = query{g.AncillaNeighbors(g.DataTile(a), nil), g.AncillaNeighbors(g.DataTile(c), nil)}
	}
	buf := make([]Coord, 0, g.NumTiles())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if p := g.ShortestAncillaPathInto(q.src, q.dst, reserved, buf[:0]); p != nil {
			buf = p // a nil result (no route) must not drop the buffer
		}
	}
}

// PathContiguous reports whether path is a sequence of 4-adjacent live
// ancilla tiles.
func (g *Grid) PathContiguous(path []Coord) bool {
	for i, c := range path {
		if g.Kind(c) != TileAncilla {
			return false
		}
		if i > 0 {
			p := path[i-1]
			dr, dc := c.Row-p.Row, c.Col-p.Col
			if dr < 0 {
				dr = -dr
			}
			if dc < 0 {
				dc = -dc
			}
			if dr+dc != 1 {
				return false
			}
		}
	}
	return true
}
