package lattice

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// referenceShortestPath is the map-based BFS ShortestAncillaPath replaced:
// same visit order, fresh maps per call. The dense-scratch search must
// return exactly its path, tile for tile.
func referenceShortestPath(g *Grid, src, dst []Coord, blocked func(Coord) bool) []Coord {
	if len(src) == 0 || len(dst) == 0 {
		return nil
	}
	isDst := make(map[Coord]bool, len(dst))
	for _, c := range dst {
		if g.Kind(c) == TileAncilla && (blocked == nil || !blocked(c)) {
			isDst[c] = true
		}
	}
	if len(isDst) == 0 {
		return nil
	}
	prev := make(map[Coord]Coord)
	visited := make(map[Coord]bool)
	var queue []Coord
	for _, c := range src {
		if g.Kind(c) != TileAncilla || (blocked != nil && blocked(c)) || visited[c] {
			continue
		}
		visited[c] = true
		queue = append(queue, c)
		if isDst[c] {
			return []Coord{c}
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for d := North; d <= West; d++ {
			n := c.Step(d)
			if g.Kind(n) != TileAncilla || visited[n] || (blocked != nil && blocked(n)) {
				continue
			}
			visited[n] = true
			prev[n] = c
			if isDst[n] {
				rev := []Coord{n}
				for p, ok := prev[n]; ok; p, ok = prev[p] {
					rev = append(rev, p)
				}
				slices.Reverse(rev)
				return rev
			}
			queue = append(queue, n)
		}
	}
	return nil
}

// testGrids builds every registered layout at a few sizes, plus a
// compressed copy of each.
func testGrids(t *testing.T, rng *rand.Rand) map[string]*Grid {
	t.Helper()
	out := make(map[string]*Grid)
	for _, name := range Layouts() {
		sizes, params := []int{3, 9, 16}, Params(nil)
		if name == "custom" {
			sizes, params = []int{4}, Params{"spec": customTestSpec}
		}
		for _, n := range sizes {
			g, err := Build(name, n, params)
			if err != nil {
				t.Fatalf("Build(%q, %d): %v", name, n, err)
			}
			out[fmt.Sprintf("%s/n=%d", name, n)] = g
			c := g.Clone()
			c.Compress(0.3, rng)
			out[fmt.Sprintf("%s/n=%d/compressed", name, n)] = c
		}
	}
	return out
}

// reservedFrom returns the reservation flags marking the tiles of set, by
// Index, the way sim.State.Reserved marks busy tiles.
func reservedFrom(g *Grid, set map[Coord]bool) []bool {
	reserved := make([]bool, g.NumTiles())
	for c := range set {
		if i, ok := g.Index(c); ok {
			reserved[i] = true
		}
	}
	return reserved
}

// randomQuery draws endpoint sets (ancillas, plus the odd non-ancilla or
// out-of-bounds tile the search must skip) and a blocked set, as a
// predicate for the reference search and as the reservation flags of the
// same tiles for the router (both nil: nothing blocked).
func randomQuery(g *Grid, rng *rand.Rand) (src, dst []Coord, blocked func(Coord) bool, reserved []bool) {
	pick := func() Coord {
		switch rng.Intn(10) {
		case 0:
			return Coord{rng.Intn(g.Rows()+2) - 1, rng.Intn(g.Cols()+2) - 1}
		default:
			return g.AncillaTile(rng.Intn(g.NumAncilla()))
		}
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		src = append(src, pick())
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		dst = append(dst, pick())
	}
	set := make(map[Coord]bool)
	for k := rng.Intn(g.NumAncilla()/3 + 1); k > 0; k-- {
		set[g.AncillaTile(rng.Intn(g.NumAncilla()))] = true
	}
	if rng.Intn(4) == 0 {
		return src, dst, nil, nil
	}
	return src, dst, func(c Coord) bool { return set[c] }, reservedFrom(g, set)
}

func TestShortestAncillaPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, g := range testGrids(t, rng) {
		for q := 0; q < 300; q++ {
			src, dst, blocked, reserved := randomQuery(g, rng)
			got := g.ShortestAncillaPathInto(src, dst, reserved, nil)
			want := referenceShortestPath(g, src, dst, blocked)
			if !slices.Equal(got, want) {
				t.Fatalf("%s query %d (src %v dst %v): path %v, reference %v", name, q, src, dst, got, want)
			}
		}
	}
}

// TestShortestAncillaPathClonesDoNotShareScratch runs path queries on two
// clones of one grid at once; under -race any shared scratch is a report.
func TestShortestAncillaPathClonesDoNotShareScratch(t *testing.T) {
	base := NewSTARGrid(16)
	base.ShortestAncillaPathInto([]Coord{{0, 0}}, []Coord{{0, 4}}, nil, nil) // parent scratch allocated before cloning
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		g := base.Clone()
		rng := rand.New(rand.NewSource(int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 200; q++ {
				src, dst, blocked, reserved := randomQuery(g, rng)
				if got, want := g.ShortestAncillaPathInto(src, dst, reserved, nil), referenceShortestPath(g, src, dst, blocked); !slices.Equal(got, want) {
					t.Errorf("clone %d query %d: path %v, reference %v", w, q, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestShortestAncillaPathEpochWrap(t *testing.T) {
	g := NewSTARGrid(9)
	src, dst := []Coord{{0, 0}}, []Coord{{6, 6}}
	want := referenceShortestPath(g, src, dst, nil)
	sc := new(pathScratch)
	g.shortestPath(sc, src, dst, nil, nil)
	sc.epoch = ^uint32(0) // the next search wraps the stamp counter
	if got := g.shortestPath(sc, src, dst, nil, nil); !slices.Equal(got, want) {
		t.Fatalf("after wrap: path %v, want %v", got, want)
	}
}
