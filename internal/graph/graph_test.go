package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDSUBasics(t *testing.T) {
	d := NewDSU(5)
	if d.Same(0, 1) {
		t.Error("fresh DSU should have disjoint sets")
	}
	if !d.Union(0, 1) {
		t.Error("first union should merge")
	}
	if d.Union(1, 0) {
		t.Error("second union should be a no-op")
	}
	d.Union(2, 3)
	d.Union(0, 3)
	if !d.Same(1, 2) {
		t.Error("1 and 2 should be connected after unions")
	}
	if d.Same(1, 4) {
		t.Error("4 should remain isolated")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(3)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 0, 1) },
		func() { g.AddEdge(-1, 1, 1) },
		func() { g.AddEdge(0, 3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// squareGraph builds the small example used in several tests:
//
//	0 --1.0-- 1
//	|         |
//	4.0      2.0
//	|         |
//	3 --3.0-- 2
func squareGraph() (*Graph, [4]int) {
	g := NewGraph(4)
	var ids [4]int
	ids[0] = g.AddEdge(0, 1, 1.0)
	ids[1] = g.AddEdge(1, 2, 2.0)
	ids[2] = g.AddEdge(2, 3, 3.0)
	ids[3] = g.AddEdge(3, 0, 4.0)
	return g, ids
}

func TestKruskalSquare(t *testing.T) {
	g, ids := squareGraph()
	tr := Kruskal(g)
	if tr.NumTreeEdges() != 3 {
		t.Fatalf("tree edges = %d, want 3", tr.NumTreeEdges())
	}
	if tr.Contains(ids[3]) {
		t.Error("max-weight cycle edge (w=4) should be excluded")
	}
	if w := tr.TotalWeight(); w != 6.0 {
		t.Errorf("total weight = %v, want 6", w)
	}
}

func TestTreePath(t *testing.T) {
	g, _ := squareGraph()
	tr := Kruskal(g)
	p := tr.PathInto(nil, 0, 3)
	want := []int{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("Path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Path = %v, want %v", p, want)
		}
	}
	if b, ok := tr.Bottleneck(0, 3); !ok || b != 3.0 {
		t.Errorf("Bottleneck(0,3) = %v,%v, want 3,true", b, ok)
	}
	if p := tr.PathInto(nil, 2, 2); len(p) != 1 || p[0] != 2 {
		t.Errorf("Path(2,2) = %v, want [2]", p)
	}
}

func TestPathDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	tr := Kruskal(g)
	if p := tr.PathInto(nil, 0, 3); p != nil {
		t.Errorf("Path across components = %v, want nil", p)
	}
	if tr.SameComponent(0, 2) {
		t.Error("0 and 2 should be in different components")
	}
	if !tr.SameComponent(2, 3) {
		t.Error("2 and 3 should be in the same component")
	}
}

func TestUpdateWeightSwapIn(t *testing.T) {
	g, ids := squareGraph()
	tr := Kruskal(g)
	// Case 1: non-tree edge (3-0, w=4) becomes cheap; it should displace
	// the max edge of the cycle (2-3, w=3).
	tr.UpdateWeight(ids[3], 0.5)
	if !tr.Contains(ids[3]) {
		t.Error("cheapened edge should have joined the tree")
	}
	if tr.Contains(ids[2]) {
		t.Error("edge 2-3 (now the cycle max) should have left the tree")
	}
	assertMST(t, g, tr)
}

func TestUpdateWeightSwapOut(t *testing.T) {
	g, ids := squareGraph()
	tr := Kruskal(g)
	// Case 2: tree edge (1-2, w=2) becomes expensive; the cut should be
	// reconnected by 3-0 (w=4) ... which is cheaper than the new weight 10.
	tr.UpdateWeight(ids[1], 10)
	if tr.Contains(ids[1]) {
		t.Error("expensive tree edge should have been swapped out")
	}
	if !tr.Contains(ids[3]) {
		t.Error("edge 3-0 should have been swapped in")
	}
	assertMST(t, g, tr)
}

func TestUpdateWeightNoOpCases(t *testing.T) {
	g, ids := squareGraph()
	tr := Kruskal(g)
	// Tree edge decreasing and non-tree edge increasing never change the
	// tree topology.
	before := tr.TotalWeight()
	tr.UpdateWeight(ids[0], 0.1) // tree edge cheaper
	if !tr.Contains(ids[0]) {
		t.Error("tree edge should remain after decrease")
	}
	tr.UpdateWeight(ids[3], 100) // non-tree edge pricier
	if tr.Contains(ids[3]) {
		t.Error("non-tree edge should remain outside after increase")
	}
	_ = before
	assertMST(t, g, tr)
}

func TestUpdateWeightKeepsTreeEdgeWhenStillBest(t *testing.T) {
	g, ids := squareGraph()
	tr := Kruskal(g)
	// Tree edge 1-2 rises to 3.5, still cheaper than the only crossing
	// alternative (3-0, w=4): it must stay in the tree.
	tr.UpdateWeight(ids[1], 3.5)
	if !tr.Contains(ids[1]) {
		t.Error("tree edge should be retained when still the cheapest cut edge")
	}
	assertMST(t, g, tr)
}

// assertMST verifies tr is a minimum spanning forest of g by comparing the
// total weight with a fresh Kruskal run, and checks the edge count matches
// n - #components.
func assertMST(t *testing.T, g *Graph, tr *Tree) {
	t.Helper()
	fresh := Kruskal(g)
	if got, want := tr.TotalWeight(), fresh.TotalWeight(); !almostEq(got, want) {
		t.Errorf("tree weight %v differs from true MST weight %v", got, want)
	}
	if tr.NumTreeEdges() != fresh.NumTreeEdges() {
		t.Errorf("tree has %d edges, fresh MST has %d", tr.NumTreeEdges(), fresh.NumTreeEdges())
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// randomGridGraph builds an r x c grid graph with pseudo-random weights.
func randomGridGraph(rng *rand.Rand, r, c int) *Graph {
	g := NewGraph(r * c)
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(at(i, j), at(i, j+1), rng.Float64())
			}
			if i+1 < r {
				g.AddEdge(at(i, j), at(i+1, j), rng.Float64())
			}
		}
	}
	return g
}

// Property: after a random sequence of UpdateWeight calls, the maintained
// tree has the same total weight as a freshly computed MST.
func TestIncrementalMSTMatchesFreshKruskal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGridGraph(rng, 4+rng.Intn(4), 4+rng.Intn(4))
		tr := Kruskal(g)
		for k := 0; k < 60; k++ {
			id := rng.Intn(g.NumEdges())
			tr.UpdateWeight(id, rng.Float64()*2)
			fresh := Kruskal(g)
			if !almostEq(tr.TotalWeight(), fresh.TotalWeight()) {
				return false
			}
			if tr.NumTreeEdges() != fresh.NumTreeEdges() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: the tree path between two random vertices is a minimax path —
// its bottleneck equals the minimal achievable bottleneck, verified with a
// threshold union-find sweep.
func TestTreePathIsMinimax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGridGraph(rng, 5, 5)
		tr := Kruskal(g)
		for k := 0; k < 20; k++ {
			u, v := rng.Intn(25), rng.Intn(25)
			if u == v {
				continue
			}
			got, ok := tr.Bottleneck(u, v)
			if !ok {
				return false // grid is connected
			}
			if !almostEq(got, minimaxBottleneck(g, u, v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// minimaxBottleneck computes the optimal bottleneck by adding edges in
// weight order until u and v join.
func minimaxBottleneck(g *Graph, u, v int) float64 {
	type we struct {
		w  float64
		id int
	}
	edges := make([]we, g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		edges[i] = we{g.Edge(i).W, i}
	}
	// Insertion-sort is fine at this size; avoids importing sort twice.
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && edges[j].w < edges[j-1].w; j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	d := NewDSU(g.NumVertices())
	for _, e := range edges {
		ed := g.Edge(e.id)
		d.Union(ed.U, ed.V)
		if d.Same(u, v) {
			return e.w
		}
	}
	return -1
}

// Property: tree paths visit distinct vertices and consecutive entries are
// joined by tree edges.
func TestTreePathWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGridGraph(rng, 4, 6)
		tr := Kruskal(g)
		for k := 0; k < 10; k++ {
			u, v := rng.Intn(24), rng.Intn(24)
			p := tr.PathInto(nil, u, v)
			if p == nil || p[0] != u || p[len(p)-1] != v {
				return false
			}
			seen := map[int]bool{}
			for _, x := range p {
				if seen[x] {
					return false
				}
				seen[x] = true
			}
			edges, ok := tr.PathEdges(u, v)
			if !ok || len(edges) != len(p)-1 {
				return false
			}
			for i, id := range edges {
				e := g.Edge(int(id))
				a, b := p[i], p[i+1]
				if !(e.U == a && e.V == b) && !(e.U == b && e.V == a) {
					return false
				}
				if !tr.Contains(int(id)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKruskal100x100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGridGraph(rng, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kruskal(g)
	}
}

func BenchmarkIncrementalUpdate100x100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGridGraph(rng, 100, 100)
	tr := Kruskal(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.UpdateWeight(i%g.NumEdges(), rng.Float64())
	}
}
