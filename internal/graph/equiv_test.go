package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestIncrementalMatchesKruskalOnActivitySequences drives a maintained
// tree through randomized activity-weight snapshots — quantized weights in
// [0,1] plus a small deterministic per-edge jitter, exactly the shape the
// MST pipeline feeds it — and checks after every snapshot that the
// incrementally maintained forest matches a from-scratch Kruskal: same
// total weight, and same minimax (bottleneck) path value for sampled
// vertex pairs.
func TestIncrementalMatchesKruskalOnActivitySequences(t *testing.T) {
	const (
		rows, cols = 8, 11
		snapshots  = 40
		jitter     = 0.004
	)
	rng := rand.New(rand.NewSource(7))
	g := GridGraph(rows, cols, 0)
	eps := make([]float64, g.NumEdges())
	for e := range eps {
		eps[e] = jitter * rng.Float64()
		g.SetWeight(e, eps[e])
	}
	inc := Kruskal(g)
	n := g.NumVertices()
	for snap := 0; snap < snapshots; snap++ {
		// Change a random subset of edges to new quantized activities, as
		// one pipeline snapshot would.
		k := 1 + rng.Intn(g.NumEdges()/2)
		for i := 0; i < k; i++ {
			e := rng.Intn(g.NumEdges())
			w := float64(rng.Intn(101))/100 + eps[e]
			inc.UpdateWeight(e, w)
		}
		full := Kruskal(g)
		if iw, fw := inc.TotalWeight(), full.TotalWeight(); math.Abs(iw-fw) > 1e-9 {
			t.Fatalf("snapshot %d: incremental total weight %v != full Kruskal %v", snap, iw, fw)
		}
		if inc.NumTreeEdges() != full.NumTreeEdges() {
			t.Fatalf("snapshot %d: tree sizes differ: %d vs %d", snap, inc.NumTreeEdges(), full.NumTreeEdges())
		}
		for trial := 0; trial < 25; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			bi, oki := inc.Bottleneck(u, v)
			bf, okf := full.Bottleneck(u, v)
			if oki != okf {
				t.Fatalf("snapshot %d: connectivity(%d,%d) differs: %v vs %v", snap, u, v, oki, okf)
			}
			if oki && math.Abs(bi-bf) > 1e-12 {
				t.Fatalf("snapshot %d: bottleneck(%d,%d) %v != %v", snap, u, v, bi, bf)
			}
		}
	}
}

// TestKruskalIntoReuseMatchesFresh checks that reusing the tree, DSU and
// order buffers across recomputes yields exactly the tree a fresh Kruskal
// builds.
func TestKruskalIntoReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := GridGraph(6, 9, 0)
	reused := &Tree{}
	dsu := NewDSU(g.NumVertices())
	order := make([]int32, g.NumEdges())
	for round := 0; round < 10; round++ {
		for e := 0; e < g.NumEdges(); e++ {
			g.SetWeight(e, rng.Float64())
		}
		KruskalInto(g, reused, dsu, order)
		fresh := Kruskal(g)
		if reused.NumTreeEdges() != fresh.NumTreeEdges() {
			t.Fatalf("round %d: edge counts differ", round)
		}
		for e := 0; e < g.NumEdges(); e++ {
			if reused.Contains(e) != fresh.Contains(e) {
				t.Fatalf("round %d: edge %d membership differs", round, e)
			}
		}
	}
}

// TestPathIntoMatchesSearch cross-checks the rooted-index path queries
// against naive expectations on a small maintained tree.
func TestPathIntoMatchesSearch(t *testing.T) {
	g := GridGraph(5, 5, 1)
	tr := Kruskal(g)
	n := g.NumVertices()
	var buf []int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			buf = tr.PathInto(buf, u, v)
			p2 := tr.PathInto(nil, u, v)
			if len(buf) != len(p2) {
				t.Fatalf("PathInto lengths differ with and without a buffer for (%d,%d)", u, v)
			}
			for i := range buf {
				if buf[i] != p2[i] {
					t.Fatalf("PathInto with and without a buffer differ for (%d,%d): %v vs %v", u, v, buf, p2)
				}
			}
			if buf[0] != u || buf[len(buf)-1] != v {
				t.Fatalf("path endpoints wrong for (%d,%d): %v", u, v, buf)
			}
			edges, ok := tr.PathEdges(u, v)
			if !ok || len(edges) != len(buf)-1 {
				t.Fatalf("PathEdges inconsistent for (%d,%d)", u, v)
			}
		}
	}
}
