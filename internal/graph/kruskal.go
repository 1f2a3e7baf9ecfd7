package graph

import "math"

// Kruskal computes a minimum spanning forest of g and returns it as a Tree.
// Ties are broken by edge ID so the result is deterministic.
func Kruskal(g *Graph) *Tree {
	return KruskalInto(g, nil, nil, nil)
}

// KruskalInto computes a minimum spanning forest of g into t, reusing t's
// storage, the caller's DSU and edge-order buffer; any of them may be nil,
// in which case fresh ones are allocated. It returns t (or the freshly
// allocated tree when t was nil).
//
// Unlike a comparator-based sort, the edge order comes from a stable LSD
// radix sort over the IEEE-754 bit patterns of the weights, so equal
// weights keep their edge-ID order and the whole recompute is O(E) with no
// per-call allocations once the scratch buffers are warm. The tree
// adjacency is laid out as sub-slices of one flat CSR-style backing array.
func KruskalInto(g *Graph, t *Tree, dsu *DSU, order []int32) *Tree {
	nE := len(g.edges)
	if t == nil {
		t = &Tree{}
	}
	t.g = g
	if cap(t.inTree) >= nE {
		t.inTree = t.inTree[:nE]
		for i := range t.inTree {
			t.inTree[i] = false
		}
	} else {
		t.inTree = make([]bool, nE)
	}
	if cap(t.adj) >= g.n {
		t.adj = t.adj[:g.n]
	} else {
		t.adj = make([][]int32, g.n)
	}
	if dsu == nil {
		dsu = NewDSU(g.n)
	} else {
		dsu.Reset(g.n)
	}
	if cap(order) >= nE {
		order = order[:nE]
	} else {
		order = make([]int32, nE)
	}
	for i := range order {
		order[i] = int32(i)
	}
	if cap(t.keys) >= nE {
		t.keys = t.keys[:nE]
	} else {
		t.keys = make([]uint64, nE)
	}
	for i := range g.edges {
		t.keys[i] = floatKey(g.edges[i].W)
	}
	if cap(t.orderTmp) >= nE {
		t.orderTmp = t.orderTmp[:nE]
	} else {
		t.orderTmp = make([]int32, nE)
	}
	sorted := radixSortEdges(t.keys, order, t.orderTmp)

	chosen := t.treeEdges[:0]
	want := g.n - 1
	for _, id := range sorted {
		e := g.edges[id]
		if dsu.Union(e.U, e.V) {
			t.inTree[id] = true
			chosen = append(chosen, id)
			if len(chosen) == want {
				break
			}
		}
	}
	t.treeEdges = chosen
	t.rebuildAdj(chosen)
	return t
}

// floatKey maps a float64 to a uint64 whose unsigned order matches the
// float order (the standard sign-flip trick, so negative weights sort
// correctly too).
func floatKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSortEdges stably sorts order (a permutation of edge IDs) ascending
// by keys[id], using LSD counting passes over 8-bit digits with tmp as
// same-length scratch. Passes whose digit is constant across all keys are
// skipped — on activity weights quantized to [0,1] plus a bounded jitter
// the high exponent bytes rarely vary, so most inputs need only a few
// passes. It returns the sorted slice (one of order or tmp).
func radixSortEdges(keys []uint64, order, tmp []int32) []int32 {
	if len(order) < 2 {
		return order
	}
	var counts [256]int32
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, id := range order {
			counts[byte(keys[id]>>shift)]++
		}
		if counts[byte(keys[order[0]]>>shift)] == int32(len(order)) {
			continue
		}
		sum := int32(0)
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for _, id := range order {
			d := byte(keys[id] >> shift)
			tmp[counts[d]] = id
			counts[d]++
		}
		order, tmp = tmp, order
	}
	return order
}
