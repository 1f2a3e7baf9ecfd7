package graph

// Test oracles over the graph and tree internals: the tests read a tree's
// weight, size, components and paths through these, and the production
// code never does.

// Same reports whether a and b are in the same set.
func (d *DSU) Same(a, b int) bool { return d.Find(a) == d.Find(b) }

// NumTreeEdges returns the number of edges in the forest.
func (t *Tree) NumTreeEdges() int {
	n := 0
	for _, in := range t.inTree {
		if in {
			n++
		}
	}
	return n
}

// TotalWeight returns the sum of tree edge weights.
func (t *Tree) TotalWeight() float64 {
	var w float64
	for id, in := range t.inTree {
		if in {
			w += t.g.edges[id].W
		}
	}
	return w
}

// PathEdges returns the tree edge IDs along the unique path from u to v, or
// nil,false if disconnected.
func (t *Tree) PathEdges(u, v int) ([]int32, bool) {
	if u == v {
		return []int32{}, true
	}
	t.ensureRooted()
	if t.compOf[u] != t.compOf[v] {
		return nil, false
	}
	var edges []int32
	du, dv := t.depthOf[u], t.depthOf[v]
	for du > dv {
		edges = append(edges, t.parentOf[u])
		u = int(t.parentVtx[u])
		du--
	}
	var vEdges []int32
	for dv > du {
		vEdges = append(vEdges, t.parentOf[v])
		v = int(t.parentVtx[v])
		dv--
	}
	for u != v {
		edges = append(edges, t.parentOf[u])
		u = int(t.parentVtx[u])
		vEdges = append(vEdges, t.parentOf[v])
		v = int(t.parentVtx[v])
	}
	for i := len(vEdges) - 1; i >= 0; i-- {
		edges = append(edges, vEdges[i])
	}
	return edges, true
}

// Bottleneck returns the maximum edge weight on the tree path between u and
// v, and false if they are disconnected.
func (t *Tree) Bottleneck(u, v int) (float64, bool) {
	if u == v {
		return 0, true
	}
	t.ensureRooted()
	if t.compOf[u] != t.compOf[v] {
		return 0, false
	}
	var m float64
	climb := func(x int) int {
		if w := t.g.edges[t.parentOf[x]].W; w > m {
			m = w
		}
		return int(t.parentVtx[x])
	}
	du, dv := t.depthOf[u], t.depthOf[v]
	for du > dv {
		u = climb(u)
		du--
	}
	for dv > du {
		v = climb(v)
		dv--
	}
	for u != v {
		u = climb(u)
		v = climb(v)
	}
	return m, true
}

// SameComponent reports whether u and v are connected in the forest.
func (t *Tree) SameComponent(u, v int) bool {
	if u == v {
		return true
	}
	t.ensureRooted()
	return t.compOf[u] == t.compOf[v]
}
