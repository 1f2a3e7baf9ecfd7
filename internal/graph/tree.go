package graph

import "math"

// Tree is a spanning forest of a Graph, maintained as a minimum spanning
// forest under single-edge weight updates (paper section 5.4.1's two cases).
// It supports path queries between vertices in the same component; by the
// MST cycle/cut properties these paths are minimax (bottleneck-optimal).
type Tree struct {
	g      *Graph
	inTree []bool    // edge ID -> membership
	adj    [][]int32 // vertex -> incident tree edge IDs

	// Reusable scratch state for searches, using epoch stamping so no
	// per-query clearing or allocation is needed.
	epoch      int32
	mark       []int32 // vertex -> epoch when last visited (pathSearch)
	markA      []int32 // side A stamp (smallerSide)
	markB      []int32 // side B stamp (smallerSide)
	parentEdge []int32
	stack      []int
	sideA      []int // smallerSide's BFS queues
	sideB      []int

	// Reusable scratch for KruskalInto/CloneInto: the adjacency lists above
	// are sub-slices of the flat CSR-style adjBuf, and the remaining
	// buffers avoid per-recompute allocations.
	adjBuf    []int32
	deg       []int32
	treeEdges []int32 // edge IDs chosen by the last KruskalInto
	keys      []uint64
	orderTmp  []int32

	// Rooted path index, built lazily on the first path query and
	// invalidated by any structural change. Published (read-only) trees
	// pay one O(n) build and then answer every path query in O(path
	// length) instead of an O(component) search.
	rooted    bool
	parentOf  []int32 // vertex -> tree edge toward the root, -1 at a root
	parentVtx []int32 // vertex -> parent vertex, -1 at a root
	depthOf   []int32
	compOf    []int32 // vertex -> component id
}

// ensureRooted (re)builds the rooted index: one DFS per component
// assigning parent edges, depths and component ids.
func (t *Tree) ensureRooted() {
	if t.rooted {
		return
	}
	n := t.g.n
	if cap(t.parentOf) >= n {
		t.parentOf, t.parentVtx = t.parentOf[:n], t.parentVtx[:n]
		t.depthOf, t.compOf = t.depthOf[:n], t.compOf[:n]
	} else {
		t.parentOf = make([]int32, n)
		t.parentVtx = make([]int32, n)
		t.depthOf = make([]int32, n)
		t.compOf = make([]int32, n)
	}
	for i := range t.compOf {
		t.compOf[i] = -1
	}
	stack := t.stack[:0]
	comp := int32(0)
	for r := 0; r < n; r++ {
		if t.compOf[r] >= 0 {
			continue
		}
		t.parentOf[r] = -1
		t.parentVtx[r] = -1
		t.depthOf[r] = 0
		t.compOf[r] = comp
		stack = append(stack, r)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, id := range t.adj[x] {
				y := t.g.Other(int(id), x)
				if t.compOf[y] >= 0 {
					continue
				}
				t.parentOf[y] = id
				t.parentVtx[y] = int32(x)
				t.depthOf[y] = t.depthOf[x] + 1
				t.compOf[y] = comp
				stack = append(stack, y)
			}
		}
		comp++
	}
	t.stack = stack
	t.rooted = true
}

// rebuildAdj lays the forest adjacency out as sub-slices of one flat
// CSR-style backing array: count degrees, slice per-vertex ranges, then
// scatter. Each per-vertex slice is capacity-capped so later incremental
// appends (UpdateWeight swaps) copy out instead of clobbering a
// neighbour's range.
func (t *Tree) rebuildAdj(chosen []int32) {
	t.rooted = false
	n := t.g.n
	if cap(t.deg) >= n {
		t.deg = t.deg[:n]
		for i := range t.deg {
			t.deg[i] = 0
		}
	} else {
		t.deg = make([]int32, n)
	}
	for _, id := range chosen {
		e := t.g.edges[id]
		t.deg[e.U]++
		t.deg[e.V]++
	}
	need := 2 * len(chosen)
	if cap(t.adjBuf) >= need {
		t.adjBuf = t.adjBuf[:need]
	} else {
		t.adjBuf = make([]int32, need)
	}
	off := int32(0)
	for v := 0; v < n; v++ {
		end := off + t.deg[v]
		t.adj[v] = t.adjBuf[off:off:end]
		off = end
	}
	for _, id := range chosen {
		e := t.g.edges[id]
		t.adj[e.U] = append(t.adj[e.U], id)
		t.adj[e.V] = append(t.adj[e.V], id)
	}
}

// CloneInto copies t's forest structure into dst (sharing t's underlying
// graph), reusing dst's storage where possible, and returns dst (or a
// fresh tree when dst is nil). The MST pipeline uses it to freeze a
// snapshot of an incrementally maintained tree for delayed publication.
func (t *Tree) CloneInto(dst *Tree) *Tree {
	if dst == nil {
		dst = &Tree{}
	}
	dst.g = t.g
	dst.rooted = false
	dst.inTree = append(dst.inTree[:0], t.inTree...)
	if cap(dst.adj) >= t.g.n {
		dst.adj = dst.adj[:t.g.n]
	} else {
		dst.adj = make([][]int32, t.g.n)
	}
	total := 0
	for _, a := range t.adj {
		total += len(a)
	}
	if cap(dst.adjBuf) >= total {
		dst.adjBuf = dst.adjBuf[:total]
	} else {
		dst.adjBuf = make([]int32, total)
	}
	off := 0
	for v, a := range t.adj {
		end := off + copy(dst.adjBuf[off:off+len(a)], a)
		dst.adj[v] = dst.adjBuf[off:end:end]
		off = end
	}
	return dst
}

// scratch lazily sizes the reusable buffers and advances the epoch.
// Stale stamps are below the new epoch, so a tree reused for another
// graph only grows the buffers; a pooled tree can live long enough for the
// epoch to wrap, and only then are the stamps cleared.
func (t *Tree) scratch() {
	if n := t.g.n; len(t.mark) < n {
		t.mark = make([]int32, n)
		t.markA = make([]int32, n)
		t.markB = make([]int32, n)
		t.parentEdge = make([]int32, n)
	}
	if t.epoch == math.MaxInt32 {
		clear(t.mark)
		clear(t.markA)
		clear(t.markB)
		t.epoch = 0
	}
	t.epoch++
}

func (t *Tree) addTreeEdge(id int) {
	e := t.g.edges[id]
	t.inTree[id] = true
	t.adj[e.U] = append(t.adj[e.U], int32(id))
	t.adj[e.V] = append(t.adj[e.V], int32(id))
	t.rooted = false
}

func (t *Tree) removeTreeEdge(id int) {
	e := t.g.edges[id]
	t.inTree[id] = false
	t.adj[e.U] = removeID(t.adj[e.U], int32(id))
	t.adj[e.V] = removeID(t.adj[e.V], int32(id))
	t.rooted = false
}

func removeID(s []int32, id int32) []int32 {
	for i, v := range s {
		if v == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// Contains reports whether edge id is in the tree. Only tests call it:
// core's MST audit compares the pipeline's tree with a fresh Kruskal edge
// by edge.
func (t *Tree) Contains(id int) bool { return t.inTree[id] }

// PathInto returns the vertex sequence of the unique tree path from u to v
// (inclusive of both endpoints) in buf's storage, or nil when u and v are
// in different components; PathInto(buf, u, u) is [u]. Queries run over
// the rooted index: both endpoints climb to their lowest common ancestor,
// so the cost is proportional to the path length, not the component size.
func (t *Tree) PathInto(buf []int, u, v int) []int {
	buf = buf[:0]
	if u == v {
		return append(buf, u)
	}
	t.ensureRooted()
	if t.compOf[u] != t.compOf[v] {
		return nil
	}
	du, dv := t.depthOf[u], t.depthOf[v]
	buf = append(buf, u)
	for du > dv {
		u = int(t.parentVtx[u])
		buf = append(buf, u)
		du--
	}
	vside := t.stack[:0]
	for dv > du {
		vside = append(vside, v)
		v = int(t.parentVtx[v])
		dv--
	}
	for u != v {
		u = int(t.parentVtx[u])
		buf = append(buf, u)
		vside = append(vside, v)
		v = int(t.parentVtx[v])
	}
	for i := len(vside) - 1; i >= 0; i-- {
		buf = append(buf, vside[i])
	}
	t.stack = vside[:0]
	return buf
}

// pathSearch runs an iterative DFS from u to v over tree edges and returns
// the edge IDs from v back toward u.
func (t *Tree) pathSearch(u, v int) ([]int32, bool) {
	if u == v {
		return []int32{}, true
	}
	t.scratch()
	t.mark[u] = t.epoch
	stack := append(t.stack[:0], u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range t.adj[x] {
			y := t.g.Other(int(id), x)
			if t.mark[y] == t.epoch {
				continue
			}
			t.mark[y] = t.epoch
			t.parentEdge[y] = id
			if y == v {
				t.stack = stack
				var edges []int32
				cur := y
				for cur != u {
					id := t.parentEdge[cur]
					edges = append(edges, id)
					cur = t.g.Other(int(id), cur)
				}
				return edges, true
			}
			stack = append(stack, y)
		}
	}
	t.stack = stack
	return nil, false
}

// UpdateWeight changes the weight of edge id to w and restores the minimum
// spanning forest invariant. The two non-trivial cases are exactly the ones
// the paper analyzes in section 5.4.1:
//
//  1. the edge is NOT in the tree and its weight decreased: insert it,
//     which closes a unique cycle, and evict the maximum-weight edge on
//     that cycle;
//  2. the edge IS in the tree and its weight increased: removing it splits
//     the component in two, and the minimum-weight crossing edge (possibly
//     the same edge) reconnects them.
//
// The other two cases (tree edge decreasing, non-tree edge increasing)
// cannot violate the invariant and only store the new weight.
func (t *Tree) UpdateWeight(id int, w float64) {
	old := t.g.edges[id].W
	t.g.edges[id].W = w
	switch {
	case !t.inTree[id] && w < old:
		t.maybeSwapIn(id)
	case t.inTree[id] && w > old:
		t.maybeSwapOut(id)
	}
}

// maybeSwapIn handles case 1: non-tree edge got cheaper.
func (t *Tree) maybeSwapIn(id int) {
	e := t.g.edges[id]
	cycle, ok := t.pathSearch(e.U, e.V)
	if !ok {
		// The edge connects two components: always add it.
		t.addTreeEdge(id)
		return
	}
	// Find the max-weight edge on the unique cycle formed by adding id.
	maxID, maxW := -1, e.W
	for _, cid := range cycle {
		if cw := t.g.edges[cid].W; cw > maxW {
			maxW, maxID = cw, int(cid)
		}
	}
	if maxID >= 0 {
		t.removeTreeEdge(maxID)
		t.addTreeEdge(id)
	}
}

// maybeSwapOut handles case 2: tree edge got more expensive. Removing the
// edge cuts its component in two; the replacement is the minimum-weight
// crossing edge. Only the smaller side's incident edges are scanned, which
// keeps the update near the paper's O(max(rows, cols)) bound on grid
// graphs when the cut splits off a small subtree (the common case).
func (t *Tree) maybeSwapOut(id int) {
	e := t.g.edges[id]
	t.removeTreeEdge(id)
	side, epoch, members := t.smallerSide(e.U, e.V)
	// Find the minimum-weight edge leaving the smaller side, including id
	// itself (it may remain the best reconnection).
	bestID, bestW := id, e.W
	for _, x := range members {
		for _, cid := range t.g.adj[x] {
			c := int(cid)
			if t.inTree[c] || c == id {
				continue
			}
			ce := t.g.edges[c]
			if (side[ce.U] == epoch) != (side[ce.V] == epoch) && ce.W < bestW {
				bestID, bestW = c, ce.W
			}
		}
	}
	t.addTreeEdge(bestID)
}

// smallerSide runs two tree BFSs in lockstep from u and v (which were just
// disconnected) and returns the membership mask and vertex list of the
// side that exhausts first — the smaller component — in time proportional
// to its size.
func (t *Tree) smallerSide(u, v int) ([]int32, int32, []int) {
	t.scratch()
	type walker struct {
		seen  []int32
		q     []int // BFS queue; q[:heads] already expanded
		heads int
	}
	a := &walker{seen: t.markA, q: append(t.sideA[:0], u)}
	b := &walker{seen: t.markB, q: append(t.sideB[:0], v)}
	defer func() { t.sideA, t.sideB = a.q, b.q }()
	a.seen[u] = t.epoch
	b.seen[v] = t.epoch
	step := func(w *walker) bool { // returns false when exhausted
		if w.heads >= len(w.q) {
			return false
		}
		x := w.q[w.heads]
		w.heads++
		for _, tid := range t.adj[x] {
			y := t.g.Other(int(tid), x)
			if w.seen[y] != t.epoch {
				w.seen[y] = t.epoch
				w.q = append(w.q, y)
			}
		}
		return true
	}
	for {
		if !step(a) {
			return a.seen, t.epoch, a.q
		}
		if !step(b) {
			return b.seen, t.epoch, b.q
		}
	}
}
