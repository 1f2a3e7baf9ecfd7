// Package graph implements the undirected weighted graphs and minimum
// spanning trees that back RESCQ's routing data structure: Kruskal
// construction, the two incremental edge-update cases from paper section
// 5.4.1, and minimax (bottleneck) path extraction. The MST property the
// scheduler relies on is that the tree path between any two vertices is a
// minimax path: it minimizes, over all paths, the maximum edge weight
// (paper section 4.2).
package graph

import (
	"fmt"
	"slices"
)

// Edge is an undirected weighted edge between vertices U and V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted multigraph over vertices 0..N-1 with a
// stable edge index space: AddEdge returns an edge ID that remains valid for
// the lifetime of the graph, and weights can be updated in place.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]int32 // vertex -> incident edge IDs
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// Reset empties g to n isolated vertices, keeping the storage of its edge
// and adjacency lists for the edges added next.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g.n = n
	g.edges = g.edges[:0]
	g.adj = slices.Grow(g.adj[:0], n)[:n]
	for v := range g.adj {
		g.adj[v] = g.adj[v][:0]
	}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts an undirected edge and returns its ID.
func (g *Graph) AddEdge(u, v int, w float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self loop at %d", u))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], int32(id))
	g.adj[v] = append(g.adj[v], int32(id))
	return id
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// SetWeight updates the weight of edge id without any MST maintenance; use
// Tree.UpdateWeight to keep a spanning tree consistent.
func (g *Graph) SetWeight(id int, w float64) { g.edges[id].W = w }

// Other returns the endpoint of edge id that is not v.
func (g *Graph) Other(id, v int) int {
	e := g.edges[id]
	if e.U == v {
		return e.V
	}
	return e.U
}

// DSU is a disjoint-set union (union-find) with path halving and union by
// size.
type DSU struct {
	parent []int32
	size   []int32
}

// NewDSU returns a DSU over n singleton sets.
func NewDSU(n int) *DSU {
	d := &DSU{}
	d.Reset(n)
	return d
}

// Reset reinitializes the DSU to n singleton sets, reusing its storage when
// it is already large enough.
func (d *DSU) Reset(n int) {
	if cap(d.parent) >= n {
		d.parent, d.size = d.parent[:n], d.size[:n]
	} else {
		d.parent, d.size = make([]int32, n), make([]int32, n)
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
}

// Find returns the representative of x's set.
func (d *DSU) Find(x int) int {
	for d.parent[x] != int32(x) {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = int(d.parent[x])
	}
	return x
}

// Union merges the sets of a and b, returning false if already joined.
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = int32(ra)
	d.size[ra] += d.size[rb]
	return true
}

// GridGraph builds the rows x cols 4-neighbour grid graph with all edge
// weights w0 — the structure used for the section 5.4.1 MST timing
// analysis.
func GridGraph(rows, cols int, w0 float64) *Graph {
	g := NewGraph(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(at(r, c), at(r, c+1), w0)
			}
			if r+1 < rows {
				g.AddEdge(at(r, c), at(r+1, c), w0)
			}
		}
	}
	return g
}
