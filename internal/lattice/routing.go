package lattice

// routing.go provides geometric path search over ancilla tiles: the BFS
// shortest path used by the greedy baseline and the row/column "braid"
// paths used by the AutoBraid-style baseline.

import "slices"

// ShortestAncillaPathInto runs a breadth-first search over ancilla tiles
// from any tile in src to any tile in dst, skipping busy ancillas: the
// tiles whose entry in reserved, indexed by Index, is true (a nil reserved
// marks none). Endpoints that are not live, unreserved ancillas are
// ignored. It appends the tile sequence, including the chosen endpoints,
// to buf and returns the extended slice, or returns nil if no path exists.
//
// The search reuses scratch owned by the grid, so with a buf of enough
// capacity it allocates nothing; concurrent calls on one Grid are not safe
// (each seeded run owns its grid, and Clone never shares the scratch).
func (g *Grid) ShortestAncillaPathInto(src, dst []Coord, reserved []bool, buf []Coord) []Coord {
	if len(src) == 0 || len(dst) == 0 {
		return nil
	}
	sc := g.bfsScratch()
	ep := sc.epoch
	anyDst := false
	for _, c := range dst {
		if i, ok := g.open(c, reserved); ok {
			sc.dst[i] = ep
			anyDst = true
		}
	}
	if !anyDst {
		return nil
	}
	queue := sc.queue[:0]
	defer func() { sc.queue = queue }()
	for _, c := range src {
		i, ok := g.open(c, reserved)
		if !ok || sc.seen[i] == ep {
			continue
		}
		sc.seen[i] = ep
		sc.prev[i] = -1
		queue = append(queue, int32(i))
		if sc.dst[i] == ep {
			return append(buf, c)
		}
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		c := Coord{int(i) / g.cols, int(i) % g.cols}
		for d := North; d <= West; d++ {
			ni, ok := g.open(c.Step(d), reserved)
			if !ok || sc.seen[ni] == ep {
				continue
			}
			sc.seen[ni] = ep
			sc.prev[ni] = i
			if sc.dst[ni] == ep {
				return g.tracePath(sc.prev, int32(ni), buf)
			}
			queue = append(queue, int32(ni))
		}
	}
	return nil
}

// open returns the index of tile c if c is a live ancilla that reserved
// does not mark (a nil reserved marks none).
func (g *Grid) open(c Coord, reserved []bool) (int, bool) {
	i, ok := g.Index(c)
	if !ok || g.kind[i] != TileAncilla || (reserved != nil && reserved[i]) {
		return 0, false
	}
	return i, true
}

// tracePath walks prev back from tile index end to its source, appending
// the path (source first) to buf.
func (g *Grid) tracePath(prev []int32, end int32, buf []Coord) []Coord {
	from := len(buf)
	for i := end; i >= 0; i = prev[i] {
		buf = append(buf, Coord{int(i) / g.cols, int(i) % g.cols})
	}
	slices.Reverse(buf[from:])
	return buf
}

// pathScratch is ShortestAncillaPathInto's dense, reusable search state. Marks
// are epoch-stamped, so starting a search clears nothing: a tile is seen
// (or a destination) in the current search iff its stamp equals epoch.
type pathScratch struct {
	epoch uint32
	seen  []uint32 // tile index -> epoch it was visited in
	dst   []uint32 // tile index -> epoch it was marked a destination in
	prev  []int32  // tile index -> predecessor tile index, -1 at a source
	queue []int32
}

// bfsScratch returns the grid's search scratch, advanced to a fresh epoch.
func (g *Grid) bfsScratch() *pathScratch {
	n := g.rows * g.cols
	if g.bfs == nil {
		g.bfs = &pathScratch{seen: make([]uint32, n), dst: make([]uint32, n), prev: make([]int32, n)}
	}
	sc := g.bfs
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(sc.seen)
		clear(sc.dst)
		sc.epoch = 1
	}
	return sc
}

// BraidPathInto builds an AutoBraid-style two-segment path between
// ancilla tiles a and b: it walks along a's row to b's column, then along
// b's column (an "L" route). Every tile on the route must be a live
// ancilla that reserved (indexed by Index; nil marks none) does not mark;
// otherwise it tries the transposed "L" (column first), and returns nil if
// neither works. This mimics the row/column braid corridors of Hua et al.
// without global search. The path is appended to buf and the extended
// slice returned, so per-cycle route retries reuse one buffer; on nil,
// buf's contents past len(buf) are unspecified.
func (g *Grid) BraidPathInto(a, b Coord, reserved []bool, buf []Coord) []Coord {
	if p := g.straightL(a, b, true, reserved, buf); p != nil {
		return p
	}
	return g.straightL(a, b, false, reserved, buf)
}

// straightL walks row-first (or column-first) from a to b, appending the
// route to path.
func (g *Grid) straightL(a, b Coord, rowFirst bool, reserved []bool, path []Coord) []Coord {
	ok := func(c Coord) bool {
		_, ok := g.open(c, reserved)
		return ok
	}
	step := func(from, to int) int {
		if to > from {
			return 1
		}
		return -1
	}
	cur := a
	if !ok(cur) {
		return nil
	}
	path = append(path, cur)
	legs := [2]bool{rowFirst, !rowFirst}
	for _, horizontal := range legs {
		if horizontal {
			for cur.Col != b.Col {
				cur = Coord{cur.Row, cur.Col + step(cur.Col, b.Col)}
				if !ok(cur) {
					return nil
				}
				path = append(path, cur)
			}
		} else {
			for cur.Row != b.Row {
				cur = Coord{cur.Row + step(cur.Row, b.Row), cur.Col}
				if !ok(cur) {
					return nil
				}
				path = append(path, cur)
			}
		}
	}
	return path
}

// PathContiguous reports whether path is a sequence of 4-adjacent live
// ancilla tiles (used to validate scheduler output in tests and as a
// defensive check in the engine).
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
