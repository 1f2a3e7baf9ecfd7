// Package lattice models the surface-code tile fabric the schedulers
// operate on: a grid of d-by-d logical tiles, each a data qubit, a routing
// ancilla, or a hole (removed by grid compression). The default layout is
// the STAR grid of Akahoshi et al. as used by the paper: one data qubit per
// 2x2 block, giving three ancilla tiles per data qubit at 0% compression,
// with full ancilla corridors on even rows and columns. Grid compression
// (paper section 5.3) removes two of a block's three ancillas while keeping
// the ancilla network connected, down to one ancilla per data qubit.
package lattice

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/graph"
)

// TileKind classifies a grid tile.
type TileKind uint8

const (
	// TileHole is an unusable tile (removed by compression or outside the
	// active fabric).
	TileHole TileKind = iota
	// TileData holds a program qubit.
	TileData
	// TileAncilla is a routing / state-preparation ancilla tile.
	TileAncilla
)

// Orientation records which sides of a data tile expose its Z edges. The
// paper's convention (Figure 2) is horizontal edges = Z, i.e. the Z edges
// face north and south; an edge-rotation gate toggles the orientation.
type Orientation uint8

const (
	// ZNorthSouth exposes Z edges to the north/south neighbours and X
	// edges east/west. This is the initial orientation of every qubit.
	ZNorthSouth Orientation = iota
	// ZEastWest is the rotated orientation: Z edges east/west.
	ZEastWest
)

// Toggled returns the opposite orientation.
func (o Orientation) Toggled() Orientation {
	if o == ZNorthSouth {
		return ZEastWest
	}
	return ZNorthSouth
}

// Coord addresses a tile by row and column.
type Coord struct {
	Row, Col int
}

// At is a convenience constructor for Coord.
func At(row, col int) Coord { return Coord{Row: row, Col: col} }

// Dir is one of the four cardinal directions.
type Dir uint8

// Cardinal directions, in the fixed order used by iteration helpers.
const (
	North Dir = iota
	South
	East
	West
)

// Step returns the coordinate one tile away in direction d.
func (c Coord) Step(d Dir) Coord {
	switch d {
	case North:
		return Coord{c.Row - 1, c.Col}
	case South:
		return Coord{c.Row + 1, c.Col}
	case East:
		return Coord{c.Row, c.Col + 1}
	default:
		return Coord{c.Row, c.Col - 1}
	}
}

// String renders the coordinate as (row,col).
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Grid is the lattice fabric. It is mutable in two ways only: compression
// (ancilla removal) at setup time, and data-qubit orientation toggles during
// simulation (edge-rotation gates).
type Grid struct {
	rows, cols int
	kind       []TileKind
	qubitAt    []int // tile -> qubit ID, -1 if not a data tile
	orient     []Orientation
	dataTile   []Coord // qubit -> tile coordinate

	ancID   []int   // tile -> dense ancilla ID, -1 otherwise
	ancTile []Coord // ancilla ID -> tile coordinate

	blockRows, blockCols int
}

// NewSTARGrid builds the uncompressed STAR grid for n program qubits. The
// qubits are laid out row-major over a near-square block grid; qubit q sits
// at tile (2*(q/C)+1, 2*(q%C)+1).
func NewSTARGrid(n int) *Grid {
	if n < 1 {
		panic("lattice: need at least one qubit")
	}
	bc := 1
	for bc*bc < n {
		bc++
	}
	return newBlockGrid(n, bc)
}

// NewLinearGrid builds the single-row layout: every data qubit sits on one
// block row, giving a 3 x (2n+1) tile strip with full ancilla corridors
// above, below and between the qubits. Routing distance grows linearly with
// qubit separation, which makes this layout the adversarial design point
// for topology-sensitivity sweeps.
func NewLinearGrid(n int) *Grid {
	if n < 1 {
		panic("lattice: need at least one qubit")
	}
	return newBlockGrid(n, n)
}

// newBlockGrid lays n data qubits row-major over a block grid bc blocks
// wide: qubit q sits at tile (2*(q/bc)+1, 2*(q%bc)+1), with ancilla
// corridors on every even row and column.
func newBlockGrid(n, bc int) *Grid {
	br := (n + bc - 1) / bc
	rows, cols := 2*br+1, 2*bc+1
	g := &Grid{
		rows:      rows,
		cols:      cols,
		kind:      make([]TileKind, rows*cols),
		qubitAt:   make([]int, rows*cols),
		orient:    make([]Orientation, rows*cols),
		dataTile:  make([]Coord, n),
		blockRows: br,
		blockCols: bc,
	}
	for i := range g.kind {
		g.kind[i] = TileAncilla
		g.qubitAt[i] = -1
	}
	for q := 0; q < n; q++ {
		c := Coord{2*(q/bc) + 1, 2*(q%bc) + 1}
		i := g.idx(c)
		g.kind[i] = TileData
		g.qubitAt[i] = q
		g.dataTile[q] = c
	}
	g.reindexAncillas()
	return g
}

func (g *Grid) idx(c Coord) int { return c.Row*g.cols + c.Col }

// reindexAncillas rebuilds the dense ancilla ID space after layout
// changes, into fresh slices: the old ones may be shared with clones.
func (g *Grid) reindexAncillas() {
	g.ancID = make([]int, g.rows*g.cols)
	n := 0
	for _, k := range g.kind {
		if k == TileAncilla {
			n++
		}
	}
	g.ancTile = make([]Coord, 0, n)
	for i := range g.ancID {
		g.ancID[i] = -1
	}
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			i := r*g.cols + c
			if g.kind[i] == TileAncilla {
				g.ancID[i] = len(g.ancTile)
				g.ancTile = append(g.ancTile, Coord{r, c})
			}
		}
	}
}

// Rows returns the tile row count.
func (g *Grid) Rows() int { return g.rows }

// NumTiles returns the total tile count (rows * cols).
func (g *Grid) NumTiles() int { return g.rows * g.cols }

// Index returns the dense row-major index of c, for flat per-tile arrays
// maintained by the simulator, and whether c is in bounds at all. Hot
// paths derive a tile's index once and read KindAt and AncillaIDAt by it.
func (g *Grid) Index(c Coord) (int, bool) {
	if uint(c.Row) >= uint(g.rows) || uint(c.Col) >= uint(g.cols) {
		return 0, false
	}
	return c.Row*g.cols + c.Col, true
}

// KindAt returns the kind of the tile at dense index i.
func (g *Grid) KindAt(i int) TileKind { return g.kind[i] }

// AncillaIDAt returns the dense ancilla ID of the tile at index i, or -1.
func (g *Grid) AncillaIDAt(i int) int { return g.ancID[i] }

// Cols returns the tile column count.
func (g *Grid) Cols() int { return g.cols }

// NumQubits returns the data qubit count.
func (g *Grid) NumQubits() int { return len(g.dataTile) }

// NumAncilla returns the live ancilla tile count.
func (g *Grid) NumAncilla() int { return len(g.ancTile) }

// Kind returns the tile kind at c (TileHole outside the grid).
func (g *Grid) Kind(c Coord) TileKind {
	if i, ok := g.Index(c); ok {
		return g.kind[i]
	}
	return TileHole
}

// QubitAt returns the qubit ID at tile c, or -1.
func (g *Grid) QubitAt(c Coord) int {
	if i, ok := g.Index(c); ok {
		return g.qubitAt[i]
	}
	return -1
}

// DataTile returns the tile hosting qubit q.
func (g *Grid) DataTile(q int) Coord { return g.dataTile[q] }

// AncillaID returns the dense ancilla ID of tile c, or -1.
func (g *Grid) AncillaID(c Coord) int {
	if i, ok := g.Index(c); ok {
		return g.ancID[i]
	}
	return -1
}

// AncillaTile returns the coordinate of ancilla id.
func (g *Grid) AncillaTile(id int) Coord { return g.ancTile[id] }

// Orientation returns the current edge orientation of qubit q.
func (g *Grid) Orientation(q int) Orientation {
	return g.orient[g.idx(g.dataTile[q])]
}

// ToggleOrientation flips the edge orientation of qubit q; this is the
// effect of an edge-rotation gate.
func (g *Grid) ToggleOrientation(q int) {
	i := g.idx(g.dataTile[q])
	g.orient[i] = g.orient[i].Toggled()
}

// ZEdgeDirs returns the two directions in which qubit q currently exposes
// its Z edges.
func (g *Grid) ZEdgeDirs(q int) [2]Dir {
	if g.Orientation(q) == ZNorthSouth {
		return [2]Dir{North, South}
	}
	return [2]Dir{East, West}
}

// XEdgeDirs returns the two directions in which qubit q currently exposes
// its X edges.
func (g *Grid) XEdgeDirs(q int) [2]Dir {
	if g.Orientation(q) == ZNorthSouth {
		return [2]Dir{East, West}
	}
	return [2]Dir{North, South}
}

// AncillaNeighbors appends to buf the coordinates of ancilla tiles
// 4-adjacent to c and returns the extended slice.
func (g *Grid) AncillaNeighbors(c Coord, buf []Coord) []Coord {
	for d := North; d <= West; d++ {
		n := c.Step(d)
		if g.Kind(n) == TileAncilla {
			buf = append(buf, n)
		}
	}
	return buf
}

// ZEdgeAncillas appends to buf the ancilla tiles adjacent to qubit q
// across its Z edges (at most two) and returns the extended slice.
func (g *Grid) ZEdgeAncillas(q int, buf []Coord) []Coord {
	return g.edgeAncillas(q, g.ZEdgeDirs(q), buf)
}

// XEdgeAncillas appends to buf the ancilla tiles adjacent to qubit q
// across its X edges (at most two) and returns the extended slice.
func (g *Grid) XEdgeAncillas(q int, buf []Coord) []Coord {
	return g.edgeAncillas(q, g.XEdgeDirs(q), buf)
}

func (g *Grid) edgeAncillas(q int, dirs [2]Dir, buf []Coord) []Coord {
	c := g.dataTile[q]
	for _, d := range dirs {
		if n := c.Step(d); g.Kind(n) == TileAncilla {
			buf = append(buf, n)
		}
	}
	return buf
}

// DiagonalAncillas appends to buf the ancilla tiles diagonally adjacent to
// qubit q and returns the extended slice. RESCQ enqueues Rz preparations
// on these when they can be routed to the data qubit through an
// X-edge-adjacent routing ancilla (Figure 7).
func (g *Grid) DiagonalAncillas(q int, buf []Coord) []Coord {
	c := g.dataTile[q]
	for _, dc := range [4]Coord{
		{c.Row - 1, c.Col - 1}, {c.Row - 1, c.Col + 1},
		{c.Row + 1, c.Col - 1}, {c.Row + 1, c.Col + 1},
	} {
		if g.Kind(dc) == TileAncilla {
			buf = append(buf, dc)
		}
	}
	return buf
}

// AncillaGraphInto builds the undirected graph over ancilla IDs with one
// edge per pair of 4-adjacent ancilla tiles, all weights 0, into gr
// (reusing its storage) or, when gr is nil, into a new graph, and returns
// it. Edge IDs follow ancilla IDs, south edge before east.
func (g *Grid) AncillaGraphInto(gr *graph.Graph) *graph.Graph {
	if gr == nil {
		gr = graph.NewGraph(len(g.ancTile))
	} else {
		gr.Reset(len(g.ancTile))
	}
	for id, c := range g.ancTile {
		// Add each edge once: only toward south and east.
		for _, d := range [2]Dir{South, East} {
			n := c.Step(d)
			if nid := g.AncillaID(n); nid >= 0 {
				gr.AddEdge(id, nid, 0)
			}
		}
	}
	return gr
}

// AncillaConnected reports whether the ancilla tiles form a single
// 4-connected component.
func (g *Grid) AncillaConnected() bool {
	if len(g.ancTile) == 0 {
		return false
	}
	n, _ := g.reachableAncillas(g.ancTile[0], make([]bool, len(g.kind)), nil)
	return n == len(g.ancTile)
}

// reachableAncillas counts the ancilla tiles 4-connected to start, itself
// an ancilla, reading only the tile kinds. seen (one flag per tile) and
// stack are scratch reused across calls; the grown stack is returned for
// the next one.
func (g *Grid) reachableAncillas(start Coord, seen []bool, stack []Coord) (int, []Coord) {
	clear(seen)
	seen[g.idx(start)] = true
	stack = append(stack[:0], start)
	count := 1
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for d := North; d <= West; d++ {
			if n := c.Step(d); g.Kind(n) == TileAncilla && !seen[g.idx(n)] {
				seen[g.idx(n)] = true
				count++
				stack = append(stack, n)
			}
		}
	}
	return count, stack
}

// Compress removes ancilla tiles to model the paper's section 5.3 grid
// compression, which shrinks STAR blocks from three ancillas per data
// qubit (0%) toward a single ancilla per data qubit (100%). The target
// ancilla count interpolates between the full layout and one-per-data:
// tiles are removed in random order, skipping any removal that would
// disconnect the ancilla network or strand a data qubit with no adjacent
// ancilla — the paper's "while still ensuring the grid remains connected".
// Because a connected network touching every data qubit needs corridor
// tiles, very high compression targets may be unreachable; Compress then
// removes as much as connectivity allows. It returns the number of
// ancillas removed. The grid must satisfy CheckInvariants, as every
// layout builder's grid does.
func (g *Grid) Compress(fraction float64, rng *rand.Rand) int {
	if fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	// The tiling may be shared with clones (see Clone): compress a copy.
	// reindexAncillas makes fresh indexes.
	g.kind = slices.Clone(g.kind)
	n := len(g.dataTile)
	a0 := len(g.ancTile)
	target := a0 - int(fraction*float64(a0-n)+0.5)
	seen := make([]bool, len(g.kind))
	var stack []Coord
	// left counts the ancillas. The exit tests read seenLeft, the count
	// with the last candidate removed even when it was rejected (then one
	// fewer than left): the compressed layouts, and the RNG draws that
	// make them, are pinned with that reading.
	left, seenLeft := a0, a0
	removed := 0
	for seenLeft > target {
		progress := false
		tiles := g.ancTile // this pass's ancillas, row-major
		for _, idx := range rng.Perm(left) {
			if seenLeft <= target {
				break
			}
			c := tiles[idx]
			i := g.idx(c)
			if g.kind[i] != TileAncilla {
				continue // removed earlier this pass
			}
			g.kind[i] = TileHole
			if g.removable(c, left-1, seen, &stack) {
				left--
				seenLeft = left
				removed++
				progress = true
			} else {
				g.kind[i] = TileAncilla
				seenLeft = left - 1
			}
		}
		g.reindexAncillas()
		seenLeft = left
		if !progress {
			break
		}
	}
	return removed
}

// removable reports whether the grid stays usable with tile c, an
// ancilla of a grid that satisfied CheckInvariants, just made a hole,
// leaving left ancillas: every data qubit next to c keeps an adjacent
// ancilla, and the left ancillas stay 4-connected. seen and stack are
// reachableAncillas' scratch.
func (g *Grid) removable(c Coord, left int, seen []bool, stack *[]Coord) bool {
	start, found := c, false
	for d := North; d <= West; d++ {
		switch n := c.Step(d); g.Kind(n) {
		case TileAncilla:
			start, found = n, true
		case TileData:
			if !g.hasAncillaNeighbor(n) {
				return false
			}
		}
	}
	if !found {
		return false // c was the last ancilla
	}
	var n int
	n, *stack = g.reachableAncillas(start, seen, *stack)
	return n == left
}

// hasAncillaNeighbor reports whether c has a 4-adjacent ancilla tile.
func (g *Grid) hasAncillaNeighbor(c Coord) bool {
	for d := North; d <= West; d++ {
		if g.Kind(c.Step(d)) == TileAncilla {
			return true
		}
	}
	return false
}

// NewGridFromTiles builds a grid from ASCII-art rows, one character per
// tile: 'D' is a data qubit, '.' an ancilla, ' ' a hole. Qubit IDs are
// assigned row-major over the 'D' tiles. All rows must have equal width.
// The resulting grid must satisfy CheckInvariants; this is the substrate of
// the "custom" layout (JSON-described arbitrary tilings).
func NewGridFromTiles(tiles []string) (*Grid, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("lattice: custom grid needs at least one row")
	}
	rows, cols := len(tiles), len(tiles[0])
	if cols == 0 {
		return nil, fmt.Errorf("lattice: custom grid rows must be non-empty")
	}
	g := &Grid{
		rows:    rows,
		cols:    cols,
		kind:    make([]TileKind, rows*cols),
		qubitAt: make([]int, rows*cols),
		orient:  make([]Orientation, rows*cols),
	}
	for r, row := range tiles {
		if len(row) != cols {
			return nil, fmt.Errorf("lattice: custom grid row %d is %d tiles wide, want %d", r, len(row), cols)
		}
		for c := 0; c < cols; c++ {
			i := r*cols + c
			g.qubitAt[i] = -1
			switch row[c] {
			case 'D':
				g.kind[i] = TileData
				g.qubitAt[i] = len(g.dataTile)
				g.dataTile = append(g.dataTile, Coord{r, c})
			case '.':
				g.kind[i] = TileAncilla
			case ' ':
				g.kind[i] = TileHole
			default:
				return nil, fmt.Errorf("lattice: custom grid row %d col %d: unknown tile %q (want 'D', '.' or ' ')", r, c, row[c])
			}
		}
	}
	if len(g.dataTile) == 0 {
		return nil, fmt.Errorf("lattice: custom grid has no data tiles")
	}
	g.reindexAncillas()
	if err := g.CheckInvariants(); err != nil {
		return nil, err
	}
	return g, nil
}

// Clone returns an independent copy of the grid. Layout builders are
// deterministic but can be expensive (compact re-runs the whole
// compression search, custom re-parses its spec), so callers build a
// configuration's grid once and clone it per seeded run — the clone then
// takes the run's private mutations (compression, orientation toggles).
//
// Only the orientations are copied. The tiling (kinds, qubit and ancilla
// indexes) is shared, because no grid ever writes it in place once built:
// Compress gives the grid it compresses a fresh tiling first.
func (g *Grid) Clone() *Grid {
	ng := *g
	ng.orient = slices.Clone(g.orient)
	return &ng
}

// CheckInvariants verifies the two structural properties every usable
// layout must provide: the ancilla network forms one 4-connected component
// (so any pair of qubits can be routed) and every data qubit has at least
// one 4-adjacent ancilla tile (so it can inject and route at all).
func (g *Grid) CheckInvariants() error {
	if !g.AncillaConnected() {
		return fmt.Errorf("lattice: ancilla network is not connected")
	}
	var buf []Coord
	for q := range g.dataTile {
		buf = g.AncillaNeighbors(g.dataTile[q], buf[:0])
		if len(buf) == 0 {
			return fmt.Errorf("lattice: data qubit %d at %v has no adjacent ancilla", q, g.dataTile[q])
		}
	}
	return nil
}

// AncillaPerData returns the current ancilla-to-data-qubit ratio.
func (g *Grid) AncillaPerData() float64 {
	return float64(len(g.ancTile)) / float64(len(g.dataTile))
}

// Render draws the grid as ASCII art (Figure 15-style): data tiles as 'D',
// ancillas as '.', holes as ' '.
func (g *Grid) Render() string {
	var sb strings.Builder
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			switch g.kind[r*g.cols+c] {
			case TileData:
				sb.WriteByte('D')
			case TileAncilla:
				sb.WriteByte('.')
			default:
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
