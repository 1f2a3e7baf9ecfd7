package lattice

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// compressReference is Compress as first written: every candidate
// re-indexes the whole grid and re-checks both invariants from scratch.
// It is the oracle the incremental Compress must match draw for draw.
func compressReference(g *Grid, fraction float64, rng *rand.Rand) int {
	if fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	g.kind = slices.Clone(g.kind)
	n := len(g.dataTile)
	a0 := len(g.ancTile)
	target := a0 - int(fraction*float64(a0-n)+0.5)
	removed := 0
	for len(g.ancTile) > target {
		progress := false
		order := rng.Perm(len(g.ancTile))
		tiles := slices.Clone(g.ancTile)
		for _, idx := range order {
			if len(g.ancTile) <= target {
				break
			}
			i := g.idx(tiles[idx])
			if g.kind[i] != TileAncilla {
				continue
			}
			g.kind[i] = TileHole
			if referenceValid(g) {
				removed++
				progress = true
			} else {
				g.kind[i] = TileAncilla
			}
		}
		g.reindexAncillas()
		if !progress {
			break
		}
	}
	g.reindexAncillas()
	return removed
}

// referenceValid re-indexes g and checks both invariants over the whole
// grid, with an ancilla-ID BFS of its own.
func referenceValid(g *Grid) bool {
	g.reindexAncillas()
	if len(g.ancTile) == 0 {
		return false
	}
	seen := make([]bool, len(g.ancTile))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := g.ancTile[id]
		for d := North; d <= West; d++ {
			if nid := g.AncillaID(c.Step(d)); nid >= 0 && !seen[nid] {
				seen[nid] = true
				count++
				stack = append(stack, nid)
			}
		}
	}
	if count != len(g.ancTile) {
		return false
	}
	for q := range g.dataTile {
		if len(g.AncillaNeighbors(g.dataTile[q], nil)) == 0 {
			return false
		}
	}
	return true
}

// TestCompressMatchesReference: Compress removes the same tiles, in the
// same passes, with the same RNG draws as the reference, on STAR and
// linear grids across sizes, fractions (beyond 1 included) and seeds.
func TestCompressMatchesReference(t *testing.T) {
	ns := []int{1, 2, 5, 13, 16, 27, 39, 71, 160}
	if testing.Short() {
		ns = []int{1, 2, 5, 13, 16, 27}
	}
	builders := map[string]func(int) *Grid{"star": NewSTARGrid, "linear": NewLinearGrid}
	for name, build := range builders {
		for _, n := range ns {
			base := build(n)
			for _, fraction := range []float64{0.1, 0.25, 0.5, 0.75, 1, 1.5} {
				for seed := int64(1); seed <= 6; seed++ {
					label := fmt.Sprintf("%s n=%d fraction=%g seed=%d", name, n, fraction, seed)
					want, got := base.Clone(), base.Clone()
					wantRNG, gotRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					wantRemoved := compressReference(want, fraction, wantRNG)
					gotRemoved := got.Compress(fraction, gotRNG)
					if gotRemoved != wantRemoved {
						t.Fatalf("%s: removed %d, reference %d", label, gotRemoved, wantRemoved)
					}
					if got.Render() != want.Render() {
						t.Fatalf("%s: tiling differs from the reference:\n%s\nwant:\n%s", label, got.Render(), want.Render())
					}
					if !slices.Equal(got.ancTile, want.ancTile) || !slices.Equal(got.ancID, want.ancID) {
						t.Fatalf("%s: ancilla order differs from the reference", label)
					}
					if a, b := gotRNG.Int63(), wantRNG.Int63(); a != b {
						t.Fatalf("%s: RNG drawn differently from the reference", label)
					}
					if err := got.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		}
	}
}
