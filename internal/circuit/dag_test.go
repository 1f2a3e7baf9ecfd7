package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDAGChain(t *testing.T) {
	c := New("chain", 2)
	c.H(0)
	c.CNOT(0, 1)
	c.Rz(1, NewAngle(1, 4))
	d := NewDAG(c)

	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if len(d.Roots()) != 1 || d.Roots()[0] != 0 {
		t.Errorf("Roots = %v, want [0]", d.Roots())
	}
	if d.Height(0) != 3 || d.Height(1) != 2 || d.Height(2) != 1 {
		t.Errorf("Heights = %d,%d,%d, want 3,2,1", d.Height(0), d.Height(1), d.Height(2))
	}
	if d.NumLayers() != 3 {
		t.Errorf("NumLayers = %d, want 3", d.NumLayers())
	}
	if d.CriticalPathLength() != 3 {
		t.Errorf("CriticalPathLength = %d, want 3", d.CriticalPathLength())
	}
}

func TestDAGParallelGates(t *testing.T) {
	c := New("par", 4)
	c.CNOT(0, 1)
	c.CNOT(2, 3)
	d := NewDAG(c)
	if len(d.Roots()) != 2 {
		t.Errorf("Roots = %v, want two independent roots", d.Roots())
	}
	if d.NumLayers() != 1 {
		t.Errorf("NumLayers = %d, want 1", d.NumLayers())
	}
}

func TestDAGSkipsFrameOnly(t *testing.T) {
	c := New("frame", 2)
	c.X(0) // frame-only
	c.CNOT(0, 1)
	c.Rz(1, NewAngle(1, 2)) // S: frame-only
	c.H(1)
	d := NewDAG(c)
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.NodeOf(0) != -1 || d.NodeOf(2) != -1 {
		t.Errorf("frame-only gates should map to node -1")
	}
	if d.NodeOf(1) != 0 || d.NodeOf(3) != 1 {
		t.Errorf("NodeOf mapping wrong: %d %d", d.NodeOf(1), d.NodeOf(3))
	}
	// The H on qubit 1 depends on the CNOT even though a frame-only S sits
	// between them.
	if len(d.Pred(1)) != 1 || d.Pred(1)[0] != 0 {
		t.Errorf("Pred(1) = %v, want [0]", d.Pred(1))
	}
}

func TestDAGSharedQubitDependency(t *testing.T) {
	c := New("dep", 3)
	c.CNOT(0, 1) // node 0
	c.CNOT(1, 2) // node 1 depends on node 0 via qubit 1
	c.H(0)       // node 2 depends on node 0 via qubit 0
	d := NewDAG(c)
	if len(d.Succ(0)) != 2 {
		t.Errorf("Succ(0) = %v, want 2 successors", d.Succ(0))
	}
	if d.Layer(1) != 1 || d.Layer(2) != 1 {
		t.Errorf("layers = %d,%d, want 1,1", d.Layer(1), d.Layer(2))
	}
}

// Property: for random circuits the DAG is acyclic-by-construction
// (predecessors always have smaller node indices), heights strictly decrease
// along edges, and layers strictly increase along edges.
func TestDAGStructuralProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 12, 150)
		d := NewDAG(c)
		for i := 0; i < d.Len(); i++ {
			for _, p := range d.Pred(i) {
				if p >= i {
					return false
				}
				if d.Height(p) <= d.Height(i) {
					return false
				}
				if d.Layer(p) >= d.Layer(i) {
					return false
				}
			}
			for _, s := range d.Succ(i) {
				if s <= i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: executing gates in any topological order derived from the ready
// set reproduces exactly the full gate set (no gate lost or duplicated).
func TestDAGReadySetCoversAllGates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 10, 120)
		d := NewDAG(c)
		indeg := make([]int, d.Len())
		var ready []int
		for i := 0; i < d.Len(); i++ {
			indeg[i] = d.InDegree(i)
			if indeg[i] == 0 {
				ready = append(ready, i)
			}
		}
		done := 0
		for len(ready) > 0 {
			// Pop a pseudo-random ready node to explore different orders.
			k := r.Intn(len(ready))
			n := ready[k]
			ready[k] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			done++
			for _, s := range d.Succ(n) {
				indeg[s]--
				if indeg[s] == 0 {
					ready = append(ready, s)
				}
			}
		}
		return done == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// NodeOf returns the node index for a gate ID, or -1 if the gate is
// frame-only and therefore not part of the DAG.
func (d *DAG) NodeOf(gateID int) int {
	for i, g := range d.nodes {
		if g.ID == gateID {
			return i
		}
	}
	return -1
}

// Pred returns the predecessor node indices of node i (shared slice).
func (d *DAG) Pred(i int) []int { return d.pred[i] }

// Roots returns the node indices with no predecessors (initially ready).
func (d *DAG) Roots() []int {
	var out []int
	for i := range d.nodes {
		if len(d.pred[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}
