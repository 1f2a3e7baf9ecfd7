package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderAndStats(t *testing.T) {
	c := New("demo", 3)
	c.H(0)
	c.CNOT(0, 1)
	c.Rz(1, NewAngle(1, 8))
	c.T(2)                  // canonicalized to Rz(pi/4)
	c.Rz(2, NewAngle(1, 2)) // S, Clifford: frame-only
	c.X(0)                  // frame-only
	c.CNOT(1, 2)

	s := c.Stats()
	if s.Total != 7 {
		t.Errorf("Total = %d, want 7", s.Total)
	}
	if s.Rz != 2 {
		t.Errorf("Rz = %d, want 2 (rz pi/8 and t)", s.Rz)
	}
	if s.CNOT != 2 {
		t.Errorf("CNOT = %d, want 2", s.CNOT)
	}
	if s.H != 1 {
		t.Errorf("H = %d, want 1", s.H)
	}
	if s.FrameOnly != 2 {
		t.Errorf("FrameOnly = %d, want 2", s.FrameOnly)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTCanonicalization(t *testing.T) {
	c := New("t", 1)
	c.T(0)
	c.Tdg(0)
	if c.Gates[0].Kind != KindRz || !c.Gates[0].Angle.Equal(NewAngle(1, 4)) {
		t.Errorf("T gate not canonicalized: %+v", c.Gates[0])
	}
	if c.Gates[1].Kind != KindRz || !c.Gates[1].Angle.Equal(NewAngle(-1, 4)) {
		t.Errorf("Tdg gate not canonicalized: %+v", c.Gates[1])
	}
}

func TestDepthSequentialVsParallel(t *testing.T) {
	seq := New("seq", 2)
	for i := 0; i < 5; i++ {
		seq.CNOT(0, 1)
	}
	if d := seq.Stats().Depth; d != 5 {
		t.Errorf("sequential depth = %d, want 5", d)
	}

	par := New("par", 10)
	for i := 0; i < 5; i++ {
		par.CNOT(2*i, 2*i+1)
	}
	if d := par.Stats().Depth; d != 1 {
		t.Errorf("parallel depth = %d, want 1", d)
	}
}

func TestCNOTSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for CNOT(q,q)")
		}
	}()
	c := New("bad", 2)
	c.CNOT(1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range qubit")
		}
	}()
	c := New("bad", 2)
	c.H(5)
}

func TestScheduledFiltersFrameOnly(t *testing.T) {
	c := New("f", 2)
	c.X(0)
	c.CNOT(0, 1)
	c.X(1)
	c.Rz(0, NewAngle(1, 2)) // pi/2 is Clifford: frame-only
	c.Rz(0, NewAngle(1, 4))
	d := NewDAG(c)
	if d.Len() != 2 {
		t.Fatalf("DAG holds %d gates, want 2", d.Len())
	}
	if d.Gate(0).Kind != KindCNOT || d.Gate(1).Kind != KindRz {
		t.Errorf("scheduled gates = %v, %v", d.Gate(0), d.Gate(1))
	}
	// Original IDs preserved.
	if d.Gate(0).ID != 1 || d.Gate(1).ID != 4 {
		t.Errorf("scheduled IDs = %d,%d, want 1,4", d.Gate(0).ID, d.Gate(1).ID)
	}
}

// randomCircuit builds a pseudo-random valid circuit for property tests.
func randomCircuit(r *rand.Rand, maxQ, maxG int) *Circuit {
	n := 2 + r.Intn(maxQ-1)
	c := New("random", n)
	g := r.Intn(maxG + 1)
	for i := 0; i < g; i++ {
		switch r.Intn(4) {
		case 0:
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				b = (a + 1) % n
			}
			c.CNOT(a, b)
		case 1:
			c.Rz(r.Intn(n), NewAngle(int64(1+r.Intn(15)), int64(2+r.Intn(30))))
		case 2:
			c.H(r.Intn(n))
		case 3:
			c.X(r.Intn(n))
		}
	}
	return c
}

// Property: every randomly built circuit validates, and the scheduled gate
// count plus the frame-only count equals the total.
func TestRandomCircuitInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 20, 200)
		if c.Validate() != nil {
			return false
		}
		s := c.Stats()
		n := NewDAG(c).Len()
		return n+s.FrameOnly == s.Total && s.Rz+s.CNOT+s.H == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
