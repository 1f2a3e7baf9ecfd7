package rus

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

func TestSubsystemCount(t *testing.T) {
	cases := map[int]int{3: 4, 5: 12, 7: 24, 9: 40, 11: 60, 13: 84}
	for d, want := range cases {
		p := Params{Distance: d, PhysError: 1e-4}
		if got := p.SubsystemCount(); got != want {
			t.Errorf("SubsystemCount(d=%d) = %d, want %d", d, got, want)
		}
	}
}

// Figure 16 shape: expected prep cycles decrease as d increases.
func TestPrepCyclesDecreaseWithDistance(t *testing.T) {
	prev := math.Inf(1)
	for _, d := range []int{3, 5, 7, 9, 11, 13} {
		p := Params{Distance: d, PhysError: 1e-4}
		c := p.ExpectedPrepCycles()
		if c >= prev {
			t.Errorf("prep cycles should fall with d: d=%d gives %v >= %v", d, c, prev)
		}
		prev = c
	}
}

// Figure 16 shape: expected prep cycles decrease as p decreases.
func TestPrepCyclesDecreaseWithErrorRate(t *testing.T) {
	prev := math.Inf(1)
	for _, p := range []float64{1e-3, 3e-4, 1e-4, 3e-5, 1e-5} {
		c := Params{Distance: 7, PhysError: p}.ExpectedPrepCycles()
		if c >= prev {
			t.Errorf("prep cycles should fall with p: p=%v gives %v >= %v", p, c, prev)
		}
		prev = c
	}
}

// Figure 16 shape: expected attempts increase as d increases (the second
// error-detection round post-selects over more locations).
func TestAttemptsIncreaseWithDistance(t *testing.T) {
	prev := 0.0
	for _, d := range []int{3, 5, 7, 9, 11, 13} {
		a := Params{Distance: d, PhysError: 1e-3}.ExpectedAttempts()
		if a <= prev {
			t.Errorf("attempts should rise with d: d=%d gives %v <= %v", d, a, prev)
		}
		prev = a
	}
}

// Paper: "expected attempts are close to 1 for most combinations of d and
// p" in the near-term regime.
func TestAttemptsNearOneInNearTermRegime(t *testing.T) {
	for _, d := range []int{5, 7, 9} {
		for _, p := range []float64{1e-5, 1e-4} {
			a := Params{Distance: d, PhysError: p}.ExpectedAttempts()
			if a < 1 || a > 1.2 {
				t.Errorf("d=%d p=%v: attempts = %v, want in [1, 1.2]", d, p, a)
			}
		}
	}
}

func TestPrepSuccessPerCycleBounds(t *testing.T) {
	f := func(dRaw uint8, pExp uint8) bool {
		d := 3 + 2*int(dRaw%8)
		p := math.Pow(10, -1.5-3*float64(pExp%100)/100) // p in [10^-4.5, 10^-1.5]
		pr := Params{Distance: d, PhysError: p}.PrepSuccessPerCycle()
		return pr > 0 && pr < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrepCyclesAtPaperOperatingPoint(t *testing.T) {
	// At d=7, p=1e-4 the paper says preparation almost always succeeds in
	// the first parallelized attempt; our model should give close to one
	// cycle and a per-cycle success probability over 0.7.
	p := Params{Distance: 7, PhysError: 1e-4}
	if c := p.ExpectedPrepCycles(); c < 1 || c > 2 {
		t.Errorf("ExpectedPrepCycles = %v, want in [1,2]", c)
	}
	if pr := p.PrepSuccessPerCycle(); pr < 0.5 {
		t.Errorf("PrepSuccessPerCycle = %v, want >= 0.5", pr)
	}
}

func TestExpectedInjections(t *testing.T) {
	if got := ExpectedInjections(circuit.NewAngle(1, 3)); got != 2 {
		t.Errorf("non-dyadic expectation = %v, want 2 (Equation 1)", got)
	}
	if got := ExpectedInjections(circuit.NewAngle(1, 2)); got != 0 {
		t.Errorf("Clifford angle expectation = %v, want 0", got)
	}
	// T gate: one doubling to Clifford -> E = 1/2 + 1/2 = 1.
	if got := ExpectedInjections(circuit.NewAngle(1, 4)); math.Abs(got-1) > 1e-12 {
		t.Errorf("T-gate expectation = %v, want 1", got)
	}
	// pi/8: n=2 -> 1/2 + 2/4 + 2/4 = 1.5.
	if got := ExpectedInjections(circuit.NewAngle(1, 8)); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("pi/8 expectation = %v, want 1.5", got)
	}
}

// Property: dyadic expectations are strictly below 2 and approach 2 as the
// doubling chain lengthens.
func TestExpectedInjectionsMonotoneProperty(t *testing.T) {
	prev := 0.0
	for k := 2; k <= 20; k++ {
		e := ExpectedInjections(circuit.NewAngle(1, 1<<k))
		if e <= prev || e >= 2 {
			t.Fatalf("E[inj] for pi/2^%d = %v, want increasing toward 2 (prev %v)", k, e, prev)
		}
		prev = e
	}
}

func TestInjectionSpecsTable1(t *testing.T) {
	zz := SpecFor(InjectZZ)
	if zz.ExposedEdge != 'Z' || zz.Ancillas != 1 || zz.Cycles != 1 {
		t.Errorf("ZZ spec = %+v, want edge Z, 1 ancilla, 1 cycle", zz)
	}
	cn := SpecFor(InjectCNOT)
	if cn.ExposedEdge != 'X' || cn.Ancillas != 2 || cn.Cycles != 2 {
		t.Errorf("CNOT spec = %+v, want edge X, 2 ancillas, 2 cycles", cn)
	}
}

func TestTModelAppendixA2(t *testing.T) {
	m := DefaultTModel()
	lo, hi := m.RzCyclesRange()
	if lo != 200 || hi != 1300 {
		t.Errorf("RzCyclesRange = %d-%d, want 200-1300", lo, hi)
	}
	cont := ContinuousRzCycles(2.2, 2)
	if math.Abs(cont-8.4) > 1e-9 {
		t.Errorf("ContinuousRzCycles = %v, want 8.4", cont)
	}
	olo, ohi := m.OverheadRange(cont)
	if olo < 20 || olo > 30 || ohi < 140 || ohi > 160 {
		t.Errorf("OverheadRange = %v-%v, want roughly 20-150x", olo, ohi)
	}
}

func TestFigure3RzBeatsT(t *testing.T) {
	for _, f := range []float64{0.5, 0.9, 0.99} {
		for _, ler := range []float64{1e-6, 1e-7, 1e-8} {
			rz, tg := Figure3Point(f, ler, 100)
			if rz <= tg {
				t.Errorf("F=%v ler=%v: Clifford+Rz capacity %v should exceed Clifford+T %v", f, ler, rz, tg)
			}
			ratio := rz / tg
			if ratio < 50 || ratio > 150 {
				t.Errorf("F=%v ler=%v: capacity ratio %v, want near the ~100x T-count factor", f, ler, ratio)
			}
		}
	}
}

func TestMaxGatesForFidelityEdgeCases(t *testing.T) {
	if !math.IsInf(MaxGatesForFidelity(0, 1e-6), 1) {
		t.Error("degenerate fidelity should return +Inf")
	}
	if !math.IsInf(MaxGatesForFidelity(0.9, 0), 1) {
		t.Error("zero LER should return +Inf")
	}
	// Sanity: 50% fidelity at ler=1e-6 allows ~693k gates.
	n := MaxGatesForFidelity(0.5, 1e-6)
	if n < 690000 || n > 695000 {
		t.Errorf("MaxGates(0.5, 1e-6) = %v, want ~693147", n)
	}
}
