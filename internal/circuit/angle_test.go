package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAngleCanonicalization(t *testing.T) {
	cases := []struct {
		num, den     int64
		wantN, wantD int64
	}{
		{1, 4, 1, 4},
		{2, 8, 1, 4},
		{-1, 4, 7, 4},   // -pi/4 = 7pi/4 mod 2pi
		{9, 4, 1, 4},    // 9pi/4 = pi/4
		{1, -4, 7, 4},   // negative denominator
		{0, 7, 0, 1},    // zero reduces denominator to 1
		{8, 4, 0, 1},    // 2pi = 0
		{6, 4, 3, 2},    // 3pi/2
		{-13, 6, 11, 6}, // -13pi/6 = 11pi/6? -13/6 + 2 = -1/6 + ... -13+12=-1 -> -1/6 -> +2 => 11/6
	}
	for _, c := range cases {
		got := NewAngle(c.num, c.den)
		if got.Num != c.wantN || got.Den != c.wantD {
			t.Errorf("NewAngle(%d,%d) = %d/%d, want %d/%d", c.num, c.den, got.Num, got.Den, c.wantN, c.wantD)
		}
	}
}

func TestNewAngleZeroDenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero denominator")
		}
	}()
	NewAngle(1, 0)
}

func TestIsClifford(t *testing.T) {
	clifford := []Angle{Zero, NewAngle(1, 2), NewAngle(1, 1), NewAngle(3, 2), NewAngle(2, 1)}
	for _, a := range clifford {
		if !a.IsClifford() {
			t.Errorf("%v should be Clifford", a)
		}
	}
	nonClifford := []Angle{NewAngle(1, 4), NewAngle(1, 8), NewAngle(1, 3), NewAngle(5, 6), NewAngle(3, 8)}
	for _, a := range nonClifford {
		if a.IsClifford() {
			t.Errorf("%v should not be Clifford", a)
		}
	}
}

func TestDoubleMatchesRadians(t *testing.T) {
	a := NewAngle(3, 8)
	d := a.Double()
	want := math.Mod(2*a.Radians(), 2*math.Pi)
	if math.Abs(d.Radians()-want) > 1e-12 {
		t.Errorf("Double: got %v rad, want %v rad", d.Radians(), want)
	}
}

func TestDoublingsToClifford(t *testing.T) {
	cases := []struct {
		a      Angle
		want   int
		wantOK bool
	}{
		{NewAngle(1, 2), 0, true},  // S gate already Clifford
		{NewAngle(1, 4), 1, true},  // T gate: one doubling -> pi/2
		{NewAngle(1, 8), 2, true},  // sqrt(T)
		{NewAngle(1, 16), 3, true}, //
		{NewAngle(3, 8), 2, true},  // 3pi/8 -> 3pi/4 -> 3pi/2
		{NewAngle(1, 3), 0, false}, // non-dyadic: never terminates
		{NewAngle(5, 6), 0, false},
		{NewAngle(1, 360), 0, false},
	}
	for _, c := range cases {
		n, ok := c.a.DoublingsToClifford()
		if ok != c.wantOK || (ok && n != c.want) {
			t.Errorf("DoublingsToClifford(%v) = (%d,%v), want (%d,%v)", c.a, n, ok, c.want, c.wantOK)
		}
	}
}

func TestAngleString(t *testing.T) {
	cases := map[string]Angle{
		"0":     Zero,
		"pi":    NewAngle(1, 1),
		"pi/4":  NewAngle(1, 4),
		"3pi/8": NewAngle(3, 8),
		"3pi/2": NewAngle(3, 2),
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("String(%d/%d) = %q, want %q", a.Num, a.Den, got, want)
		}
	}
}

func TestApproxAngleRecoversExactRationals(t *testing.T) {
	for _, a := range []Angle{NewAngle(1, 4), NewAngle(3, 8), NewAngle(5, 6), NewAngle(7, 16), NewAngle(1, 360)} {
		got := ApproxAngle(a.Radians(), maxParseDen)
		if !got.Equal(a) {
			t.Errorf("ApproxAngle(%v rad) = %v, want %v", a.Radians(), got, a)
		}
	}
}

// Property: NewAngle always yields canonical form (Den >= 1, reduced,
// Num in [0, 2*Den)), and Radians is within [0, 2*pi).
func TestAngleCanonicalProperty(t *testing.T) {
	f := func(num int64, den int64) bool {
		if den == 0 {
			den = 1
		}
		// Keep magnitudes sane to avoid overflow in the property itself.
		num %= 1 << 30
		den %= 1 << 30
		if den == 0 {
			den = 3
		}
		a := NewAngle(num, den)
		if a.Den < 1 || a.Num < 0 || a.Num >= 2*a.Den {
			return false
		}
		if g := gcd64(a.Num, a.Den); a.Num != 0 && g != 1 {
			return false
		}
		r := a.Radians()
		return r >= 0 && r < 2*math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: doubling in rational space agrees with doubling in radians
// (mod 2*pi), for bounded inputs.
func TestAngleDoubleProperty(t *testing.T) {
	f := func(num int64, den int64) bool {
		num %= 1 << 20
		den %= 1 << 20
		if den == 0 {
			den = 7
		}
		a := NewAngle(num, den)
		d := a.Double()
		want := math.Mod(2*a.Radians(), 2*math.Pi)
		diff := math.Abs(d.Radians() - want)
		// Allow wraparound at the 2*pi boundary.
		return diff < 1e-6 || math.Abs(diff-2*math.Pi) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a dyadic angle k/2^m always reaches Clifford within m doublings.
func TestDyadicTerminationProperty(t *testing.T) {
	f := func(k int64, m uint8) bool {
		shift := uint(m%20) + 1
		a := NewAngle(k, 1<<shift)
		n, ok := a.DoublingsToClifford()
		return ok && n <= int(shift)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Radians reports the angle in radians.
func (a Angle) Radians() float64 {
	return math.Pi * float64(a.Num) / float64(a.Den)
}
