// Package circuit provides the Clifford+Rz circuit intermediate
// representation used throughout the RESCQ reproduction: gate kinds, exact
// rotation angles as rational multiples of pi, the circuit container, a
// dependency DAG with critical-path depths, and a parser/writer for the
// artifact's text circuit format.
package circuit

import (
	"fmt"
	"math"
)

// Angle is a Z-rotation angle expressed exactly as theta = pi * Num / Den.
//
// Angles are kept in canonical form: Den >= 1, gcd(|Num|, Den) == 1, and
// Num normalized into [0, 2*Den) so that theta lies in [0, 2*pi). The exact
// rational form matters for the repeat-until-success protocol: a failed
// injection doubles the angle, and the doubling chain terminates as soon as
// the angle becomes a Clifford rotation (a multiple of pi/2). Angles whose
// reduced denominator is a power of two (dyadic angles such as T = pi/4)
// terminate after finitely many doublings; all other angles never do.
type Angle struct {
	Num int64 // numerator of theta/pi
	Den int64 // denominator of theta/pi, always >= 1
}

// Zero is the identity rotation.
var Zero = Angle{Num: 0, Den: 1}

// NewAngle returns the canonical angle pi*num/den. It panics if den == 0.
func NewAngle(num, den int64) Angle {
	if den == 0 {
		panic("circuit: angle with zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	// Normalize num into [0, 2*den): theta mod 2*pi.
	num %= 2 * den
	if num < 0 {
		num += 2 * den
	}
	g := gcd64(num, den)
	if g > 1 {
		num /= g
		den /= g
	}
	return Angle{Num: num, Den: den}
}

// IsClifford reports whether the rotation is a multiple of pi/2 and can
// therefore be absorbed into the Clifford frame without consuming an |m_theta>
// resource state.
func (a Angle) IsClifford() bool {
	// theta = pi*Num/Den is a multiple of pi/2 iff 2*Num/Den is an integer.
	return (2*a.Num)%a.Den == 0
}

// Double returns the corrective angle 2*theta required after a failed
// |m_theta> injection (paper section 3.2). It equals NewAngle(2*Num, Den)
// without the gcd loop: a canonical angle has gcd(Num, Den) = 1, so
// gcd(2*Num, Den) is 2 for even Den and 1 for odd Den.
func (a Angle) Double() Angle {
	if a.Den%2 == 0 {
		return Angle{Num: a.Num % a.Den, Den: a.Den / 2}
	}
	return Angle{Num: 2 * a.Num % (2 * a.Den), Den: a.Den}
}

// DoublingsToClifford returns the number of angle doublings needed before
// the rotation becomes Clifford, and ok=false if the chain never terminates
// (non-dyadic denominator). A T gate (pi/4) returns (1, true): one doubling
// gives pi/2 which is the Clifford S gate.
func (a Angle) DoublingsToClifford() (n int, ok bool) {
	cur := a
	for i := 0; i <= 63; i++ {
		if cur.IsClifford() {
			return i, true
		}
		cur = cur.Double()
	}
	return 0, false
}

// Equal reports exact equality of canonical angles.
func (a Angle) Equal(b Angle) bool { return a.Num == b.Num && a.Den == b.Den }

// String renders the angle as a multiple of pi, e.g. "pi/4" or "3pi/8".
func (a Angle) String() string {
	switch {
	case a.Num == 0:
		return "0"
	case a.Den == 1 && a.Num == 1:
		return "pi"
	case a.Den == 1:
		return fmt.Sprintf("%dpi", a.Num)
	case a.Num == 1:
		return fmt.Sprintf("pi/%d", a.Den)
	default:
		return fmt.Sprintf("%dpi/%d", a.Num, a.Den)
	}
}

// ApproxAngle converts an angle in radians to the nearest canonical rational
// multiple of pi using a continued-fraction expansion with denominators
// bounded by maxDen. It is used when parsing circuits whose angles are
// written as decimal radians.
func ApproxAngle(radians float64, maxDen int64) Angle {
	if maxDen < 1 {
		maxDen = 1
	}
	x := radians / math.Pi
	x = math.Mod(x, 2)
	if x < 0 {
		x += 2
	}
	// Continued-fraction convergents of x with denominator cap.
	var (
		h0, h1 int64 = 1, 0 // numerators
		k0, k1 int64 = 0, 1 // denominators
		t            = x
	)
	for i := 0; i < 64; i++ {
		ai := int64(math.Floor(t))
		h2 := ai*h0 + h1
		k2 := ai*k0 + k1
		if k2 > maxDen || k2 < 0 {
			break
		}
		h1, h0 = h0, h2
		k1, k0 = k0, k2
		frac := t - math.Floor(t)
		if frac < 1e-12 {
			break
		}
		t = 1 / frac
	}
	if k0 == 0 {
		return Zero
	}
	return NewAngle(h0, k0)
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
