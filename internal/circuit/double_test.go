package circuit_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/qbench"
)

// TestDoubleMatchesNewAngle checks Double's gcd-free arithmetic against
// the canonicalizing constructor for every canonical angle with Den <= 4096.
func TestDoubleMatchesNewAngle(t *testing.T) {
	for den := int64(1); den <= 4096; den++ {
		for num := int64(0); num < 2*den; num++ {
			a := circuit.NewAngle(num, den)
			if a.Num != num || a.Den != den {
				continue // not canonical: gcd(num, den) > 1
			}
			if got, want := a.Double(), circuit.NewAngle(2*num, den); got != want {
				t.Fatalf("(%v).Double() = %+v, want %+v", a, got, want)
			}
		}
	}
}

// TestDoubleChainsOfBenchmarkAngles follows the doubling chain of every Rz
// angle in the benchmark circuits until it turns Clifford (at most 64
// doublings, as DoublingsToClifford does) and checks every step against
// the canonicalizing constructor.
func TestDoubleChainsOfBenchmarkAngles(t *testing.T) {
	seen := make(map[circuit.Angle]bool)
	for _, spec := range qbench.All() {
		for _, g := range spec.Circuit().Gates {
			if g.Kind != circuit.KindRz || seen[g.Angle] {
				continue
			}
			seen[g.Angle] = true
			a := g.Angle
			for i := 0; i < 64 && !a.IsClifford(); i++ {
				d := a.Double()
				if want := circuit.NewAngle(2*a.Num, a.Den); d != want {
					t.Fatalf("%s: (%v).Double() = %+v, want %+v", spec.Name, a, d, want)
				}
				a = d
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no Rz angles in the benchmark circuits")
	}
}
