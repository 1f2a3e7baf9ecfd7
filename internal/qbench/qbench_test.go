package qbench

import (
	"testing"

	"repro/internal/circuit"
)

// exactFamilies lists benchmarks whose generated Rz/CNOT counts must equal
// Table 3 exactly. Multiplier is excluded (documented few-percent match).
func exactFamilies() map[string]bool {
	out := map[string]bool{}
	for _, s := range registry {
		out[s.Name] = true
	}
	out["multiplier_n45"] = false
	out["multiplier_n75"] = false
	return out
}

func TestAllBenchmarksValidate(t *testing.T) {
	for _, s := range All() {
		c := s.Circuit()
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if c.NumQubits != s.Qubits {
			t.Errorf("%s: qubits = %d, want %d", s.Name, c.NumQubits, s.Qubits)
		}
		if c.Name != s.Name {
			t.Errorf("circuit name %q != spec name %q", c.Name, s.Name)
		}
	}
}

func TestTable3CountsExact(t *testing.T) {
	exact := exactFamilies()
	for _, s := range All() {
		st := s.Circuit().Stats()
		if exact[s.Name] {
			if st.RzTotal != s.PaperRz {
				t.Errorf("%s: Rz = %d, want %d (Table 3)", s.Name, st.RzTotal, s.PaperRz)
			}
			if st.CNOT != s.PaperCNOT {
				t.Errorf("%s: CNOT = %d, want %d (Table 3)", s.Name, st.CNOT, s.PaperCNOT)
			}
		} else {
			// Multiplier: within 10% on both axes.
			if !within(st.RzTotal, s.PaperRz, 0.10) {
				t.Errorf("%s: Rz = %d, want within 10%% of %d", s.Name, st.RzTotal, s.PaperRz)
			}
			if !within(st.CNOT, s.PaperCNOT, 0.10) {
				t.Errorf("%s: CNOT = %d, want within 10%% of %d", s.Name, st.CNOT, s.PaperCNOT)
			}
		}
	}
}

func within(got, want int, tol float64) bool {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d <= tol*float64(want)
}

func TestRzToCNOTRatioSpread(t *testing.T) {
	// Paper section 5.1: benchmarks span Rz:CNOT ratios from ~0.4 to ~6.5.
	lo, hi := 100.0, 0.0
	for _, s := range All() {
		st := s.Circuit().Stats()
		r := float64(st.RzTotal) / float64(st.CNOT)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo > 0.5 {
		t.Errorf("minimum Rz:CNOT ratio = %v, want <= 0.5 (QAOAFermionicSwap)", lo)
	}
	if hi < 6 {
		t.Errorf("maximum Rz:CNOT ratio = %v, want >= 6 (dnn)", hi)
	}
}

func TestSequentialVsParallelStructure(t *testing.T) {
	// Paper: wstate and qft are largely sequential, ising largely parallel.
	depthFrac := func(name string) float64 {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		c := s.Circuit()
		d := circuit.NewDAG(c)
		return float64(d.NumLayers()) / float64(d.Len())
	}
	wstate := depthFrac("wstate_n27")
	ising := depthFrac("ising_n34")
	if wstate < 0.5 {
		t.Errorf("wstate depth fraction = %v, want >= 0.5 (sequential)", wstate)
	}
	if ising > 0.25 {
		t.Errorf("ising depth fraction = %v, want <= 0.25 (parallel)", ising)
	}
	if wstate <= ising {
		t.Error("wstate should be more sequential than ising")
	}
}

func TestQubitRange(t *testing.T) {
	// Table 3 spans 13 to 420 qubits.
	lo, hi := 1<<30, 0
	for _, s := range All() {
		if s.Qubits < lo {
			lo = s.Qubits
		}
		if s.Qubits > hi {
			hi = s.Qubits
		}
	}
	if lo != 13 || hi != 420 {
		t.Errorf("qubit range = [%d,%d], want [13,420]", lo, hi)
	}
}

func TestByNameAndNames(t *testing.T) {
	if len(Names()) != 23 {
		t.Errorf("Table 3 has 23 benchmark rows, got %d", len(Names()))
	}
	for _, n := range Names() {
		if _, ok := ByName(n); !ok {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName should fail for unknown names")
	}
}

func TestRepresentativeSet(t *testing.T) {
	for _, n := range Representative() {
		if _, ok := ByName(n); !ok {
			t.Errorf("representative benchmark %q not registered", n)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range []string{"gcm_n13", "dnn_n16", "qft_n18", "vqe_n13"} {
		s, _ := ByName(name)
		a := circuit.Format(s.Circuit())
		b := circuit.Format(s.Circuit())
		if a != b {
			t.Errorf("%s: generator is not deterministic", name)
		}
	}
}

func TestNonCliffordAnglesAreNonDyadic(t *testing.T) {
	// The variational families must use generic angles whose RUS chain
	// never terminates early (excluding the deliberate dyadic families:
	// qft's CP ladders and multiplier's T gates).
	for _, name := range []string{"dnn_n16", "wstate_n27", "qugan_n39", "vqe_n13"} {
		s, _ := ByName(name)
		for _, g := range s.Circuit().Gates {
			if g.Kind != circuit.KindRz || g.Angle.IsClifford() {
				continue
			}
			if _, dyadic := g.Angle.DoublingsToClifford(); dyadic {
				t.Errorf("%s: angle %v is dyadic", name, g.Angle)
				break
			}
		}
	}
}

func TestQFTUsesApproximationCutoff(t *testing.T) {
	c := QFT(29)
	// No controlled phase beyond distance 17: every CNOT's operands are
	// at most 17 apart.
	for _, g := range c.Gates {
		if g.Kind != circuit.KindCNOT {
			continue
		}
		d := g.Qubits[0] - g.Qubits[1]
		if d < 0 {
			d = -d
		}
		if d > QFTApproxDegree {
			t.Fatalf("CNOT distance %d exceeds approximation degree", d)
		}
	}
}
