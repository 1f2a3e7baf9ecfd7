package circuit

import (
	"errors"
	"fmt"
)

// Circuit is an ordered list of gates over NumQubits logical qubits. Gate
// IDs always equal the gate's index in Gates. The order is a valid
// topological order of the dependency DAG by construction (gates are
// appended in program order).
type Circuit struct {
	Name      string
	NumQubits int
	Gates     []Gate
}

// New returns an empty circuit over n qubits.
func New(name string, n int) *Circuit {
	if n < 1 {
		panic("circuit: non-positive qubit count")
	}
	return &Circuit{Name: name, NumQubits: n}
}

// append adds a gate after validating operands, canonicalizing T/Tdg into
// Rz rotations so downstream code sees a uniform Clifford+Rz basis.
func (c *Circuit) append(k Kind, q0, q1 int, a Angle) {
	switch k {
	case KindT:
		k, a = KindRz, NewAngle(1, 4)
	case KindTdg:
		k, a = KindRz, NewAngle(-1, 4)
	case KindS:
		k, a = KindRz, NewAngle(1, 2)
	case KindSdg:
		k, a = KindRz, NewAngle(-1, 2)
	}
	if k != KindRz {
		a = Zero // canonical zero angle for non-rotation gates
	}
	g := Gate{ID: len(c.Gates), Kind: k, Qubits: [2]int{q0, q1}, Angle: a}
	c.mustValidOperand(q0)
	if k == KindCNOT {
		c.mustValidOperand(q1)
		if q0 == q1 {
			panic(fmt.Sprintf("circuit: CNOT with equal control and target %d", q0))
		}
	}
	c.Gates = append(c.Gates, g)
}

func (c *Circuit) mustValidOperand(q int) {
	if q < 0 || q >= c.NumQubits {
		panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits))
	}
}

// Rz appends an Rz(theta) rotation on qubit q.
func (c *Circuit) Rz(q int, theta Angle) { c.append(KindRz, q, 0, theta) }

// CNOT appends a CNOT with the given control and target.
func (c *Circuit) CNOT(control, target int) { c.append(KindCNOT, control, target, Zero) }

// H appends a Hadamard on qubit q.
func (c *Circuit) H(q int) { c.append(KindH, q, 0, Zero) }

// X appends a Pauli X on qubit q.
func (c *Circuit) X(q int) { c.append(KindX, q, 0, Zero) }

// T appends a T gate (canonicalized to Rz(pi/4)).
func (c *Circuit) T(q int) { c.append(KindT, q, 0, Zero) }

// Tdg appends an inverse T gate (canonicalized to Rz(-pi/4)).
func (c *Circuit) Tdg(q int) { c.append(KindTdg, q, 0, Zero) }

// Stats summarizes a circuit the way the paper's Table 3 does.
type Stats struct {
	NumQubits int
	Total     int // total gate count
	Rz        int // non-Clifford Rz rotations (the resource-consuming ones)
	RzTotal   int // all Rz gates, including Clifford ones (rz(pi/2) etc.);
	// this is the count reported in the paper's Table 3, whose circuits
	// were compiled by Qiskit and therefore write S gates as rz(pi/2)
	CNOT      int
	H         int
	FrameOnly int // gates absorbed into the Pauli/Clifford frame
	Depth     int // logical depth over scheduled (non-frame) gates
}

// Stats computes the per-kind gate counts and logical depth.
func (c *Circuit) Stats() Stats {
	s := Stats{NumQubits: c.NumQubits, Total: len(c.Gates)}
	depth := make([]int, c.NumQubits)
	for _, g := range c.Gates {
		if g.Kind == KindRz {
			s.RzTotal++
		}
		if g.IsFrameOnly() {
			s.FrameOnly++
			continue
		}
		switch g.Kind {
		case KindRz:
			s.Rz++
		case KindCNOT:
			s.CNOT++
		case KindH:
			s.H++
		}
		if g.Kind == KindCNOT {
			d := max(depth[g.Qubits[0]], depth[g.Qubits[1]]) + 1
			depth[g.Qubits[0]], depth[g.Qubits[1]] = d, d
		} else {
			depth[g.Qubits[0]]++
		}
	}
	for _, d := range depth {
		s.Depth = max(s.Depth, d)
	}
	return s
}

// Validate checks structural invariants: IDs match indices, operands are in
// range, and CNOTs act on distinct qubits. Circuits built through the
// builder methods always validate; only tests call it, to check the
// benchmark generators and fuzzed parser inputs.
func (c *Circuit) Validate() error {
	if c.NumQubits < 1 {
		return errors.New("circuit: non-positive qubit count")
	}
	for i, g := range c.Gates {
		if g.ID != i {
			return fmt.Errorf("circuit: gate %d has ID %d", i, g.ID)
		}
		for j := 0; j < g.Kind.NumQubits(); j++ {
			if q := g.Qubits[j]; q < 0 || q >= c.NumQubits {
				return fmt.Errorf("circuit: gate %d operand %d out of range", i, q)
			}
		}
		if g.Kind == KindCNOT && g.Qubits[0] == g.Qubits[1] {
			return fmt.Errorf("circuit: gate %d is a CNOT with equal operands", i)
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
