// Package sim is the cycle-accurate lattice-surgery simulator. It advances
// time in integer lattice-surgery cycles, tracks tile and qubit occupancy,
// resolves the stochastic outcomes of RUS state preparation and injection
// with a seeded RNG, and collects the statistics the paper's evaluation
// reports (total cycles, per-gate latency distributions, data-qubit idle
// fractions, ancilla activity).
//
// Schedulers drive the engine through the State API: they start operations
// (CNOT, edge rotation, Hadamard, |m_theta> preparation, injection) on free
// tiles and receive completion callbacks. The engine validates every
// operation's geometry (path contiguity, correct Z/X edge adjacency, tile
// freedom), so a scheduler that violates lattice-surgery rules fails fast.
package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/lattice"
	"repro/internal/rus"
)

// OpKind classifies an in-flight lattice operation.
type OpKind uint8

const (
	// OpCNOT is a two-cycle lattice-surgery CNOT along an ancilla path.
	OpCNOT OpKind = iota
	// OpEdgeRotation is a three-cycle boundary rotation exposing the
	// opposite edge type of a data qubit.
	OpEdgeRotation
	// OpHadamard is a three-cycle patch-deformation Hadamard.
	OpHadamard
	// OpPrep is a repeat-until-success |m_theta> preparation on one
	// ancilla tile; its duration is stochastic.
	OpPrep
	// OpInjection consumes a prepared |m_theta> and injects it into a
	// data qubit; it succeeds with probability 1/2.
	OpInjection

	numOpKinds = iota
)

var opKindNames = [...]string{
	OpCNOT:         "cnot",
	OpEdgeRotation: "edge-rotation",
	OpHadamard:     "hadamard",
	OpPrep:         "prep",
	OpInjection:    "injection",
}

// String names the op kind.
func (k OpKind) String() string { return opKindNames[k] }

// Fixed lattice-surgery cycle costs (paper sections 3.1, 3.2 and Table 1).
const (
	CNOTCycles         = 2
	EdgeRotationCycles = 3
	HadamardCycles     = 3
)

// Op is an in-flight operation. Ops are created by the State.Start*
// methods and owned by the engine; schedulers may read them but must not
// mutate them.
//
// Lifetime: the engine recycles ops. An op stays valid while it holds a
// tile or qubit and until the end of the cycle in which it leaves the
// engine (finishes, or is consumed, discarded or cancelled), so a
// completion callback may read it. From the next cycle on the same *Op may
// describe a different operation. Schedulers must not retain an *Op across
// cycles; they look live ops up through State.TileOp and State.QubitOp.
type Op struct {
	ID   int
	Kind OpKind
	// Node is the DAG node this op works toward, or -1 (edge rotations
	// requested for routing are attributed to their CNOT's node; helper
	// ops may use -1).
	Node int
	// Qubits lists the data qubits reserved by the op.
	Qubits []int
	// Tiles lists the ancilla tiles reserved by the op. For OpInjection
	// the first tile is the prepared-state tile.
	Tiles []lattice.Coord
	// Angle is the rotation being prepared/injected (prep & injection).
	Angle circuit.Angle
	// InjKind selects ZZ vs CNOT injection (injection only).
	InjKind rus.InjectionKind

	start     int // first active cycle
	remaining int // fixed-duration ops; unused for OpPrep
	prepared  bool
	consumed  bool // prepared state claimed by an injection
	done      bool

	// Inline backing for the common reservation sizes, so starting an op
	// allocates nothing beyond the Op itself: Qubits holds at most two
	// entries, and Tiles only exceeds four for long CNOT paths (which then
	// spill to the heap).
	qubitsBuf [2]int
	tilesBuf  [4]lattice.Coord
}

// StartCycle returns the first cycle in which the op was active.
func (o *Op) StartCycle() int { return o.start }

// Prepared reports whether a prep op has finished and holds a usable
// |m_theta> state awaiting injection or discard.
func (o *Op) Prepared() bool { return o.prepared && !o.consumed && !o.done }

// ExpectedRemaining estimates the op's remaining duration in cycles. For
// fixed-duration ops it is exact; for preparations it is the geometric
// mean-time-to-success (memoryless, so independent of elapsed time);
// prepared-but-unconsumed states report zero.
func (o *Op) ExpectedRemaining(prepExpected float64) float64 {
	switch {
	case o.done:
		return 0
	case o.Kind == OpPrep:
		if o.prepared {
			return 0
		}
		return prepExpected
	default:
		return float64(o.remaining)
	}
}

func (o *Op) String() string {
	return fmt.Sprintf("op%d(%s node=%d qubits=%v tiles=%v)", o.ID, o.Kind, o.Node, o.Qubits, o.Tiles)
}
