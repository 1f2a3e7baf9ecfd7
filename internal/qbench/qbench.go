// Package qbench generates the benchmark circuits of the paper's Table 3 in
// the Clifford+Rz basis. The originals are QASMBench (medium/large) and
// SupermarQ circuits compiled by Qiskit into {rz, h, x, cx}; since those
// files are external data, this package synthesizes the same circuit
// families from their mathematical definitions, matched to the paper's
// qubit counts and — for every family except multiplier, where the match is
// within a few percent — the exact Rz and CNOT counts of Table 3.
//
// Structural fidelity is what the schedulers observe and is preserved:
// ising and the SupermarQ Hamiltonian-simulation circuits are wide and
// parallel, qft and wstate are chains of long sequential dependencies, dnn
// has the suite's highest Rz:CNOT ratio (~6), QAOAFermionicSwap is
// CNOT-dominated (ratio ~0.4), and the multiplier is a dense Toffoli
// network. Note that Table 3's Rz column counts every rz emitted by the
// compiler, including Clifford rotations such as rz(pi/2): those are
// likewise emitted here and likewise free at runtime (Pauli/Clifford
// frame), exactly as in the artifact.
package qbench

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/circuit"
)

// Spec describes one Table 3 benchmark.
type Spec struct {
	// Name is the canonical benchmark name, e.g. "ising_n34".
	Name string
	// Suite is "large", "medium" or "supermarq" (Table 3 grouping).
	Suite string
	// Qubits is the paper's qubit count.
	Qubits int
	// PaperRz and PaperCNOT are the gate counts reported in Table 3.
	PaperRz, PaperCNOT int
	// Build generates the circuit.
	Build func() *circuit.Circuit
}

// Circuit builds the benchmark circuit.
func (s Spec) Circuit() *circuit.Circuit { return s.Build() }

// All returns every Table 3 benchmark in the paper's order.
func All() []Spec { return append([]Spec(nil), registry...) }

// Names returns all benchmark names in Table 3 order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// ByName looks up one benchmark.
func ByName(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// DAG returns the named benchmark's dependency DAG, built on first use.
// Circuit and DAG are deterministic in the name and the engine only reads
// them, so every simulation in the process shares one copy.
func DAG(name string) (*circuit.DAG, bool) {
	dag, ok := dags[name]
	if !ok {
		return nil, false
	}
	return dag(), true
}

var dags = func() map[string]func() *circuit.DAG {
	m := make(map[string]func() *circuit.DAG, len(registry))
	for _, s := range registry {
		m[s.Name] = sync.OnceValue(func() *circuit.DAG { return circuit.NewDAG(s.Circuit()) })
	}
	return m
}()

// Representative returns the three benchmarks the paper's sensitivity
// studies single out (section 5.2): dnn_n16 (highest Rz density), gcm_n13
// (~2 Rz per CNOT) and qft_n160 (balanced, and the most qubits among the
// representative set).
func Representative() []string {
	return []string{"dnn_n16", "gcm_n13", "qft_n160"}
}

// SmallSet returns a subset of benchmarks with modest qubit counts, used by
// quick regression tests and the quickstart example.
func SmallSet() []string {
	var names []string
	for _, s := range registry {
		if s.Qubits <= 30 {
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	return names
}

var registry = []Spec{
	{"ising_n34", "large", 34, 83, 66, func() *circuit.Circuit { return Ising(34) }},
	{"ising_n42", "large", 42, 103, 82, func() *circuit.Circuit { return Ising(42) }},
	{"ising_n66", "large", 66, 163, 130, func() *circuit.Circuit { return Ising(66) }},
	{"ising_n98", "large", 98, 243, 194, func() *circuit.Circuit { return Ising(98) }},
	{"ising_n420", "large", 420, 1048, 838, func() *circuit.Circuit { return Ising(420) }},
	{"multiplier_n45", "large", 45, 2237, 2286, func() *circuit.Circuit { return Multiplier(45) }},
	{"multiplier_n75", "large", 75, 6384, 6510, func() *circuit.Circuit { return Multiplier(75) }},
	{"qft_n29", "large", 29, 708, 680, func() *circuit.Circuit { return QFT(29) }},
	{"qft_n63", "large", 63, 1898, 1836, func() *circuit.Circuit { return QFT(63) }},
	{"qft_n160", "large", 160, 5293, 5134, func() *circuit.Circuit { return QFT(160) }},
	{"qugan_n39", "large", 39, 411, 296, func() *circuit.Circuit { return QuGAN(39) }},
	{"qugan_n71", "large", 71, 763, 552, func() *circuit.Circuit { return QuGAN(71) }},
	{"qugan_n111", "large", 111, 1203, 872, func() *circuit.Circuit { return QuGAN(111) }},
	{"gcm_n13", "medium", 13, 1528, 762, func() *circuit.Circuit { return GCM(13) }},
	{"dnn_n16", "medium", 16, 2432, 384, func() *circuit.Circuit { return DNN(16) }},
	{"qft_n18", "medium", 18, 323, 306, func() *circuit.Circuit { return QFT(18) }},
	{"wstate_n27", "medium", 27, 156, 52, func() *circuit.Circuit { return WState(27) }},
	{"hamsim_n25", "supermarq", 25, 49, 48, func() *circuit.Circuit { return HamiltonianSimulation(25) }},
	{"hamsim_n50", "supermarq", 50, 99, 98, func() *circuit.Circuit { return HamiltonianSimulation(50) }},
	{"hamsim_n75", "supermarq", 75, 149, 148, func() *circuit.Circuit { return HamiltonianSimulation(75) }},
	{"qaoafswap_n15", "supermarq", 15, 120, 315, func() *circuit.Circuit { return QAOAFermionicSwap(15) }},
	{"qaoa_n15", "supermarq", 15, 120, 210, func() *circuit.Circuit { return QAOAVanilla(15) }},
	{"vqe_n13", "supermarq", 13, 78, 12, func() *circuit.Circuit { return VQE(13) }},
}

// angleGen deterministically produces non-Clifford, non-dyadic rotation
// angles (denominator keeps an odd factor, so the RUS doubling chain never
// terminates early — the generic continuous-rotation case). Each benchmark
// uses its own sequence so circuits are reproducible.
type angleGen struct{ k int64 }

func (a *angleGen) next() circuit.Angle {
	for {
		a.k++
		num := 2*a.k + 1 // odd
		if num%3 == 0 {
			continue // keep gcd(num, 96) free of the factor 3
		}
		return circuit.NewAngle(num, 96)
	}
}

// mustMatch panics if a generator's circuit disagrees with the requested
// qubit count — a guard for the registry entries.
func mustMatch(c *circuit.Circuit, qubits int) *circuit.Circuit {
	if c.NumQubits != qubits {
		panic(fmt.Sprintf("qbench: %s has %d qubits, want %d", c.Name, c.NumQubits, qubits))
	}
	return c
}
