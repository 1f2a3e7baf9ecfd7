// Package rus models the repeat-until-success (RUS) protocols of the
// continuous-angle architecture: non-deterministic |m_theta> state
// preparation inside an ancilla patch (paper Appendix A.1 / Figure 16),
// the two injection strategies (Table 1), the injection retry chain with
// angle doubling (Equation 1), and the Clifford+T comparison cost model
// (Appendix A.2 / Figure 3).
//
// Preparation model. An ancilla patch of distance d embeds
// m = (d^2-1)/2 disjoint [[4,1,1,2]] subsystem codes, each of which
// attempts to prepare |m_theta> under post-selection. A full attempt is:
// first error-detection round on all subsystems in parallel (2 measurement
// rounds), then — if any subsystem accepted — expansion to the full patch
// plus a second error-detection round (d measurement rounds). Acceptance
// probabilities follow post-selection on zero detected errors:
//
//	q_sub = (1-p)^N1           per-subsystem first-round acceptance
//	P1    = 1-(1-q_sub)^m      at least one subsystem accepts
//	P2    = (1-p)^(beta*d^2)   expansion round acceptance
//
// which yields the paper's Figure 16 shapes: expected preparation *cycles*
// (at d measurement rounds per lattice-surgery cycle) fall as d grows or p
// shrinks, while expected *attempts* rise with d because the second
// detection round post-selects over ~d^2 locations.
package rus

import (
	"math"

	"repro/internal/circuit"
)

// Defaults for the preparation acceptance model.
const (
	// DefaultFaultLocations is the number of fault locations counted in
	// the [[4,1,1,2]] first-round post-selection.
	DefaultFaultLocations = 40
	// DefaultExpansionBeta scales the d^2 fault locations of the
	// expansion (second error-detection) round.
	DefaultExpansionBeta = 2.0
	// FirstRoundMeasurementRounds is the duration of the subsystem
	// error-detection round, in physical measurement rounds.
	FirstRoundMeasurementRounds = 2
	// InjectionSuccessProb is the intrinsic success probability of every
	// |m_theta> injection measurement (paper section 3.2).
	InjectionSuccessProb = 0.5
)

// Params configures the preparation model for one (d, p) point.
type Params struct {
	// Distance is the surface code distance d (odd, >= 3).
	Distance int
	// PhysError is the physical qubit error rate p.
	PhysError float64
	// FaultLocations overrides DefaultFaultLocations when > 0.
	FaultLocations int
	// ExpansionBeta overrides DefaultExpansionBeta when > 0.
	ExpansionBeta float64
}

func (p Params) faultLocations() float64 {
	if p.FaultLocations > 0 {
		return float64(p.FaultLocations)
	}
	return DefaultFaultLocations
}

func (p Params) beta() float64 {
	if p.ExpansionBeta > 0 {
		return p.ExpansionBeta
	}
	return DefaultExpansionBeta
}

// SubsystemCount returns m = (d^2-1)/2, the number of [[4,1,1,2]] codes
// embedded in one ancilla patch.
func (p Params) SubsystemCount() int {
	return (p.Distance*p.Distance - 1) / 2
}

// SubsystemAcceptance returns q_sub, the single-subsystem first-round
// acceptance probability.
func (p Params) SubsystemAcceptance() float64 {
	return math.Pow(1-p.PhysError, p.faultLocations())
}

// FirstRoundSuccess returns P1, the probability that at least one of the
// parallel subsystem preparations accepts.
func (p Params) FirstRoundSuccess() float64 {
	q := p.SubsystemAcceptance()
	return 1 - math.Pow(1-q, float64(p.SubsystemCount()))
}

// ExpansionAcceptance returns P2, the probability that the expansion and
// second error-detection round accept.
func (p Params) ExpansionAcceptance() float64 {
	d := float64(p.Distance)
	return math.Pow(1-p.PhysError, p.beta()*d*d)
}

// ExpectedAttempts returns the expected number of full preparation
// attempts (first round + expansion) until success: 1/(P1*P2).
func (p Params) ExpectedAttempts() float64 {
	return 1 / (p.FirstRoundSuccess() * p.ExpansionAcceptance())
}

// ExpectedPrepRounds returns the expected number of physical measurement
// rounds to prepare |m_theta>: first-round retries cost 2 rounds each and
// every expansion costs d rounds, so E[rounds] = (2/P1 + d) / P2.
func (p Params) ExpectedPrepRounds() float64 {
	p1 := p.FirstRoundSuccess()
	p2 := p.ExpansionAcceptance()
	return (FirstRoundMeasurementRounds/p1 + float64(p.Distance)) / p2
}

// ExpectedPrepCycles returns the expected preparation time in
// lattice-surgery cycles (d measurement rounds per cycle).
func (p Params) ExpectedPrepCycles() float64 {
	return p.ExpectedPrepRounds() / float64(p.Distance)
}

// PrepSuccessPerCycle returns the per-lattice-cycle completion probability
// used by the discrete simulator: a geometric approximation with mean
// ExpectedPrepCycles, clamped into (0, 1).
func (p Params) PrepSuccessPerCycle() float64 {
	pr := 1 / p.ExpectedPrepCycles()
	if pr > 1-1e-9 {
		pr = 1 - 1e-9
	}
	if pr < 1e-9 {
		pr = 1e-9
	}
	return pr
}

// ExpectedInjections returns the expected number of injection steps for an
// Rz(theta) gate under the angle-doubling retry chain (paper Equation 1).
// For non-dyadic angles the chain never terminates early and the
// expectation is exactly 2. For dyadic angles the k-th failure may land in
// the Clifford frame: with n doublings to Clifford the expectation is
// sum_{k=1..n} k/2^k + n/2^n < 2. No program calls it yet: a planned
// full-fidelity reproduction test checks injections per run against it.
func ExpectedInjections(a circuit.Angle) float64 {
	if a.IsClifford() {
		return 0
	}
	n, ok := a.DoublingsToClifford()
	if !ok {
		return 2
	}
	e := 0.0
	for k := 1; k <= n; k++ {
		e += float64(k) / math.Pow(2, float64(k))
	}
	e += float64(n) / math.Pow(2, float64(n))
	return e
}

// InjectionKind selects between the two injection strategies of Table 1.
type InjectionKind uint8

const (
	// InjectZZ measures Z(x)Z through one ancilla adjacent to the data
	// qubit's Z edge: 1 ancilla, 1 lattice-surgery cycle.
	InjectZZ InjectionKind = iota
	// InjectCNOT performs a CNOT-based injection through the data qubit's
	// X edge: 2 ancillas, 2 lattice-surgery cycles.
	InjectCNOT
)

// String names the injection kind.
func (k InjectionKind) String() string {
	if k == InjectZZ {
		return "ZZ"
	}
	return "CNOT"
}

// InjectionSpec captures the per-strategy parameters of Table 1.
type InjectionSpec struct {
	Kind        InjectionKind
	ExposedEdge byte // 'Z' or 'X'
	Ancillas    int  // ancilla tiles required
	Cycles      int  // lattice-surgery cycles per injection
}

// SpecFor returns the Table 1 row for the given injection kind.
func SpecFor(k InjectionKind) InjectionSpec {
	if k == InjectZZ {
		return InjectionSpec{Kind: InjectZZ, ExposedEdge: 'Z', Ancillas: 1, Cycles: 1}
	}
	return InjectionSpec{Kind: InjectCNOT, ExposedEdge: 'X', Ancillas: 2, Cycles: 2}
}
