package sched

// registry.go is the scheduler catalog: the names the rest of the system
// (rescq.Options, the experiment drivers, the sweep daemon) resolves, and
// the one constructor switch behind them. The set is closed — the paper
// evaluates exactly these three policies — so it is a compile-time table,
// and every binary that can name a scheduler can also build it.

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// Params carries the structured knobs a scheduler constructor may consume.
// Only "rescq" reads them; the static baselines take none, which is what
// lets one sweep grid drive heterogeneous policies.
type Params struct {
	// K is the MST recomputation period in cycles for RESCQ-style
	// realtime schedulers (<= 0 means the policy default).
	K int
	// TauMST is the modeled MST computation latency in cycles (0 means
	// the policy default).
	TauMST int
}

// names lists the schedulers New builds, sorted.
var names = []string{"autobraid", "greedy", "rescq"}

// Known reports whether name is a known scheduler.
func Known(name string) bool { return slices.Contains(names, name) }

// Names returns the scheduler names, sorted.
func Names() []string { return slices.Clone(names) }

// New returns an instance of the named scheduler for one run. Instances
// carry per-run state, so every seeded run takes its own; they are pooled,
// so New hands out one that an engine released at the end of an earlier
// run (see sim.Scheduler's Release) when there is one, and its Init
// resets it.
// Unknown names fail with an error enumerating the known schedulers.
func New(name string, p Params) (sim.Scheduler, error) {
	switch name {
	case "autobraid":
		return NewAutoBraid(), nil
	case "greedy":
		return NewGreedy(), nil
	case "rescq":
		return core.New(core.Config{K: p.K, TauMST: p.TauMST}), nil
	}
	return nil, fmt.Errorf("sched: unknown scheduler %q (registered: %s)",
		name, strings.Join(names, ", "))
}
