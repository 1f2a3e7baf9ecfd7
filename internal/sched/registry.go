package sched

// registry.go is the open scheduler registry: named constructors the rest
// of the system (rescq.Options, the experiment drivers, the sweep daemon)
// resolves by name, so new policies plug in without touching any call
// site. This package registers the two static baselines ("greedy",
// "autobraid"); internal/core registers the paper's realtime scheduler
// ("rescq") from its own init, keeping the dependency arrow pointing from
// policy packages into this registry and never back.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Params carries the structured knobs a scheduler constructor may consume.
// Constructors ignore the fields they have no use for (the static
// baselines take none), which is what lets one sweep grid drive
// heterogeneous policies.
type Params struct {
	// K is the MST recomputation period in cycles for RESCQ-style
	// realtime schedulers (<= 0 means the policy default).
	K int
	// TauMST is the modeled MST computation latency in cycles (0 means
	// the policy default).
	TauMST int
}

// Constructor builds a fresh scheduler instance from params. Instances
// carry per-run state, so every seeded run constructs its own.
type Constructor func(p Params) (sim.Scheduler, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Constructor{}
)

// Register adds a scheduler constructor under the given name. It panics on
// an empty name, a nil constructor, or a duplicate registration — all
// programmer errors at package-init time.
func Register(name string, c Constructor) {
	if name == "" {
		panic("sched: Register with empty scheduler name")
	}
	if c == nil {
		panic(fmt.Sprintf("sched: Register(%q) with nil constructor", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sched: scheduler %q registered twice", name))
	}
	registry[name] = c
}

// Known reports whether name is a registered scheduler.
func Known(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered scheduler names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New constructs a fresh instance of the named scheduler. Unknown names
// fail with an error enumerating the registered schedulers.
func New(name string, p Params) (sim.Scheduler, error) {
	regMu.RLock()
	c, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return c(p)
}

func init() {
	Register("greedy", func(Params) (sim.Scheduler, error) { return NewGreedy(), nil })
	Register("autobraid", func(Params) (sim.Scheduler, error) { return NewAutoBraid(), nil })
}
