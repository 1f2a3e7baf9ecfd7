// Package fault is rescqd's deterministic fault-injection framework: named
// failpoints compiled into the daemon's fragile paths (cluster RPCs, WAL
// appends, worker execution) that stay dormant in production and turn into
// injected errors, latency, or both when a fault schedule is activated.
//
// # Failpoints
//
// A failpoint is a named site in the code:
//
//	if err := fault.Check("wal.write"); err != nil {
//	    return err // the injected failure, e.g. "disk full"
//	}
//
// When no schedule is active, Check is one atomic load and returns nil —
// the framework's whole cost on the production hot path. A schedule arms
// some subset of the points with an action (an error to return, a delay to
// sleep) and a trigger (every evaluation, the first N evaluations, or a
// seeded probability per evaluation).
//
// # Schedules
//
// A schedule is a semicolon-separated list of terms, each arming one point:
//
//	wal.write=err(disk full)              always fail with "disk full"
//	wal.write=3*err                       fail the first 3 evaluations
//	cluster.dispatch=err%0.25             fail 25% of evaluations (seeded)
//	cluster.execute=delay(50ms)%0.5       sleep 50ms on half the evaluations
//	cluster.register=2*delay(10ms)        sleep on the first 2 evaluations
//
// Schedules come from the RESCQ_FAILPOINTS environment variable (with
// RESCQ_FAULT_SEED seeding the probabilistic triggers) or from Configure
// in tests. Probabilistic triggers draw from a
// per-point PRNG seeded by (seed, point name), so two runs with the same
// seed and the same evaluation order make identical decisions — the
// foundation of the repo's chaos suite: randomized fault schedules that a
// failing CI run can reproduce from the printed seed.
//
// The package is global (one schedule per process): failpoints are
// process-wide sites, and the chaos tests drive whole in-process clusters
// through one schedule.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected error matches via errors.Is,
// so callers (and tests) can tell an injected failure from an organic one.
var ErrInjected = errors.New("fault: injected")

// Failpoint names: every site compiled into the daemon. Configure refuses
// any other name, so a misspelt schedule fails instead of arming a point
// nothing checks.
const (
	// ClusterDispatch fires on the coordinator side of a batch dispatch,
	// before the POST leaves the process: an injected error is
	// indistinguishable from a transport failure to the dispatch loop.
	ClusterDispatch = "cluster.dispatch"
	// ClusterRegister fires in a worker's registration call (heartbeats
	// and the initial announcement).
	ClusterRegister = "cluster.register"
	// ClusterExecute is checked by the worker's execute handler: a delay
	// stalls the batch like an overloaded worker, an error turns into a
	// 500 the coordinator must survive.
	ClusterExecute = "cluster.execute"
	// WALWrite fires in every WAL record append, and in the store's
	// durability probe, so a probe sees the same simulated disk the
	// appends do. An injected "disk full" is how the chaos suite proves
	// the daemon degrades to lossy serving instead of failing
	// submissions; an injected "short" message also simulates a partial
	// write, so the torn-tail rollback runs end to end.
	WALWrite = "wal.write"
)

// pointNames lists every failpoint name, for parse and its error message.
var pointNames = []string{ClusterDispatch, ClusterRegister, ClusterExecute, WALWrite}

// Error is an injected failure: which point fired and the configured
// message.
type Error struct {
	Point string // failpoint name
	Msg   string // configured message, e.g. "disk full"
}

func (e *Error) Error() string { return fmt.Sprintf("fault %s: %s", e.Point, e.Msg) }

// Is makes every injected error match ErrInjected.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Environment variables read by FromEnv.
const (
	// EnvSpec holds the fault schedule ("" keeps every failpoint dormant).
	EnvSpec = "RESCQ_FAILPOINTS"
	// EnvSeed seeds the probabilistic triggers (decimal int64; default 1).
	EnvSeed = "RESCQ_FAULT_SEED"
)

// kind is what an armed failpoint does when its trigger fires.
type kind int

const (
	kindOff   kind = iota // armed but inert (placeholder in a schedule)
	kindErr               // return an injected error
	kindDelay             // sleep, then continue
)

// point is one armed failpoint.
type point struct {
	mu    sync.Mutex
	name  string
	kind  kind
	msg   string        // kindErr message
	delay time.Duration // kindDelay duration
	prob  float64       // trigger probability; 1 = every evaluation
	count int64         // remaining firings; -1 = unlimited
	rng   *rand.Rand    // per-point, seeded by (seed, name)
	evals int64
	fires int64
}

// PointStats is one failpoint's lifetime evaluation/firing counts.
type PointStats struct {
	Evals int64 `json:"evals"`
	Fires int64 `json:"fires"`
}

var (
	// armed is the fast-path guard: when false (the default), Check is a
	// single atomic load. Go cannot compile the call sites out without
	// build tags, so this is the no-op promise: one predictable load and a
	// branch per failpoint on an unfaulted process.
	armed  atomic.Bool
	mu     sync.Mutex
	points map[string]*point
	specMu sync.Mutex
	spec   string // active schedule, verbatim, for banners and /healthz
)

// Check evaluates the named failpoint. Dormant (the default) or unarmed
// points return nil immediately. An armed error point whose trigger fires
// returns an *Error matching ErrInjected; an armed delay point sleeps for
// its configured duration and returns nil.
func Check(name string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return nil
	}
	return p.eval()
}

func (p *point) eval() error {
	p.mu.Lock()
	p.evals++
	if p.kind == kindOff || p.count == 0 {
		p.mu.Unlock()
		return nil
	}
	if p.prob < 1 && p.rng.Float64() >= p.prob {
		p.mu.Unlock()
		return nil
	}
	if p.count > 0 {
		p.count--
	}
	p.fires++
	kind, msg, delay := p.kind, p.msg, p.delay
	name := p.name
	p.mu.Unlock()

	switch kind {
	case kindDelay:
		time.Sleep(delay)
		return nil
	default:
		return &Error{Point: name, Msg: msg}
	}
}

// Configure arms the given schedule, replacing any active one. An empty
// spec disarms everything (like Disable). The seed drives every
// probabilistic trigger; each point derives an independent stream from
// (seed, name) so arming an extra point does not perturb the others.
func Configure(schedule string, seed int64) error {
	parsed, err := parse(schedule, seed)
	if err != nil {
		return err
	}
	mu.Lock()
	points = parsed
	mu.Unlock()
	specMu.Lock()
	spec = schedule
	specMu.Unlock()
	armed.Store(len(parsed) > 0)
	return nil
}

// Disable disarms every failpoint; Check returns to its one-load fast path.
// Only tests call it: the store and service suites disarm between cases.
func Disable() {
	armed.Store(false)
	mu.Lock()
	points = nil
	mu.Unlock()
	specMu.Lock()
	spec = ""
	specMu.Unlock()
}

// FromEnv arms the schedule in RESCQ_FAILPOINTS (seeded by
// RESCQ_FAULT_SEED, default 1). With the variable unset or empty it leaves
// every failpoint dormant. Returns the active schedule ("" when dormant).
func FromEnv() (string, error) {
	schedule := os.Getenv(EnvSpec)
	if schedule == "" {
		return "", nil
	}
	seed := int64(1)
	if raw := os.Getenv(EnvSeed); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return "", fmt.Errorf("fault: bad %s %q: %w", EnvSeed, raw, err)
		}
		seed = n
	}
	if err := Configure(schedule, seed); err != nil {
		return "", err
	}
	return schedule, nil
}

// Active returns the armed schedule verbatim ("" when dormant).
func Active() string {
	specMu.Lock()
	defer specMu.Unlock()
	if !armed.Load() {
		return ""
	}
	return spec
}

// Stats returns every armed point's evaluation/firing counts. Only tests
// call it: the chaos suite asserts which faults fired.
func Stats() map[string]PointStats {
	out := make(map[string]PointStats)
	mu.Lock()
	defer mu.Unlock()
	for name, p := range points {
		p.mu.Lock()
		out[name] = PointStats{Evals: p.evals, Fires: p.fires}
		p.mu.Unlock()
	}
	return out
}

// Fires returns one point's firing count (0 when unarmed). Only tests call
// it: the store suite counts a burst's injected failures.
func Fires(name string) int64 {
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fires
}

// parse builds the point set for a schedule. Grammar, per semicolon-
// separated term:
//
//	term    = name "=" action
//	name    = one of pointNames
//	action  = [count "*"] kind ["(" arg ")"] ["%" prob]
//	kind    = "err" | "delay" | "off"
//
// err's arg is the error message (default "injected"); delay's arg is a
// Go duration and is required; off takes no arg. count caps the firings;
// prob in (0, 1] gates each evaluation on a seeded coin flip.
func parse(schedule string, seed int64) (map[string]*point, error) {
	parsed := make(map[string]*point)
	for _, term := range strings.Split(schedule, ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		name, action, ok := strings.Cut(term, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || strings.TrimSpace(action) == "" {
			return nil, fmt.Errorf("fault: bad term %q (want name=action)", term)
		}
		if !slices.Contains(pointNames, name) {
			return nil, fmt.Errorf("fault: unknown failpoint %q (want one of %s)", name, strings.Join(pointNames, ", "))
		}
		if _, dup := parsed[name]; dup {
			return nil, fmt.Errorf("fault: point %q armed twice", name)
		}
		p, err := parseAction(name, strings.TrimSpace(action))
		if err != nil {
			return nil, err
		}
		p.rng = rand.New(rand.NewSource(pointSeed(seed, name)))
		parsed[name] = p
	}
	return parsed, nil
}

func parseAction(name, action string) (*point, error) {
	p := &point{name: name, prob: 1, count: -1}

	// Trailing "%prob".
	if i := strings.LastIndex(action, "%"); i >= 0 {
		probStr := strings.TrimSpace(action[i+1:])
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil || prob <= 0 || prob > 1 {
			return nil, fmt.Errorf("fault: %s: bad probability %q (want a float in (0, 1])", name, probStr)
		}
		p.prob = prob
		action = strings.TrimSpace(action[:i])
	}

	// Leading "count*".
	if i := strings.Index(action, "*"); i >= 0 {
		countStr := strings.TrimSpace(action[:i])
		n, err := strconv.ParseInt(countStr, 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("fault: %s: bad count %q (want a positive integer)", name, countStr)
		}
		p.count = n
		action = strings.TrimSpace(action[i+1:])
	}

	// "kind" or "kind(arg)".
	arg := ""
	if i := strings.Index(action, "("); i >= 0 {
		if !strings.HasSuffix(action, ")") {
			return nil, fmt.Errorf("fault: %s: unclosed argument in %q", name, action)
		}
		arg = action[i+1 : len(action)-1]
		action = action[:i]
	}
	switch action {
	case "err":
		p.kind = kindErr
		p.msg = arg
		if p.msg == "" {
			p.msg = "injected"
		}
	case "delay":
		p.kind = kindDelay
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("fault: %s: delay needs a positive duration argument, got %q", name, arg)
		}
		p.delay = d
	case "off":
		p.kind = kindOff
		if arg != "" {
			return nil, fmt.Errorf("fault: %s: off takes no argument", name)
		}
	default:
		return nil, fmt.Errorf("fault: %s: unknown kind %q (want err, delay or off)", name, action)
	}
	return p, nil
}

// pointSeed derives a per-point seed from the schedule seed and the point
// name, so each point's probabilistic stream is independent of which other
// points are armed and of cross-point evaluation interleaving.
func pointSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Names returns the armed point names, sorted. Only tests call it: the
// chaos suite walks every armed point.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
