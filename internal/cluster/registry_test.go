package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock gives the registry a deterministic, manually advanced clock.
// It carries its own lock so a test can advance time while a dispatcher
// goroutine is blocked inside the registry.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }
func testRegistry(c *fakeClock) *Registry {
	r := NewRegistry()
	r.now = c.now
	return r
}

func mustAcquire(t *testing.T, r *Registry) Lease {
	t.Helper()
	l, err := r.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	return l
}

// TestAcquireLeastLoadedTieBreaking pins the dispatch policy: lowest
// in-flight count wins, ties break on the lexicographically smallest
// worker id, so dispatch order is deterministic.
func TestAcquireLeastLoadedTieBreaking(t *testing.T) {
	r := testRegistry(newFakeClock())
	r.Upsert(RegisterRequest{ID: "w-b", URL: "http://b", Capacity: 2})
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 2})
	r.Upsert(RegisterRequest{ID: "w-c", URL: "http://c", Capacity: 2})

	// All idle: ties on inflight=0 resolve to the smallest id, then the
	// next smallest, round-robin-by-load.
	want := []string{"w-a", "w-b", "w-c", "w-a", "w-b", "w-c"}
	var leases []Lease
	for i, w := range want {
		l := mustAcquire(t, r)
		if l.ID != w {
			t.Fatalf("acquire %d: got %s, want %s", i, l.ID, w)
		}
		leases = append(leases, l)
	}

	// Releasing only w-b makes it strictly least-loaded.
	leases[1].Release()
	if l := mustAcquire(t, r); l.ID != "w-b" {
		t.Fatalf("after release: got %s, want w-b", l.ID)
	}
}

// TestAcquireRespectsCapacity: a saturated registry blocks Acquire until a
// slot frees, and the per-worker in-flight cap is never exceeded.
func TestAcquireRespectsCapacity(t *testing.T) {
	r := testRegistry(newFakeClock())
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 1})
	l1 := mustAcquire(t, r)

	got := make(chan Lease)
	go func() {
		l, err := r.Acquire(context.Background())
		if err != nil {
			t.Error("blocked Acquire:", err)
		}
		got <- l
	}()
	select {
	case <-got:
		t.Fatal("Acquire returned with the only worker saturated")
	case <-time.After(20 * time.Millisecond):
	}
	l1.Release()
	select {
	case l := <-got:
		if l.ID != "w-a" {
			t.Fatalf("unblocked lease on %s, want w-a", l.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire did not unblock on Release")
	}
}

// TestAcquireNoWorkers: an empty registry fails fast with ErrNoWorkers
// (the caller falls back to local execution) rather than blocking.
func TestAcquireNoWorkers(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	if _, err := r.Acquire(context.Background()); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Acquire on empty registry: %v, want ErrNoWorkers", err)
	}
	// And after the last worker expires mid-wait, a blocked Acquire
	// resolves to ErrNoWorkers instead of waiting forever.
	r.Upsert(RegisterRequest{ID: "w-a", Capacity: 1})
	l := mustAcquire(t, r)
	done := make(chan error, 1)
	go func() {
		_, err := r.Acquire(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = l
	clock.advance(2 * time.Second)
	r.ExpireDead(time.Second)
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("blocked Acquire after removal: %v, want ErrNoWorkers", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire did not observe the registry emptying")
	}
}

// TestAcquireContextCancel: cancelling ctx unblocks a saturated wait.
func TestAcquireContextCancel(t *testing.T) {
	r := testRegistry(newFakeClock())
	r.Upsert(RegisterRequest{ID: "w-a", Capacity: 1})
	mustAcquire(t, r)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.Acquire(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Acquire: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire did not observe cancellation")
	}
}

// TestExpireDead: workers outliving the liveness window are removed, their
// gone channel closes, and a fresh heartbeat re-admits them.
func TestExpireDead(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	r.Upsert(RegisterRequest{ID: "w-a", Capacity: 1})
	r.Upsert(RegisterRequest{ID: "w-b", Capacity: 1})
	lease := mustAcquire(t, r) // w-a

	clock.advance(2 * time.Second)
	r.Upsert(RegisterRequest{ID: "w-b", Capacity: 1}) // heartbeat
	expired := r.ExpireDead(time.Second)
	if len(expired) != 1 || expired[0] != "w-a" {
		t.Fatalf("expired = %v, want [w-a]", expired)
	}
	select {
	case <-lease.Gone:
	default:
		t.Fatal("expired worker's gone channel not closed")
	}
	lease.Release() // slot died with the worker; must not panic or underflow
	if n := r.Len(); n != 1 {
		t.Fatalf("registry has %d workers after expiry, want 1", n)
	}
	if st := r.Upsert(RegisterRequest{ID: "w-a", Capacity: 1}); !st.IsNew {
		t.Fatal("re-registered expired worker should be new again")
	}
}

// TestStaleLeaseReleaseIgnoresNewIncarnation: a lease acquired on an
// expired worker incarnation must not decrement the in-flight count of a
// re-registered incarnation with the same id — that would let dispatchers
// overrun the fresh worker's capacity.
func TestStaleLeaseReleaseIgnoresNewIncarnation(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	r.Upsert(RegisterRequest{ID: "w-a", Capacity: 1})
	stale := mustAcquire(t, r)
	clock.advance(2 * time.Second)
	r.ExpireDead(time.Second) // heartbeats stopped mid-batch

	// The worker comes back (heartbeat after restart) and its only slot is
	// acquired by a new dispatcher.
	r.Upsert(RegisterRequest{ID: "w-a", Capacity: 1})
	fresh := mustAcquire(t, r)

	// The old batch finally errors out and releases its stale lease; the
	// fresh incarnation must still be saturated.
	stale.Release()
	if snap := r.Snapshot(); snap[0].Inflight != 1 {
		t.Fatalf("stale release drained the new incarnation: inflight = %d, want 1", snap[0].Inflight)
	}
	fresh.Release()
	if snap := r.Snapshot(); snap[0].Inflight != 0 {
		t.Fatalf("matching release did not free the slot: inflight = %d", snap[0].Inflight)
	}
}

// TestBreakerOpensAndRecovers walks one worker through the full breaker
// lifecycle: consecutive failures open it (dispatch falls back to the
// local pool instead of blocking), the cooldown makes it half-open with
// exactly one probe slot, a failed probe re-opens it, and a successful
// probe closes it with the failure count reset.
func TestBreakerOpensAndRecovers(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 2})

	// Three consecutive failures; only the third reports the transition.
	for i := 0; i < 3; i++ {
		l := mustAcquire(t, r)
		opened := l.ReportFailure()
		l.Release()
		if want := i == 2; opened != want {
			t.Fatalf("failure %d: opened = %v, want %v", i, opened, want)
		}
	}
	if st := r.Snapshot()[0].Breaker; st != "open" {
		t.Fatalf("breaker after threshold = %q, want open", st)
	}
	// With the only worker's breaker open, Acquire must fall through to
	// ErrNoWorkers (local execution), not block: time heals breakers, and
	// no broadcast is coming.
	if _, err := r.Acquire(context.Background()); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Acquire with breaker open: %v, want ErrNoWorkers", err)
	}

	// After the cooldown the worker is half-open: one probe, no more.
	clock.advance(5 * time.Second)
	if st := r.Snapshot()[0].Breaker; st != "half-open" {
		t.Fatalf("breaker after cooldown = %q, want half-open", st)
	}
	probe := mustAcquire(t, r)
	if _, ok := r.TryAcquire(""); ok {
		t.Fatal("second lease granted while the half-open probe is outstanding")
	}
	// A failed probe re-opens the breaker; that is not a fresh transition.
	if probe.ReportFailure() {
		t.Fatal("failed probe reported a fresh breaker-open transition")
	}
	probe.Release()
	if _, err := r.Acquire(context.Background()); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Acquire after failed probe: %v, want ErrNoWorkers", err)
	}

	// Next cooldown: a successful probe closes the breaker for good.
	clock.advance(5 * time.Second)
	probe = mustAcquire(t, r)
	probe.ReportSuccess()
	probe.Release()
	snap := r.Snapshot()[0]
	if snap.Breaker != "closed" || snap.Failures != 0 {
		t.Fatalf("after successful probe: breaker=%q failures=%d, want closed/0", snap.Breaker, snap.Failures)
	}
	// Normal dispatch resumes at full capacity.
	mustAcquire(t, r)
	mustAcquire(t, r)
}

// TestBreakerOpenUnblocksWaiters: a dispatcher blocked on the cond var
// behind a saturated worker must fall through to ErrNoWorkers the moment
// that worker's breaker opens — not sleep out the cooldown on a wait that
// no broadcast will resolve.
func TestBreakerOpenUnblocksWaiters(t *testing.T) {
	r := testRegistry(newFakeClock())
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 1})
	// breakerFailures-1 failures leave the breaker one short of opening.
	for i := 0; i < breakerFailures-1; i++ {
		l := mustAcquire(t, r)
		l.ReportFailure()
		l.Release()
	}
	l := mustAcquire(t, r)

	done := make(chan error, 1)
	go func() {
		_, err := r.Acquire(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the dispatcher park on the cond var

	if !l.ReportFailure() {
		t.Fatal("threshold failure did not open the breaker")
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("blocked Acquire after breaker opened: %v, want ErrNoWorkers", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dispatcher stayed blocked after the last worker's breaker opened")
	}
}

// TestExpireDeadWhileAcquireBlocked: liveness expiry fires while a
// dispatcher is blocked on the cond var. The dispatcher must not
// deadlock: it falls through to a surviving worker when one frees a
// slot, and to ErrNoWorkers (the local pool) when the last worker
// expires mid-wait.
func TestExpireDeadWhileAcquireBlocked(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 1})
	r.Upsert(RegisterRequest{ID: "w-b", URL: "http://b", Capacity: 1})
	mustAcquire(t, r)       // saturate w-a
	lb := mustAcquire(t, r) // saturate w-b

	got := make(chan Lease, 1)
	fail := make(chan error, 1)
	go func() {
		l, err := r.Acquire(context.Background())
		if err != nil {
			fail <- err
			return
		}
		got <- l
	}()
	time.Sleep(10 * time.Millisecond) // park it on the cond var

	// w-a misses its liveness window while w-b keeps heartbeating.
	clock.advance(2 * time.Second)
	r.Upsert(RegisterRequest{ID: "w-b", URL: "http://b", Capacity: 1})
	if expired := r.ExpireDead(time.Second); len(expired) != 1 || expired[0] != "w-a" {
		t.Fatalf("expired = %v, want [w-a]", expired)
	}

	// The waiter rides out the expiry and lands on the survivor as soon
	// as its slot frees.
	lb.Release()
	var survivor Lease
	select {
	case survivor = <-got:
		if survivor.ID != "w-b" {
			t.Fatalf("dispatcher landed on %s, want survivor w-b", survivor.ID)
		}
	case err := <-fail:
		t.Fatalf("dispatcher errored across expiry: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("dispatcher deadlocked across a mid-wait expiry")
	}

	// Same setup, but this time the *last* worker expires mid-wait: the
	// dispatcher must resolve to ErrNoWorkers for the local-pool fallback.
	go func() {
		_, err := r.Acquire(context.Background())
		fail <- err
	}()
	time.Sleep(10 * time.Millisecond)
	clock.advance(2 * time.Second)
	if expired := r.ExpireDead(time.Second); len(expired) != 1 || expired[0] != "w-b" {
		t.Fatalf("expired = %v, want [w-b]", expired)
	}
	select {
	case err := <-fail:
		if !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("blocked Acquire after last expiry: %v, want ErrNoWorkers", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dispatcher deadlocked after the last worker expired mid-wait")
	}
	_ = survivor
}

// TestTryAcquireExcludesAndNeverBlocks pins the hedge-dispatch contract:
// TryAcquire skips the excluded straggler, picks any other free worker,
// and reports failure immediately instead of waiting.
func TestTryAcquireExcludesAndNeverBlocks(t *testing.T) {
	r := testRegistry(newFakeClock())
	if _, ok := r.TryAcquire(""); ok {
		t.Fatal("TryAcquire on an empty registry granted a lease")
	}
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 1})
	if _, ok := r.TryAcquire("w-a"); ok {
		t.Fatal("TryAcquire granted a lease on the excluded worker")
	}
	r.Upsert(RegisterRequest{ID: "w-b", URL: "http://b", Capacity: 1})
	l, ok := r.TryAcquire("w-a")
	if !ok || l.ID != "w-b" {
		t.Fatalf("TryAcquire(exclude w-a) = %v/%v, want a w-b lease", l.ID, ok)
	}
	// w-b now saturated and w-a excluded: nothing left, still no blocking.
	if _, ok := r.TryAcquire("w-a"); ok {
		t.Fatal("TryAcquire granted a lease with every eligible worker saturated")
	}
}

// TestSnapshotSorted: the public view is sorted by id with live load.
func TestSnapshotSorted(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	r.Upsert(RegisterRequest{ID: "w-b", URL: "http://b", Capacity: 3})
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 0}) // clamped to 1
	mustAcquire(t, r)                                                  // w-a (least loaded, smallest id)

	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].ID != "w-a" || snap[1].ID != "w-b" {
		t.Fatalf("snapshot order = %+v, want [w-a w-b]", snap)
	}
	if snap[0].Capacity != 1 {
		t.Fatalf("capacity 0 should clamp to 1, got %d", snap[0].Capacity)
	}
	if snap[0].Inflight != 1 || snap[1].Inflight != 0 {
		t.Fatalf("inflight = %d/%d, want 1/0", snap[0].Inflight, snap[1].Inflight)
	}
}

// TestDrainFencesThenReleases pins the coordinator-side drain lifecycle: a
// draining heartbeat fences the worker from new leases while its in-flight
// batch finishes, and the first draining heartbeat that observes zero
// in-flight removes the worker and acks Released.
func TestDrainFencesThenReleases(t *testing.T) {
	r := testRegistry(newFakeClock())
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 2})
	r.Upsert(RegisterRequest{ID: "w-b", URL: "http://b", Capacity: 1})
	lease := mustAcquire(t, r) // least-loaded tie breaks to w-a
	if lease.ID != "w-a" {
		t.Fatalf("acquired %s, want w-a", lease.ID)
	}

	st := r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 2, Draining: true})
	if st.IsNew || st.Released || st.Drained {
		t.Fatalf("draining heartbeat with a batch in flight = %+v, want fenced but retained", st)
	}
	// Fenced: the free slot on w-a is invisible; every new lease lands on
	// w-b despite w-a having spare capacity.
	other := mustAcquire(t, r)
	if other.ID != "w-b" {
		t.Fatalf("acquired %s while w-a drains, want w-b", other.ID)
	}
	if _, ok := r.TryAcquire(""); ok {
		t.Fatal("TryAcquire found a slot with w-a draining and w-b saturated")
	}
	if slots, free := r.Capacity(); slots != 1 || free != 0 {
		t.Fatalf("Capacity = (%d, %d), want (1, 0): draining workers contribute no slots", slots, free)
	}

	// The drained flag is visible to /healthz.
	snap := r.Snapshot()
	if !snap[0].Draining || snap[1].Draining {
		t.Fatalf("Snapshot draining flags = %v/%v, want w-a only", snap[0].Draining, snap[1].Draining)
	}

	// Last in-flight batch finishes; the next draining heartbeat releases.
	lease.Release()
	st = r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 2, Draining: true})
	if !st.Released || !st.Drained {
		t.Fatalf("idle draining heartbeat = %+v, want Released+Drained", st)
	}
	if n := r.Len(); n != 1 {
		t.Fatalf("registry has %d workers after drain, want 1", n)
	}
}

// TestDrainUnknownWorkerNeverResurrects: a draining heartbeat from a worker
// the registry does not know (it already expired, or was already released)
// must ack Released without re-registering it.
func TestDrainUnknownWorkerNeverResurrects(t *testing.T) {
	r := testRegistry(newFakeClock())
	st := r.Upsert(RegisterRequest{ID: "w-gone", URL: "http://gone", Capacity: 1, Draining: true})
	if !st.Released || st.IsNew || st.Drained {
		t.Fatalf("unknown draining worker = %+v, want Released only", st)
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("registry resurrected a draining worker (len %d)", n)
	}
}

// TestDrainAbortedByFreshHeartbeat: a worker that starts draining and then
// changes its mind (restarted without the drain latch) re-enters rotation
// on its first non-draining heartbeat.
func TestDrainAbortedByFreshHeartbeat(t *testing.T) {
	r := testRegistry(newFakeClock())
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 1})
	lease := mustAcquire(t, r)
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 1, Draining: true})
	r.Upsert(RegisterRequest{ID: "w-a", URL: "http://a", Capacity: 1}) // drain aborted
	lease.Release()
	if got := mustAcquire(t, r); got.ID != "w-a" {
		t.Fatalf("acquired %s after aborted drain, want w-a", got.ID)
	}
	if slots, free := r.Capacity(); slots != 1 || free != 0 {
		t.Fatalf("Capacity = (%d, %d) after aborted drain with one lease out, want (1, 0)", slots, free)
	}
}
