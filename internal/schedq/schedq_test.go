package schedq

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustPush(t *testing.T, q *Queue, tenant string, cost int64, item any) {
	t.Helper()
	if err := q.Push(tenant, cost, item); err != nil {
		t.Fatalf("Push(%s): %v", tenant, err)
	}
}

// popAll drains n items without blocking semantics mattering (everything
// is already queued).
func popAll(t *testing.T, q *Queue, n int) []any {
	t.Helper()
	out := make([]any, 0, n)
	for i := 0; i < n; i++ {
		it, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop %d/%d: scheduler closed", i, n)
		}
		out = append(out, it)
	}
	return out
}

// TestSingleTenantArrivalOrderNeverYields: with one tenant, WFQ is
// arrival order — whatever that tenant's clock does — and a running job
// is never asked to yield to its own tenant's queued work.
func TestSingleTenantArrivalOrderNeverYields(t *testing.T) {
	q, err := New(WFQ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		mustPush(t, q, "solo", int64(i+1), i)
	}
	for want := range 5 {
		if q.Yield("solo") {
			t.Fatalf("a lone tenant yielded with %d jobs queued", q.Len())
		}
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("pop %d = %v (ok=%v), want arrival order", want, got, ok)
		}
		mustPush(t, q, "solo", 1, 5+want) // later arrivals queue behind
		q.Completed("solo", int64(want+1))
		q.JobDone("solo")
	}
	for want := 5; want < 10; want++ {
		if got, _ := q.Pop(); got != want {
			t.Fatalf("pop = %v, want %d in arrival order", got, want)
		}
	}
}

// TestWFQAlternatesEqualWeights: a whale with a deep backlog and an
// interactive tenant submitting singles must alternate — the whale's
// completed work advances its clock past the newcomer's.
func TestWFQAlternatesEqualWeights(t *testing.T) {
	q, err := New(WFQ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Whale admitted first and "runs" 10 configurations.
	mustPush(t, q, "whale", 100, "whale-job")
	it, _ := q.Pop()
	if it != "whale-job" {
		t.Fatalf("popped %v", it)
	}
	q.Completed("whale", 10)

	// Interactive jobs arrive; their clock floors to the global vtime
	// (0 — the whale's clock at pickup), far behind the whale's 10.
	for i := 0; i < 3; i++ {
		mustPush(t, q, "live", 1, fmt.Sprintf("live-%d", i))
	}
	if !q.Yield("whale") {
		t.Fatal("whale should yield to the waiting interactive tenant")
	}
	if err := q.Requeue("whale", "whale-job"); err != nil {
		t.Fatal(err)
	}
	// The interactive tenant wins until its clock catches the whale's.
	for i := 0; i < 3; i++ {
		it, _ := q.Pop()
		if it != fmt.Sprintf("live-%d", i) {
			t.Fatalf("pop %d = %v, want live-%d", i, it, i)
		}
		q.Completed("live", 1)
		q.JobDone("live")
	}
	it, _ = q.Pop()
	if it != "whale-job" {
		t.Fatalf("whale should resume after interactive drains, got %v", it)
	}
	if q.Yield("whale") {
		t.Fatal("nothing queued: no yield")
	}
}

func TestWFQWeightsSkewService(t *testing.T) {
	q, err := New(WFQ, Config{Tenants: map[string]Policy{
		"heavy": {Weight: 3},
		"light": {Weight: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Both backlogged from the start; each completion charges 1/weight.
	// Count service in a window: heavy should get ~3x light's picks.
	mustPush(t, q, "heavy", 1000, "H")
	mustPush(t, q, "light", 1000, "L")
	served := map[any]int{}
	for i := 0; i < 40; i++ {
		it, _ := q.Pop()
		served[it]++
		tn := "heavy"
		if it == "L" {
			tn = "light"
		}
		q.Completed(tn, 1)
		if err := q.Requeue(tn, it); err != nil {
			t.Fatal(err)
		}
	}
	if served["H"] != 30 || served["L"] != 10 {
		t.Fatalf("service split H=%d L=%d, want 30/10", served["H"], served["L"])
	}
}

func TestQuotaConfigsAndJobs(t *testing.T) {
	q, err := New(WFQ, Config{Tenants: map[string]Policy{
		"small": {MaxQueuedConfigs: 5, MaxInflightJobs: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, q, "small", 3, "j1")
	var qe *QuotaError
	if err := q.Push("small", 3, "j2"); !errors.As(err, &qe) || qe.Kind != "configs" {
		t.Fatalf("want configs QuotaError, got %v", err)
	}
	if qe.Backlog != 3 || qe.Limit != 5 {
		t.Fatalf("QuotaError backlog=%d limit=%d, want 3/5", qe.Backlog, qe.Limit)
	}
	mustPush(t, q, "small", 1, "j2") // 4 <= 5, second open job
	if err := q.Push("small", 1, "j3"); !errors.As(err, &qe) || qe.Kind != "jobs" {
		t.Fatalf("want jobs QuotaError, got %v", err)
	}
	// Exempt pushes (WAL replay) bypass both bounds.
	if err := q.PushExempt("small", 50, "replayed"); err != nil {
		t.Fatalf("PushExempt: %v", err)
	}
	// Completion + terminal accounting reopens admission.
	q.Completed("small", 54)
	q.JobDone("small")
	q.JobDone("small")
	q.JobDone("small")
	popAll(t, q, 3)
	mustPush(t, q, "small", 5, "j4")
}

func TestCapacityFullAndRequeueExempt(t *testing.T) {
	q, err := New(WFQ, Config{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, q, "a", 1, 1)
	mustPush(t, q, "a", 1, 2)
	if err := q.Push("a", 1, 3); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	// A preempted continuation re-enters above capacity.
	if err := q.Requeue("a", 3); err != nil {
		t.Fatalf("Requeue over capacity: %v", err)
	}
	if q.Len() != 3 {
		t.Fatalf("Len=%d, want 3", q.Len())
	}
}

func TestCloseDrainsThenStops(t *testing.T) {
	q, err := New(WFQ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, q, "a", 1, "x")
	q.Close()
	if err := q.Push("a", 1, "y"); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := q.Requeue("a", "y"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Requeue after close: want ErrClosed, got %v", err)
	}
	if it, ok := q.Pop(); !ok || it != "x" {
		t.Fatalf("Pop should drain queued item, got %v/%v", it, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after drain should report closed")
	}
}

func TestPopBlocksUntilPushOrClose(t *testing.T) {
	q, err := New(WFQ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan any, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		it, ok := q.Pop()
		if ok {
			got <- it
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the popper block
	// A blocked (idle) worker means Yield must not fire even with work
	// queued the instant before the worker wakes.
	mustPush(t, q, "b", 1, "wake")
	select {
	case it := <-got:
		if it != "wake" {
			t.Fatalf("got %v", it)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop never woke")
	}
	wg.Wait()
	q.Close()
	if _, ok := q.Pop(); ok {
		t.Fatal("closed empty scheduler must report ok=false")
	}
}

func TestYieldSuppressedByIdleWorker(t *testing.T) {
	q, err := New(WFQ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Push("whale", 10, "w"); err != nil {
		t.Fatal(err)
	}
	q.Pop()
	q.Completed("whale", 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Pop() // idle worker parks
	}()
	for {
		q.mu.Lock()
		waiting := q.waiters > 0
		q.mu.Unlock()
		if waiting {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Queued work + an idle worker: the worker takes it, no preemption.
	// (Racing the push against the parked worker is the exact scenario;
	// Yield must be false both before the worker wakes and after.)
	if err := q.Push("live", 1, "l"); err != nil {
		t.Fatal(err)
	}
	<-done
	if q.Yield("whale") {
		t.Fatal("no queued work remains; yield must be false")
	}
	q.Close()
}

func TestIdleTenantEarnsNoCredit(t *testing.T) {
	q, err := New(WFQ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Whale works alone for a long time, advancing the global clock.
	mustPush(t, q, "whale", 1000, "w")
	q.Pop()
	q.Completed("whale", 500)
	if err := q.Requeue("whale", "w"); err != nil {
		t.Fatal(err)
	}
	q.Pop() // vtime advances to the whale's clock (500)
	// A newcomer floors at the global clock — it is entitled to preempt
	// only the whale's progress since its last pickup, not 500 configs.
	mustPush(t, q, "newbie", 1, "n")
	snaps := q.Snapshot()
	var newbieVT, whaleVT float64
	for _, s := range snaps {
		switch s.Tenant {
		case "newbie":
			newbieVT = s.VirtualTime
		case "whale":
			whaleVT = s.VirtualTime
		}
	}
	if newbieVT != whaleVT {
		t.Fatalf("newcomer clock %v, want floored to whale's %v", newbieVT, whaleVT)
	}
	if q.Yield("whale") {
		t.Fatal("equal clocks: no yield until the whale completes more work")
	}
	q.Completed("whale", 1)
	if !q.Yield("whale") {
		t.Fatal("whale ahead by one config: yield")
	}
}

func TestBacklogAndSnapshot(t *testing.T) {
	q, err := New(WFQ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, q, "a", 7, "j")
	if got := q.Backlog("a"); got != 7 {
		t.Fatalf("Backlog=%d, want 7", got)
	}
	q.Completed("a", 2)
	q.Abandon("a", 5)
	if got := q.Backlog("a"); got != 0 {
		t.Fatalf("Backlog=%d, want 0", got)
	}
	snaps := q.Snapshot()
	if len(snaps) != 1 || snaps[0].Tenant != "a" || snaps[0].QueuedJobs != 1 || snaps[0].OpenJobs != 1 {
		t.Fatalf("snapshot %+v", snaps)
	}
	q.Pop()
	q.JobDone("a")
	if got := q.Backlog("missing"); got != 0 {
		t.Fatalf("unknown tenant backlog=%d", got)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"", WFQ} {
		if q, err := New(name, Config{}); err != nil || q == nil {
			t.Fatalf("New(%q) = %v, %v", name, q, err)
		}
	}
	for _, name := range []string{"nope", "fifo"} {
		if _, err := New(name, Config{}); err == nil {
			t.Fatalf("New(%q): unknown policy must error", name)
		}
	}
}

func TestValidTenant(t *testing.T) {
	for _, ok := range []string{"default", "a", "team-1", "A.B_c-9"} {
		if err := ValidTenant(ok); err != nil {
			t.Errorf("ValidTenant(%q): %v", ok, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "has space", "sneaky/../path", "emoji✨", string(long)} {
		if err := ValidTenant(bad); err == nil {
			t.Errorf("ValidTenant(%q): want error", bad)
		}
	}
}
