package service

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := newResultCache(64)
	if _, ok := c.get("missing"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put("a", "first")
	v, ok := c.get("a")
	if !ok || v.(string) != "first" {
		t.Fatalf("get after put = %v/%v", v, ok)
	}
	c.put("a", "second")
	if v, _ := c.get("a"); v.(string) != "second" {
		t.Fatalf("same-key put did not overwrite: %v", v)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 (update must not duplicate)", c.len())
	}
}

func TestCacheBoundedEviction(t *testing.T) {
	c := newResultCache(16)
	if got := c.capacity(); got != 16 {
		t.Fatalf("capacity = %d, want 16", got)
	}
	for i := 0; i < 500; i++ {
		c.put(fmt.Sprintf("key-%d", i), i)
	}
	if c.len() > c.capacity() {
		t.Fatalf("len %d exceeds capacity %d", c.len(), c.capacity())
	}
	// key-499 landed last, so it must still be resident.
	if _, ok := c.get("key-499"); !ok {
		t.Fatal("most recent key was evicted")
	}
}

// TestCacheLRUOrder: eviction is exact LRU across every key: re-touching
// the oldest key protects it, so the put that overflows the cache evicts
// the next-oldest instead.
func TestCacheLRUOrder(t *testing.T) {
	c := newResultCache(3)
	c.put("a", 0)
	c.put("b", 1)
	c.put("c", 2)
	if _, ok := c.get("a"); !ok { // a is now the most recent
		t.Fatal("a missing before any eviction")
	}
	c.put("d", 3) // evicts b, the least recently used
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived; eviction is not LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted", k)
		}
	}
	// A lookup touches too: a is now the oldest, refreshed, and c goes.
	c.lookup("a", runSpec{})
	c.put("e", 4)
	if _, ok := c.get("c"); ok {
		t.Fatal("c survived after lookup refreshed a")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite its lookup")
	}
}

// TestCacheCapacityExact: the budget is exactly the configured entry
// count, not a multiple of some internal split.
func TestCacheCapacityExact(t *testing.T) {
	for _, n := range []int{1, 4, 10, 1023} {
		c := newResultCache(n)
		if got := c.capacity(); got != n {
			t.Fatalf("capacity(%d) = %d", n, got)
		}
		for i := 0; i < 3*n; i++ {
			c.put(fmt.Sprintf("key-%d", i), i)
		}
		if got := c.len(); got != n {
			t.Fatalf("cache of %d holds %d entries after %d puts", n, got, 3*n)
		}
		for i := 2 * n; i < 3*n; i++ { // exactly the newest n survive
			if _, ok := c.get(fmt.Sprintf("key-%d", i)); !ok {
				t.Fatalf("cache of %d evicted key-%d, one of the newest %d", n, i, n)
			}
		}
	}
}

// TestCacheClaimWaitsThenHits: a second claim of a key in flight gets the
// leader's wait channel; once the leader fills the cache and leaves, the
// channel closes and the next claim hits.
func TestCacheClaimWaitsThenHits(t *testing.T) {
	c := newResultCache(8)
	if v, wait, hit := c.claim("k", runSpec{}); hit || wait != nil || v != nil {
		t.Fatalf("first claim = %v/%v/%v, want lead", v, wait, hit)
	}
	_, wait, hit := c.claim("k", runSpec{})
	if hit || wait == nil {
		t.Fatalf("second claim = %v/%v, want a wait", wait, hit)
	}
	select {
	case <-wait:
		t.Fatal("wait closed before the leader left")
	default:
	}
	c.put("k", "report")
	c.leave("k")
	<-wait
	if v, wait, hit := c.claim("k", runSpec{}); !hit || wait != nil || v.(string) != "report" {
		t.Fatalf("claim after leave = %v/%v/%v, want a hit", v, wait, hit)
	}
	// A failed leader leaves without a fill: the waiter then leads.
	c.claim("x", runSpec{})
	_, wait, _ = c.claim("x", runSpec{})
	c.leave("x")
	<-wait
	if _, wait, hit := c.claim("x", runSpec{}); hit || wait != nil {
		t.Fatalf("claim after a failed flight = %v/%v, want lead", wait, hit)
	}
}

// TestNilCacheIsDisabled: with caching off (cache_entries < 0) every
// method is safe on the nil cache, nothing hits and every claim leads.
func TestNilCacheIsDisabled(t *testing.T) {
	var c *resultCache
	c.put("k", "v")
	c.leave("k")
	if _, ok := c.lookup("k", runSpec{}); ok {
		t.Fatal("nil cache hit")
	}
	for i := 0; i < 2; i++ {
		if _, wait, hit := c.claim("k", runSpec{}); hit || wait != nil {
			t.Fatalf("nil cache claim %d = %v/%v, want lead", i, wait, hit)
		}
	}
	if c.len() != 0 || c.capacity() != 0 {
		t.Fatalf("nil cache len/capacity = %d/%d", c.len(), c.capacity())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := newResultCache(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", (g*13+i)%64)
				c.put(key, i)
				c.get(key)
				c.len()
			}
		}()
	}
	wg.Wait()
	if c.len() > c.capacity() {
		t.Fatalf("len %d exceeds capacity %d", c.len(), c.capacity())
	}
}
