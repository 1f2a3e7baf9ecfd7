package service

import (
	"container/list"
	"sync"
)

// resultCache is an LRU over deterministic results (rescq.Summary for
// simulations, string reports for experiments) together with the in-flight
// table that coalesces identical configurations, both under one mutex:
// claim must see the table and the entries atomically, so one lock is all
// the path ever takes. Keys are the stable digests from rescq.CacheKey.
// Every method is safe on a nil cache (caching disabled): nothing hits,
// every claim leads.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	order    *list.List // front = most recent; values are *cacheEntry
	entries  map[string]*list.Element
	inflight map[string]chan struct{} // keys being computed right now
}

type cacheEntry struct {
	key string
	val any
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:      capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]chan struct{}),
	}
}

// get returns key's entry, marking it most recently used.
func (c *resultCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(key)
}

// touch is get with c.mu held.
func (c *resultCache) touch(key string) (any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// servable reports whether an entry can serve spec: one with stripped
// latency arrays (a partial cachedSummary) cannot serve a request that
// keeps them.
func servable(v any, spec runSpec) bool {
	cs, isSum := v.(*cachedSummary)
	return !(isSum && cs.partial && spec.KeepLatencies)
}

// lookup returns the cache entry for key if it can serve spec.
func (c *resultCache) lookup(key string, spec runSpec) (any, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.get(key)
	return v, ok && servable(v, spec)
}

// claim routes one configuration through the entries and the in-flight
// table atomically: a hit returns the entry; an identical configuration
// computing right now returns its wait channel (claim again once it
// closes); otherwise the caller leads, and must leave(key) after the
// cache fill.
func (c *resultCache) claim(key string, spec runSpec) (v any, wait <-chan struct{}, hit bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.inflight[key]; ok {
		return nil, w, false
	}
	if v, ok := c.touch(key); ok && servable(v, spec) {
		return v, nil, true
	}
	c.inflight[key] = make(chan struct{})
	return nil, nil, false
}

// leave ends a leader's flight, waking its waiters.
func (c *resultCache) leave(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	w, ok := c.inflight[key]
	delete(c.inflight, key)
	c.mu.Unlock()
	if ok {
		close(w)
	}
}

// put stores val under key, evicting the least recently used entry past
// the capacity.
func (c *resultCache) put(key string, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// len reports the resident entry count.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// capacity reports the entry budget.
func (c *resultCache) capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}
