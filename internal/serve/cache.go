package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cache is the fingerprint-keyed LRU result cache.  Its correctness
// rests on Theorem 1: a spec's fingerprint determines the computation,
// and every maximal execution of that computation reaches the same
// final state, so a cached result is bitwise interchangeable with a
// fresh one — returning it is indistinguishable from recomputing.
type cache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*list.Element
	order   *list.List // front = most recently used

	evictions atomic.Int64 // entries dropped past capacity
}

type cacheEntry struct {
	fp  uint64
	out *encoded
}

func newCache(capacity int) *cache {
	return &cache{
		cap:     capacity,
		entries: make(map[uint64]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached result for fp, refreshing its recency.
func (c *cache) get(fp uint64) (*encoded, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// put stores out under fp, evicting the least recently used entry past
// capacity.  Storing an existing key refreshes it; by determinacy the
// value cannot differ.
func (c *cache) put(fp uint64, out *encoded) {
	if c == nil || c.cap <= 0 || out == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).out = out
		return
	}
	c.entries[fp] = c.order.PushFront(&cacheEntry{fp: fp, out: out})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).fp)
		c.evictions.Add(1)
	}
}

// len returns the number of cached results.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// evicted returns the cumulative eviction count.
func (c *cache) evicted() int64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}
