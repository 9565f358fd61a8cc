package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultCacheEntries is the capacity of a node's result cache when
// Config.CacheEntries is zero, and of the cluster coordinator's.
const DefaultCacheEntries = 256

// Cache is the fingerprint-keyed LRU of results, one implementation for
// a node's encoded results and the cluster coordinator's node answers.
// Its correctness rests on Theorem 1: a spec's fingerprint determines
// the computation, and every maximal execution of that computation
// reaches the same final state, so a cached result is bitwise
// interchangeable with a fresh one — returning it is indistinguishable
// from recomputing.
//
// A nil Cache, or one of capacity 0 or less, holds nothing.  Safe for
// concurrent use.
type Cache[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*list.Element
	order   *list.List // front = most recently used

	evictions atomic.Int64 // entries dropped past capacity
}

type cacheEntry[V any] struct {
	fp uint64
	v  V
}

// NewCache returns an empty cache of the given capacity.
func NewCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:     capacity,
		entries: make(map[uint64]*list.Element),
		order:   list.New(),
	}
}

// Get returns the value cached for fp, refreshing its recency.
func (c *Cache[V]) Get(fp uint64) (V, bool) {
	var zero V
	if c == nil || c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).v, true
}

// Put stores v under fp, evicting the least recently used entry past
// capacity.  A key already present keeps its first value and is only
// refreshed: by determinacy a later value cannot differ.
func (c *Cache[V]) Put(fp uint64, v V) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[fp] = c.order.PushFront(&cacheEntry[V]{fp: fp, v: v})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry[V]).fp)
		c.evictions.Add(1)
	}
}

// Len returns the number of cached values.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Evicted returns the cumulative eviction count.
func (c *Cache[V]) Evicted() int64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}
