// Package cache provides the dependency-free caching primitives shared by
// the repository's hot paths: a thread-safe generic LRU with hit/miss/
// eviction statistics and optional wiring into the obs metrics registry.
//
// Three layers build on it (see ARCHITECTURE.md for the full contract):
//
//   - sqldb's prepared-statement + plan cache (keyed on normalized SQL
//     text, invalidated by per-table version counters on DDL and DML);
//   - the strategies layer's inference memoization (keyed on model id +
//     input tensor hash, short-circuiting repeated nUDF_* calls);
//   - dl2sql's materialized FeatureMap-intermediate cache (keyed on a
//     hash chain over model weights, input, and pipeline step).
//
// All methods are safe on a nil *LRU — a nil cache is simply always cold
// and drops every Put — so call sites need no "is caching on?" branches,
// mirroring the nil-receiver idiom of internal/obs.
package cache

import (
	"sync"

	"repro/internal/obs"
)

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
	Cap       int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one node of the intrusive recency list (front = most recent).
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// LRU is a fixed-capacity least-recently-used cache. All operations are
// O(1) and safe for concurrent use; a nil *LRU is a valid always-miss
// cache.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*entry[K, V]
	front    *entry[K, V] // most recently used
	back     *entry[K, V] // least recently used

	hits, misses, evictions int64

	// optional obs instruments; nil counters are no-ops.
	onHit, onMiss, onEvict *obs.Counter
}

// New creates an LRU bounded to capacity entries. Capacity <= 0 returns a
// nil cache (caching disabled).
func New[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity <= 0 {
		return nil
	}
	return &LRU[K, V]{capacity: capacity, items: make(map[K]*entry[K, V], capacity)}
}

// Instrument mirrors the cache's hit/miss/eviction counters into the
// registry under prefix (e.g. "sqldb.cache.plan" yields
// "sqldb.cache.plan.hits"). A nil registry leaves the cache uninstrumented.
func (c *LRU[K, V]) Instrument(reg *obs.Registry, prefix string) {
	if c == nil || reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onHit = reg.Counter(prefix + ".hits")
	c.onMiss = reg.Counter(prefix + ".misses")
	c.onEvict = reg.Counter(prefix + ".evictions")
}

// Get returns the cached value and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		miss := c.onMiss
		c.mu.Unlock()
		miss.Add(1)
		return zero, false
	}
	c.moveToFront(e)
	c.hits++
	hit := c.onHit
	v := e.val
	c.mu.Unlock()
	hit.Add(1)
	return v, true
}

// Peek returns the cached value without touching recency or the hit/miss
// counters: a second read of a key whose lookup a caller already counted.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		return e.val, true
	}
	return zero, false
}

// Put inserts or updates a value, evicting the least recently used entry
// when the cache is full.
func (c *LRU[K, V]) Put(key K, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		e.val = val
		c.moveToFront(e)
		c.mu.Unlock()
		return
	}
	e := &entry[K, V]{key: key, val: val}
	c.items[key] = e
	c.pushFront(e)
	var evict *obs.Counter
	if len(c.items) > c.capacity {
		lru := c.back
		c.remove(lru)
		delete(c.items, lru.key)
		c.evictions++
		evict = c.onEvict
	}
	c.mu.Unlock()
	evict.Add(1)
}

// Delete removes a key if present.
func (c *LRU[K, V]) Delete(key K) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.remove(e)
		delete(c.items, key)
	}
}

// Purge empties the cache, keeping its statistics.
func (c *LRU[K, V]) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[K]*entry[K, V], c.capacity)
	c.front, c.back = nil, nil
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats snapshots the cache counters. Safe on nil (all zeros).
func (c *LRU[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       len(c.items),
		Cap:       c.capacity,
	}
}

// ---- intrusive list helpers (all called under mu) ----

func (c *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
}

func (c *LRU[K, V]) remove(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *LRU[K, V]) moveToFront(e *entry[K, V]) {
	if c.front == e {
		return
	}
	c.remove(e)
	c.pushFront(e)
}
