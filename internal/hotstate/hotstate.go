// Package hotstate provides the bounded, lock-striped, string-keyed cache
// behind the per-channel hot-state maps in Dynamoth (client local plans, the
// node's sampled channel table). At IoT-style topic-per-device scale the
// channel namespace is effectively unbounded; hotstate turns each of those
// maps from O(channels) into O(cap).
//
// Design:
//
//   - Power-of-two shard count, each shard its own mutex + map + CLOCK ring.
//     Operations hash the key to one shard and never touch the others, so
//     concurrent publishers on different channels do not serialize.
//   - CLOCK (second-chance) eviction: every Get/Put sets the entry's
//     reference bit; the eviction hand clears bits until it finds a cold
//     entry. One extra bit per entry buys near-LRU behavior without list
//     maintenance on the hot path.
//   - Pinning: pinned entries (a client's subscribed channels) are never
//     capacity-evicted and never swept; if every entry in a shard is pinned
//     the shard grows past its share of the cap rather than deadlocking.
//
// The package depends only on the standard library; metric families over
// Stats are registered by internal/obs (RegisterCaches) to avoid a cycle.
package hotstate

import (
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count when Config.Shards is 0: wide enough that
// 8–16 publisher goroutines rarely collide, small enough that per-shard caps
// stay meaningful at modest capacities.
const DefaultShards = 16

// StringHash is the FNV-1a 64-bit hash used for string keys. It is inlined
// by the compiler and allocation-free.
func StringHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Stats is a point-in-time snapshot of one cache's counters, exported via
// obs.RegisterCaches as dynamoth_*_hotstate_* families.
type Stats struct {
	Size     int // entries currently held
	Capacity int // configured bound (0 = unbounded)
	Pinned   int // entries exempt from eviction
	Hits     uint64
	Misses   uint64
	// Evictions counts capacity evictions (CLOCK victims); Expirations
	// counts sweep drops. Explicit Deletes are neither.
	Evictions   uint64
	Expirations uint64
}

// NamedStats labels a Stats source for metric registration.
type NamedStats struct {
	Name  string
	Stats func() Stats
}

// Config configures a Cache.
type Config[K ~string, V any] struct {
	// Capacity bounds the total entry count across shards (rounded up to at
	// least one per shard). 0 or negative means unbounded.
	Capacity int
	// Shards is rounded up to a power of two (default DefaultShards).
	Shards int
}

// entry is one cached item; slot is its position in the shard's CLOCK ring.
type entry[K ~string, V any] struct {
	key    K
	val    V
	slot   int
	ref    bool // CLOCK reference bit
	pinned bool
}

type shard[K ~string, V any] struct {
	mu     sync.Mutex
	items  map[K]*entry[K, V]
	ring   []*entry[K, V]
	hand   int
	pinned int
}

// Cache is a bounded, lock-striped map safe for concurrent use.
type Cache[K ~string, V any] struct {
	shards   []shard[K, V]
	mask     uint64
	perShard int // capacity per shard (0 = unbounded)
	capacity int

	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	expirations atomic.Uint64

	sweepCursor atomic.Uint64 // next shard index for incremental Sweep
}

// New creates a cache.
func New[K ~string, V any](cfg Config[K, V]) *Cache[K, V] {
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	c := &Cache[K, V]{
		shards:   make([]shard[K, V], pow),
		mask:     uint64(pow - 1),
		capacity: cfg.Capacity,
	}
	if cfg.Capacity > 0 {
		c.perShard = (cfg.Capacity + pow - 1) / pow
		if c.perShard < 1 {
			c.perShard = 1
		}
	}
	for i := range c.shards {
		c.shards[i].items = make(map[K]*entry[K, V])
	}
	return c
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	return &c.shards[StringHash(string(k))&c.mask]
}

// removeLocked unlinks e from the shard (map + ring). Caller holds s.mu.
func (s *shard[K, V]) removeLocked(e *entry[K, V]) {
	delete(s.items, e.key)
	if e.pinned {
		s.pinned--
	}
	last := len(s.ring) - 1
	moved := s.ring[last]
	s.ring[e.slot] = moved
	moved.slot = e.slot
	s.ring[last] = nil
	s.ring = s.ring[:last]
	if s.hand > last {
		s.hand = 0
	}
}

// Get returns the value for k, marking the entry recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	e.ref = true
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Peek returns the value for k without touching the reference bit or the
// hit/miss counters.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	v := e.val
	s.mu.Unlock()
	return v, true
}

// Put inserts or replaces k's value, evicting a cold entry if the shard is at
// capacity. It reports whether an existing entry was replaced.
func (c *Cache[K, V]) Put(k K, v V) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		e.val = v
		e.ref = true
		s.mu.Unlock()
		return true
	}
	c.insertLocked(s, k, v)
	s.mu.Unlock()
	return false
}

// insertLocked adds a new entry for k, first evicting a cold one if the
// shard is at capacity. Caller holds s.mu.
func (c *Cache[K, V]) insertLocked(s *shard[K, V], k K, v V) {
	if c.evictLocked(s) {
		c.evictions.Add(1)
	}
	e := &entry[K, V]{key: k, val: v, ref: true, slot: len(s.ring)}
	s.items[k] = e
	s.ring = append(s.ring, e)
}

// evictLocked frees one slot via CLOCK when the shard is at capacity and
// reports whether it did. Pinned entries are skipped; if everything is pinned
// the shard is allowed to grow. Caller holds s.mu.
func (c *Cache[K, V]) evictLocked(s *shard[K, V]) bool {
	if c.perShard <= 0 || len(s.ring) < c.perShard {
		return false
	}
	if s.pinned >= len(s.ring) {
		return false // all pinned: overflow rather than deadlock
	}
	// Two full laps guarantee a victim: the first lap clears reference bits,
	// the second finds a cleared, unpinned entry.
	for i := 0; i < 2*len(s.ring); i++ {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		e := s.ring[s.hand]
		s.hand++
		if e.pinned {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		s.removeLocked(e)
		return true
	}
	return false
}

// Upsert atomically examines k's current value under the shard lock and
// installs fn's result when write is true. fn must not call back into the
// cache. Returns whether a write happened.
func (c *Cache[K, V]) Upsert(k K, fn func(old V, exists bool) (v V, write bool)) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		v, write := fn(e.val, true)
		if write {
			e.val = v
			e.ref = true
		}
		s.mu.Unlock()
		return write
	}
	var zero V
	v, write := fn(zero, false)
	if !write {
		s.mu.Unlock()
		return false
	}
	c.insertLocked(s, k, v)
	s.mu.Unlock()
	return true
}

// Delete removes k, returning its value.
func (c *Cache[K, V]) Delete(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	s.removeLocked(e)
	s.mu.Unlock()
	return e.val, true
}

// Pin marks k exempt from eviction and sweeping (when set) or re-eligible
// (when clear). Reports whether the entry exists.
func (c *Cache[K, V]) Pin(k K, pinned bool) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if ok && e.pinned != pinned {
		e.pinned = pinned
		if pinned {
			s.pinned++
		} else {
			s.pinned--
		}
	}
	s.mu.Unlock()
	return ok
}

// Range visits every entry. f runs under the shard lock and must not call
// back into the cache; keep it short (the read side of a snapshot).
func (c *Cache[K, V]) Range(f func(k K, v V) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.ring {
			if !f(e.key, e.val) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// Sweep visits up to maxShards shards (rotating across calls; <=0 means all)
// and drops entries for which drop returns true.
// Pinned entries are never dropped. drop runs under the shard lock. Returns
// the number of entries dropped.
//
// A full scan of an N-entry cache costs O(N); calling Sweep with a shard
// budget amortizes that to O(N/shards) per call while still covering the
// whole cache every shards/maxShards calls — the incremental replacement for
// the old O(channels) full-map sweeps.
func (c *Cache[K, V]) Sweep(maxShards int, drop func(k K, v V) bool) int {
	n := len(c.shards)
	if maxShards <= 0 || maxShards > n {
		maxShards = n
	}
	start := c.sweepCursor.Add(uint64(maxShards)) - uint64(maxShards)
	dropped := 0
	for i := 0; i < maxShards; i++ {
		s := &c.shards[(start+uint64(i))&c.mask]
		s.mu.Lock()
		for j := 0; j < len(s.ring); {
			e := s.ring[j]
			if e.pinned {
				j++
				continue
			}
			if !drop(e.key, e.val) {
				j++
				continue
			}
			s.removeLocked(e) // moves the last entry into slot j; revisit j
			c.expirations.Add(1)
			dropped++
		}
		s.mu.Unlock()
	}
	return dropped
}

// ShardCount returns the (power-of-two) shard count.
func (c *Cache[K, V]) ShardCount() int { return len(c.shards) }

// Len returns the current entry count (summed across shards).
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the configured bound (0 = unbounded).
func (c *Cache[K, V]) Capacity() int { return c.capacity }

// Stats snapshots the cache counters for metric export.
func (c *Cache[K, V]) Stats() Stats {
	size, pinned := 0, 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		size += len(s.ring)
		pinned += s.pinned
		s.mu.Unlock()
	}
	return Stats{
		Size:        size,
		Capacity:    c.capacity,
		Pinned:      pinned,
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
	}
}
