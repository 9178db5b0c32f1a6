// Package localplan is a client's partial plan P(C) of the paper (§II-C,
// §IV-A5) and the routing decided over it.
//
// Store holds the learned channel→servers entries — taught lazily by SWITCH
// and WRONG-SERVER notifications, forgotten by per-entry timers so idle
// channels return to consistent hashing — over the fallback ring. It is
// backed by a bounded hotstate cache: an entry evicted under capacity
// pressure falls back to consistent hashing exactly as if its timer had
// fired, subscribed channels are pinned so their routes survive any churn,
// and the idle sweep is incremental (a quarter of the shards per call).
//
// Router is the subscription table over a Store and every placement
// decision — subscribe, unsubscribe, switch, ring move, failover repair,
// stand-ins for unreachable servers. It is single-threaded and pure: time and
// reachability are arguments, servers to subscribe on and leave are results.
// The live client and the discrete-event simulator both drive this one
// Router, so client routing is the same code in both.
package localplan

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/hotstate"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// DefaultTimeout is the per-entry timer of §IV-A5.
const DefaultTimeout = 30 * time.Second

// DefaultCap bounds the learned-entry cache.
// A real client publishes/subscribes on far fewer channels than this; the cap
// only bites for IoT-style clients touching an unbounded channel namespace,
// where evicted channels transparently fall back to consistent hashing.
const DefaultCap = 4096

// Learned is one channel's learned mapping. The struct itself is immutable
// after creation except for the entry timer, which is atomic so that the
// client's publish and delivery paths can touch it without coordinating with
// the store.
type Learned struct {
	e        plan.Entry
	version  uint64
	lastUsed atomic.Int64 // unix nanoseconds of last use
}

// Entry returns the mapping. Callers must treat the entry (including its
// Servers slice) as read-only.
func (l *Learned) Entry() plan.Entry { return l.e }

// Version is the plan version the entry was learned at.
func (l *Learned) Version() uint64 { return l.version }

// Touch resets the entry timer (§IV-A5: "the timer is reset whenever the
// client sends or receives a publication"). Safe for concurrent use.
func (l *Learned) Touch(now time.Time) { l.lastUsed.Store(now.UnixNano()) }

// Store is a client's local plan. It is safe for concurrent use: entries
// live in a lock-striped bounded cache, and the fallback ring is swapped
// atomically. Learned entries handed out by Learned may be touched
// concurrently.
type Store struct {
	base    atomic.Pointer[plan.Plan]
	entries *hotstate.Cache[string, *Learned]
	timeout time.Duration

	ringMu      sync.Mutex
	ringVersion uint64
	ringScratch map[plan.ServerID]struct{} // reused by sameMembers
}

// New creates a local plan over the bootstrap server set (the consistent-
// hash fallback ring) with DefaultCap learned entries.
func New(bootstrap []plan.ServerID, timeout time.Duration) *Store {
	return newStore(bootstrap, timeout, DefaultCap)
}

// newStore is New with another learned-entry bound (tests shrink it).
func newStore(bootstrap []plan.ServerID, timeout time.Duration, cap int) *Store {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	s := &Store{
		entries: hotstate.New[string, *Learned](hotstate.Config[string, *Learned]{
			Capacity: cap,
		}),
		timeout:     timeout,
		ringScratch: make(map[plan.ServerID]struct{}, len(bootstrap)),
	}
	s.base.Store(plan.New(bootstrap...))
	return s
}

// Base returns the fallback plan (for Home lookups).
func (s *Store) Base() *plan.Plan { return s.base.Load() }

// UpdateRing replaces the fallback ring membership if version is newer than
// any ring update seen so far (clients learn the active server set from
// switch/redirect notifications). It reports whether the ring changed.
func (s *Store) UpdateRing(servers []plan.ServerID, version uint64) bool {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	if version <= s.ringVersion || len(servers) == 0 {
		return false
	}
	s.ringVersion = version
	if s.sameMembersLocked(s.base.Load().RingServers, servers) {
		return false
	}
	s.base.Store(plan.New(servers...))
	return true
}

// sameMembersLocked compares server sets ignoring order, reusing the store's
// scratch map so ring-update storms (every switch notification carries the
// ring) do not allocate. Caller holds ringMu.
func (s *Store) sameMembersLocked(a, b []plan.ServerID) bool {
	if len(a) != len(b) {
		return false
	}
	clear(s.ringScratch)
	for _, x := range a {
		s.ringScratch[x] = struct{}{}
	}
	for _, x := range b {
		if _, ok := s.ringScratch[x]; !ok {
			return false
		}
	}
	return true
}

// Lookup resolves a channel: the learned entry if present (touching its
// timer), otherwise the consistent-hash fallback. version is the plan
// version the entry was learned at (0 for fallback).
func (s *Store) Lookup(channel string, now time.Time) (plan.Entry, uint64) {
	if le, ok := s.entries.Get(channel); ok {
		le.Touch(now)
		return le.e, le.version
	}
	e, _ := s.base.Load().Lookup(channel)
	return e, 0
}

// Learned returns channel's learned entry, if any, without marking it used
// or counting a cache hit: the client's publish and delivery paths read
// their routes here and touch the entry timer themselves.
func (s *Store) Learned(channel string) (*Learned, bool) {
	return s.entries.Peek(channel)
}

// Peek is Lookup without touching the timer.
func (s *Store) Peek(channel string) (plan.Entry, uint64, bool) {
	if le, ok := s.entries.Peek(channel); ok {
		return le.e, le.version, true
	}
	e, _ := s.base.Load().Lookup(channel)
	return e, 0, false
}

// Update installs a mapping learned from a switch or wrong-server
// notification. Stale versions (older than the stored entry) are ignored.
// A pinned channel stays pinned across updates. Inserting into a full cache
// evicts a cold unpinned entry (which thereby falls back to consistent
// hashing). It reports whether the store changed.
func (s *Store) Update(channel string, e plan.Entry, version uint64, now time.Time) bool {
	if !e.Strategy.Valid() || len(e.Servers) == 0 || channel == "" {
		return false
	}
	le := &Learned{
		e:       plan.Entry{Strategy: e.Strategy, Servers: append([]plan.ServerID(nil), e.Servers...)},
		version: version,
	}
	le.Touch(now)
	return s.entries.Upsert(channel, func(old *Learned, exists bool) (*Learned, bool) {
		if exists && version < old.version {
			return old, false
		}
		return le, true
	})
}

// Touch resets a channel's entry timer (called when the client sends or
// receives a publication on it) and marks it recently used for eviction.
func (s *Store) Touch(channel string, now time.Time) {
	if le, ok := s.entries.Get(channel); ok {
		le.Touch(now)
	}
}

// Pin exempts a channel's learned entry from eviction and sweeping (the
// client pins its subscriptions — §IV-A5 keeps those). Reports whether an
// entry existed to pin. Unpinning a forgotten channel is a no-op.
func (s *Store) Pin(channel string, pinned bool) bool {
	return s.entries.Pin(channel, pinned)
}

// Forget drops a channel's entry immediately.
func (s *Store) Forget(channel string) { s.entries.Delete(channel) }

// Sweep incrementally removes entries idle past the timeout, except pinned
// (subscribed) channels. Each call covers a quarter of the shards (rotating),
// so a sweep cadence of timeout/4 still visits every entry within one timeout
// period at O(entries/4) per call. It returns the number of entries dropped.
func (s *Store) Sweep(now time.Time) int {
	cutoff := now.Add(-s.timeout).UnixNano()
	return s.entries.Sweep(s.entries.ShardCount()/4, func(_ string, le *Learned) bool {
		return le.lastUsed.Load() < cutoff
	})
}

// Len returns the number of learned entries (the paper's "local plan size").
func (s *Store) Len() int { return s.entries.Len() }

// CacheStats snapshots the learned-entry cache counters for metric export.
func (s *Store) CacheStats() hotstate.Stats { return s.entries.Stats() }
