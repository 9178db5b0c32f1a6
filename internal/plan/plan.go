// Package plan implements Dynamoth's "plan" concept (paper §II-A): a
// versioned lookup table mapping channels to the pub/sub server(s) in charge
// of them, together with the per-channel replication strategy (§II-B).
//
// A plan answers two questions for every channel:
//
//   - where does a publisher send a publication, and
//   - where does a subscriber place its subscription.
//
// For channels the plan does not mention, the mapping falls back to
// consistent hashing over the plan's server set (§II-C "plan 0"). Plans are
// value-like: balancers build a new plan by cloning and mutating, then
// publish it; consumers treat a received plan as immutable.
package plan

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/dynamoth/dynamoth/internal/hashring"
)

// ServerID identifies one pub/sub server node.
type ServerID = string

// Strategy is the channel replication scheme (§II-B, Figure 2).
type Strategy uint8

const (
	// StrategySingle maps the channel to exactly one server (Figure 2a).
	StrategySingle Strategy = iota + 1
	// StrategyAllSubscribers replicates for publication-heavy channels
	// (Figure 2b): every subscriber subscribes on all replica servers,
	// each publisher publishes to one (random) replica.
	StrategyAllSubscribers
	// StrategyAllPublishers replicates for subscriber-heavy channels
	// (Figure 2c): each publisher publishes to all replica servers, every
	// subscriber subscribes on one replica.
	StrategyAllPublishers
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategySingle:
		return "single"
	case StrategyAllSubscribers:
		return "all-subscribers"
	case StrategyAllPublishers:
		return "all-publishers"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// Valid reports whether s is a defined strategy.
func (s Strategy) Valid() bool {
	return s >= StrategySingle && s <= StrategyAllPublishers
}

// Entry is one channel's mapping.
type Entry struct {
	Strategy Strategy   `json:"strategy"`
	Servers  []ServerID `json:"servers"`
}

// clone returns a deep copy of the entry.
func (e Entry) clone() Entry {
	return Entry{Strategy: e.Strategy, Servers: append([]ServerID(nil), e.Servers...)}
}

// Plan is a versioned channel→servers mapping with consistent-hash fallback.
//
// Servers is the active server set; RingServers are the members of the
// consistent-hash fallback ring. Under Dynamoth the ring stays pinned to the
// bootstrap servers — new servers receive load exclusively through explicit
// migrations, so spawning a server never remaps unmentioned channels. The
// consistent-hashing baseline instead grows the ring itself on every spawn
// (shedding 1/N of every server's identifiers), which is exactly the
// load-oblivious behavior Experiment 2 compares against.
type Plan struct {
	Version     uint64           `json:"version"`
	Servers     []ServerID       `json:"servers"`
	RingServers []ServerID       `json:"ringServers"`
	Channels    map[string]Entry `json:"channels,omitempty"`

	ringOnce sync.Once
	ring     *hashring.Ring
}

// Errors returned by plan operations.
var (
	ErrNoServers     = errors.New("plan: no servers")
	ErrUnknownServer = errors.New("plan: server not in plan")
)

// New creates plan 0: the given server set (which also seeds the fallback
// ring), no channel mappings.
func New(servers ...ServerID) *Plan {
	return &Plan{
		Servers:     append([]ServerID(nil), servers...),
		RingServers: append([]ServerID(nil), servers...),
		Channels:    make(map[string]Entry),
	}
}

// Ring returns the consistent-hash fallback ring, built lazily and cached
// (plans are immutable once shared).
func (p *Plan) Ring() *hashring.Ring {
	p.ringOnce.Do(func() {
		members := p.RingServers
		if len(members) == 0 {
			members = p.Servers // legacy plans without a pinned ring
		}
		p.ring = hashring.New(0, members...)
	})
	return p.ring
}

// Lookup returns the channel's entry. Unmapped channels fall back to the
// single server chosen by consistent hashing; ok reports whether the entry
// came from an explicit mapping.
func (p *Plan) Lookup(channel string) (Entry, bool) {
	if e, ok := p.Channels[channel]; ok {
		return e.clone(), true
	}
	home := p.Ring().Lookup(channel)
	if home == "" {
		return Entry{}, false
	}
	return Entry{Strategy: StrategySingle, Servers: []ServerID{home}}, false
}

// Holds reports whether server s is among the channel's servers — Lookup's
// entry searched for s, without building the entry, for callers that ask on
// every publication. explicit is Lookup's ok.
func (p *Plan) Holds(channel string, s ServerID) (holds, explicit bool) {
	if e, ok := p.Channels[channel]; ok {
		for _, have := range e.Servers {
			if have == s {
				return true, true
			}
		}
		return false, true
	}
	home := p.Ring().Lookup(channel)
	return home != "" && home == s, false
}

// Home returns the channel's consistent-hash home server — the server whose
// dispatcher stays subscribed to the channel forever to catch misrouted
// traffic (§IV-A5). It is independent of any explicit mapping.
func (p *Plan) Home(channel string) ServerID {
	return p.Ring().Lookup(channel)
}

// PublishTargets returns the servers a publication for channel must be sent
// to. pick chooses an index in [0,n) for strategies that publish to a single
// replica; pass a seeded RNG's Intn. The returned slice must not be mutated.
func (p *Plan) PublishTargets(channel string, pick func(n int) int) []ServerID {
	e, _ := p.Lookup(channel)
	return PublishTargets(e, pick)
}

// SubscribeTargets returns the servers a subscriber of channel must
// subscribe on. clientKey makes the single-replica choice of the
// all-publishers scheme sticky per client.
func (p *Plan) SubscribeTargets(channel string, clientKey string) []ServerID {
	e, _ := p.Lookup(channel)
	return SubscribeTargets(e, channel, clientKey)
}

// PublishTargets resolves an entry to publication target servers.
func PublishTargets(e Entry, pick func(n int) int) []ServerID {
	switch {
	case len(e.Servers) == 0:
		return nil
	case len(e.Servers) == 1:
		return e.Servers[:1]
	case e.Strategy == StrategyAllPublishers:
		return e.Servers // publish to every replica
	default:
		// Single (defensively) and all-subscribers: one random replica.
		if pick == nil {
			return e.Servers[:1]
		}
		i := pick(len(e.Servers))
		return e.Servers[i : i+1]
	}
}

// SubscribeTargets resolves an entry to subscription target servers for a
// given client.
func SubscribeTargets(e Entry, channel, clientKey string) []ServerID {
	switch {
	case len(e.Servers) == 0:
		return nil
	case len(e.Servers) == 1:
		return e.Servers[:1]
	case e.Strategy == StrategyAllSubscribers:
		return e.Servers // subscribe everywhere
	default:
		// All-publishers (and defensive single): one sticky replica.
		i := stickyIndex(channel, clientKey, len(e.Servers))
		return e.Servers[i : i+1]
	}
}

// stickyIndex hashes (channel, clientKey) onto [0,n) so a client always picks
// the same replica while the entry is unchanged.
func stickyIndex(channel, clientKey string, n int) int {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(channel); i++ {
		h = (h ^ uint64(channel[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(clientKey); i++ {
		h = (h ^ uint64(clientKey[i])) * prime64
	}
	return int(h % uint64(n))
}

// Set installs an explicit mapping for a channel.
func (p *Plan) Set(channel string, e Entry) {
	if p.Channels == nil {
		p.Channels = make(map[string]Entry)
	}
	p.Channels[channel] = e.clone()
}

// Unset removes an explicit mapping (the channel reverts to hash fallback).
func (p *Plan) Unset(channel string) {
	delete(p.Channels, channel)
}

// Migrate reassigns a channel from one server to another (Algorithm 2 line
// 12). For unmapped channels an explicit single-server entry is first
// materialized from the fallback. For replicated channels, the `from`
// replica is replaced by `to`.
func (p *Plan) Migrate(channel string, from, to ServerID) error {
	e, explicit := p.Lookup(channel)
	if !explicit && len(e.Servers) == 0 {
		return ErrNoServers
	}
	found := false
	for i, s := range e.Servers {
		if s == from {
			e.Servers[i] = to
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: channel %q not on server %q", ErrUnknownServer, channel, from)
	}
	p.Set(channel, e)
	return nil
}

// AddServer adds a server to the plan's active set (idempotent). The
// fallback ring is NOT touched: under Dynamoth a new server only receives
// load through explicit migrations.
func (p *Plan) AddServer(s ServerID) {
	for _, have := range p.Servers {
		if have == s {
			return
		}
	}
	p.Servers = append(p.Servers, s)
}

// AddRingServer adds a server to both the active set and the fallback ring —
// the consistent-hashing baseline's spawn operation, which remaps 1/N of
// every channel.
func (p *Plan) AddRingServer(s ServerID) {
	p.AddServer(s)
	for _, have := range p.RingServers {
		if have == s {
			return
		}
	}
	p.RingServers = append(p.RingServers, s)
	p.invalidateRing()
}

// RemoveServer removes a server from the active set (and the ring, if it was
// a ring member). It is the caller's responsibility to migrate that server's
// channels away first.
func (p *Plan) RemoveServer(s ServerID) {
	kept := p.Servers[:0]
	for _, have := range p.Servers {
		if have != s {
			kept = append(kept, have)
		}
	}
	p.Servers = kept
	keptRing := p.RingServers[:0]
	changed := false
	for _, have := range p.RingServers {
		if have != s {
			keptRing = append(keptRing, have)
		} else {
			changed = true
		}
	}
	p.RingServers = keptRing
	if changed {
		p.invalidateRing()
	}
}

func (p *Plan) invalidateRing() {
	p.ringOnce = sync.Once{}
	p.ring = nil
}

// HasServer reports whether s is in the active server set.
func (p *Plan) HasServer(s ServerID) bool {
	for _, have := range p.Servers {
		if have == s {
			return true
		}
	}
	return false
}

// Clone returns a deep copy with the same version (the balancer bumps the
// version when publishing).
func (p *Plan) Clone() *Plan {
	c := &Plan{
		Version:     p.Version,
		Servers:     append([]ServerID(nil), p.Servers...),
		RingServers: append([]ServerID(nil), p.RingServers...),
		Channels:    make(map[string]Entry, len(p.Channels)),
	}
	for ch, e := range p.Channels {
		c.Channels[ch] = e.clone()
	}
	return c
}

// Change describes one channel whose server set differs between two plans.
type Change struct {
	Channel string
	Old     Entry
	New     Entry
}

// Diff returns the channels whose effective mapping changed from old to p,
// sorted by channel name. Channels only present in one plan's explicit map
// are compared against the other plan's fallback mapping, so a channel
// reverting to its hash home is not reported if nothing effectively moved.
func (p *Plan) Diff(old *Plan) []Change {
	names := make(map[string]struct{}, len(p.Channels)+len(old.Channels))
	for ch := range p.Channels {
		names[ch] = struct{}{}
	}
	for ch := range old.Channels {
		names[ch] = struct{}{}
	}
	var out []Change
	for ch := range names {
		oe, _ := old.Lookup(ch)
		ne, _ := p.Lookup(ch)
		if !entriesEqual(oe, ne) {
			out = append(out, Change{Channel: ch, Old: oe, New: ne})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
	return out
}

func entriesEqual(a, b Entry) bool {
	if a.Strategy != b.Strategy || len(a.Servers) != len(b.Servers) {
		return false
	}
	as := append([]ServerID(nil), a.Servers...)
	bs := append([]ServerID(nil), b.Servers...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Marshal encodes the plan as JSON for the control plane.
func (p *Plan) Marshal() ([]byte, error) {
	return json.Marshal(p)
}

// Unmarshal decodes a plan from JSON. It rejects an entry without a valid
// strategy or servers, and the empty server ID anywhere: a ring member ""
// would make Lookup answer "no server" for the slice of channels it owns.
func Unmarshal(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	if p.Channels == nil {
		p.Channels = make(map[string]Entry)
	}
	if slices.Contains(p.Servers, "") || slices.Contains(p.RingServers, "") {
		return nil, errors.New("plan: empty server ID")
	}
	for ch, e := range p.Channels {
		if !e.Strategy.Valid() || len(e.Servers) == 0 || slices.Contains(e.Servers, "") {
			return nil, fmt.Errorf("plan: invalid entry for channel %q", ch)
		}
	}
	return &p, nil
}

// String renders a short plan summary.
func (p *Plan) String() string {
	return fmt.Sprintf("plan{v%d servers=%d channels=%d}", p.Version, len(p.Servers), len(p.Channels))
}
