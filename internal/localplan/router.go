package localplan

import (
	"slices"
	"sort"
	"time"

	"github.com/dynamoth/dynamoth/internal/plan"
)

// standInWalk bounds the ring walk for a stand-in server: the first this many
// distinct ring successors of a channel are tried in order.
const standInWalk = 16

// Reach reports whether server can carry a channel's traffic now. target is
// the server the plan names; server differs from it when it stands in for an
// unreachable target. The live client dials here (and traces stand-ins); the
// simulator checks liveness.
type Reach func(server, target plan.ServerID) bool

// Router is a client's control plane over its local plan: the subscription
// table — each channel mapped to the servers it is actually subscribed on,
// the redirect inbox included — and every decision about where a
// subscription or publication goes. It holds no goroutine, lock, socket or
// clock: time and reachability come in as arguments, and the servers to
// subscribe on (before) and to leave (after) go out as results, so the live
// client and the simulator run the same routing. A Router is not safe for
// concurrent use; the Store under it is.
//
// The table records where a subscription is, not where the plan says it
// should be: a stand-in is remembered as the stand-in, so unsubscribing,
// losing it to a crash and re-homing all reach the server that holds it.
type Router struct {
	plan  *Store
	inbox string
	subs  map[string][]plan.ServerID
}

// NewRouter returns an empty table over p for the client whose redirect inbox
// is inbox (also its key for picking a sticky replica). The inbox becomes a
// subscription like any other once the caller subscribes it.
func NewRouter(p *Store, inbox string) *Router {
	return &Router{plan: p, inbox: inbox, subs: make(map[string][]plan.ServerID)}
}

// Servers returns the servers channel is subscribed on (read-only).
func (r *Router) Servers(channel string) ([]plan.ServerID, bool) {
	s, ok := r.subs[channel]
	return s, ok
}

// Channels returns every subscribed channel, the inbox included, sorted.
func (r *Router) Channels() []string {
	out := make([]string, 0, len(r.subs))
	for ch := range r.subs {
		out = append(out, ch)
	}
	sort.Strings(out)
	return out
}

// Subscribe places a new subscription on the channel's targets under the
// local plan (touching its entry timer), a stand-in for each unreachable one.
// It returns the servers to subscribe on: none when the channel is already
// subscribed or nothing is reachable, in which case nothing is recorded.
func (r *Router) Subscribe(channel string, now time.Time, reach Reach) []plan.ServerID {
	if _, dup := r.subs[channel]; dup {
		return nil
	}
	e, _ := r.plan.Lookup(channel, now)
	servers := r.place(channel, plan.SubscribeTargets(e, channel, r.inbox), reach)
	if len(servers) == 0 {
		return nil
	}
	r.subs[channel] = servers
	// §IV-A5 keeps a subscribed channel's route: it must survive capacity
	// eviction and the idle sweep too.
	r.plan.Pin(channel, true)
	return servers
}

// Unsubscribe drops channel from the table and returns the servers to leave.
func (r *Router) Unsubscribe(channel string) []plan.ServerID {
	servers := r.subs[channel]
	delete(r.subs, channel)
	r.plan.Pin(channel, false) // the route ages out normally from here
	return servers
}

// Publish resolves channel's publication targets (touching its entry timer)
// with the same stand-ins as a subscription. version is the plan version the
// routing rests on (0 for consistent hashing); pick chooses a replica.
func (r *Router) Publish(channel string, now time.Time, pick func(int) int, reach Reach) ([]plan.ServerID, uint64) {
	e, version := r.plan.Lookup(channel, now)
	return r.place(channel, plan.PublishTargets(e, pick), reach), version
}

// Learn installs a mapping from a SWITCH (move) or WRONG-SERVER notification;
// a stale version changes nothing. A SWITCH on a subscribed channel moves the
// subscription: moved reports it, add are the servers to subscribe on first
// and drop the ones to leave after (the overlap is the caller's to dedup). A
// WRONG-SERVER only teaches the route.
func (r *Router) Learn(channel string, e plan.Entry, version uint64, move bool, now time.Time, reach Reach) (add, drop []plan.ServerID, moved bool) {
	if !r.plan.Update(channel, e, version, now) {
		return nil, nil, false
	}
	if _, ok := r.subs[channel]; !ok {
		return nil, nil, false
	}
	r.plan.Pin(channel, true) // a fresh entry starts unpinned
	if !move {
		return nil, nil, false
	}
	placed, held, ok := r.replace(channel, reach)
	if !ok {
		return nil, nil, false // nothing reachable: the subscription stays put
	}
	return minus(placed, held), minus(held, placed), true
}

// Ring folds a ring membership carried by a control envelope into the
// fallback plan and, when it changed, re-homes the inbox: add then drop.
func (r *Router) Ring(servers []plan.ServerID, version uint64, reach Reach) (add, drop []plan.ServerID) {
	if !r.plan.UpdateRing(servers, version) {
		return nil, nil
	}
	placed, held, _ := r.replace(r.inbox, reach)
	return minus(placed, held), minus(held, placed)
}

// Lost returns, sorted, the subscriptions held on server: the ones to Repair
// after it failed or dropped the client.
func (r *Router) Lost(server plan.ServerID) []string {
	var out []string
	for ch, servers := range r.subs {
		if slices.Contains(servers, server) {
			out = append(out, ch)
		}
	}
	sort.Strings(out)
	return out
}

// Repair re-places a subscription from the plan as it stands (without
// touching the entry timer). add is the whole new placement — a server that
// survived the failure is asked again, so whatever it missed is resumed —
// and drop what the subscription no longer uses. Nothing changes when the
// channel is not subscribed or nothing is reachable; the caller retries.
func (r *Router) Repair(channel string, reach Reach) (add, drop []plan.ServerID) {
	placed, held, _ := r.replace(channel, reach)
	return placed, minus(held, placed)
}

// replace re-places a subscribed channel from its current entry and records
// the placement, returning it beside the one it replaced. ok is false, and
// nothing changes, when the channel is not subscribed or nothing is reachable.
func (r *Router) replace(channel string, reach Reach) (placed, held []plan.ServerID, ok bool) {
	held, ok = r.subs[channel]
	if !ok {
		return nil, nil, false
	}
	e, _, _ := r.plan.Peek(channel)
	placed = r.place(channel, plan.SubscribeTargets(e, channel, r.inbox), reach)
	if len(placed) == 0 {
		return nil, nil, false
	}
	r.subs[channel] = placed
	return placed, held, true
}

// place resolves targets to the servers that carry them: a reachable target
// itself, an unreachable one the first reachable of the channel's ring
// successors, no server twice. A stand-in's dispatcher redirects the client
// once the plan names live servers again (§IV "Initialization").
func (r *Router) place(channel string, targets []plan.ServerID, reach Reach) []plan.ServerID {
	out := make([]plan.ServerID, 0, len(targets))
	for _, t := range targets {
		if slices.Contains(out, t) {
			continue
		}
		if reach(t, t) {
			out = append(out, t)
			continue
		}
		for _, cand := range r.plan.Base().Ring().LookupN(channel, standInWalk) {
			if !slices.Contains(out, cand) && reach(cand, t) {
				out = append(out, cand)
				break
			}
		}
	}
	return out
}

// minus returns the servers in a that are not in b.
func minus(a, b []plan.ServerID) []plan.ServerID {
	var out []plan.ServerID
	for _, s := range a {
		if !slices.Contains(b, s) {
			out = append(out, s)
		}
	}
	return out
}
