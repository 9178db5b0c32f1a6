// Package dispatcher implements the reconfiguration engine of the paper
// (§IV): the per-node agent that makes plan changes invisible to clients by
// forwarding publications between the old and new servers of a migrated
// channel, emitting <switch> notifications to lagging subscribers, and
// redirecting publishers that used an outdated server.
//
// The decision logic lives in Core, a pure state machine fed with local
// broker events (publications, subscriptions, plan updates, drain
// notifications, ticks) that returns the actions to perform. The live
// Dispatcher in this package and the discrete-event simulator both drive a
// Core, so reconfiguration behaves identically in both modes.
package dispatcher

import (
	"slices"
	"sort"
	"time"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// ActionKind discriminates dispatcher actions.
type ActionKind uint8

// Action kinds.
const (
	// ActionPublishLocal publishes Env on Channel on the local broker
	// (switch notifications to local subscribers).
	ActionPublishLocal ActionKind = iota + 1
	// ActionForward publishes Env on Channel on the remote Server
	// (publication forwarding during reconfiguration, drain and redirect
	// notifications).
	ActionForward
)

// Action is one side effect requested by the Core.
type Action struct {
	Kind    ActionKind
	Server  plan.ServerID // ActionForward: destination server
	Channel string
	Env     *message.Envelope
}

// DefaultDrainTimeout bounds how long a transition (and its forwarding) can
// live; it mirrors the client-side plan entry timeout of §IV-A5, after which
// no client can still hold the outdated mapping.
const DefaultDrainTimeout = 30 * time.Second

// transition tracks one channel that changed holders in a recent plan.
type transition struct {
	version uint64
	// draining maps each old server that may still have subscribers to
	// whether we're awaiting its drain notification.
	draining map[plan.ServerID]struct{}
	// selfOld marks that this node was a holder in the old plan but is not
	// in the new one (we owe the new holders a Drained notification).
	selfOld  bool
	deadline time.Time
}

// Core is the dispatcher decision engine for one node.
type Core struct {
	self         plan.ServerID
	node         uint32 // numeric node ID for envelope origins
	gen          *message.Generator
	plan         *plan.Plan
	transitions  map[string]*transition
	drainTimeout time.Duration
	// switchSent remembers, per channel, the highest plan version a switch
	// notification was already published locally for, and switchAt the last
	// emission time. Together they rate-limit re-announcements: the first
	// stale publication or misplaced subscription after a plan change
	// triggers a switch immediately (§IV-A2), later ones at most once per
	// SwitchReannounce — without this, N clients subscribing to a wrong or
	// replicated channel would broadcast N switches to up to N subscribers
	// each (an O(N²) flood).
	switchSent map[string]uint64
	switchAt   map[string]time.Time
}

// SwitchReannounce is the minimum interval between repeated switch
// notifications for one channel within one plan version.
const SwitchReannounce = time.Second

// NewCore creates a dispatcher core for server self with the given numeric
// node ID (used to stamp control envelopes) and initial plan.
func NewCore(self plan.ServerID, node uint32, initial *plan.Plan, drainTimeout time.Duration) *Core {
	if drainTimeout <= 0 {
		drainTimeout = DefaultDrainTimeout
	}
	return &Core{
		self:         self,
		node:         node,
		gen:          message.NewGenerator(node),
		plan:         initial,
		transitions:  make(map[string]*transition),
		drainTimeout: drainTimeout,
		switchSent:   make(map[string]uint64),
		switchAt:     make(map[string]time.Time),
	}
}

// Plan returns the core's current plan.
func (c *Core) Plan() *plan.Plan { return c.plan }

// Self returns the server this core runs on.
func (c *Core) Self() plan.ServerID { return c.self }

// OnPlan installs a new plan and opens transitions for every channel whose
// holder set changed and involves this node (§IV-A1: the dispatchers of both
// the old and the new server subscribe to the channel — in this
// implementation, start intercepting it). now is used for drain deadlines.
// Stale plans (version <= current) are ignored.
func (c *Core) OnPlan(p *plan.Plan, now time.Time) []Action {
	if p.Version <= c.plan.Version {
		return nil
	}
	changes := p.Diff(c.plan)
	c.plan = p
	for _, ch := range changes {
		if plan.IsControlChannel(ch.Channel) {
			continue
		}
		oldSet := serverSet(ch.Old.Servers)
		newSet := serverSet(ch.New.Servers)
		_, selfWasOld := oldSet[c.self]
		_, selfIsNew := newSet[c.self]
		if !selfWasOld && !selfIsNew {
			continue
		}
		tr := &transition{
			version:  p.Version,
			draining: make(map[plan.ServerID]struct{}),
			deadline: now.Add(c.drainTimeout),
			selfOld:  selfWasOld && !selfIsNew,
		}
		for s := range oldSet {
			if _, stays := newSet[s]; !stays && s != c.self {
				tr.draining[s] = struct{}{}
			}
		}
		c.transitions[ch.Channel] = tr
	}
	return nil
}

// OnLocalPublish reacts to a publication observed on the local broker. frame
// is the publication as encoded on the wire, borrowed for the call; localSubs
// is the channel's local subscriber count at delivery time. The decision
// reads the envelope header only; the rest is decoded when an action has to
// carry the publication on, so the steady state — right server, current
// mapping, nothing in transition — costs no decode and no allocation.
func (c *Core) OnLocalPublish(channel string, frame []byte, localSubs int, now time.Time) []Action {
	if plan.IsControlChannel(channel) {
		return nil
	}
	typ, version, node, ok := message.PeekRouting(frame)
	if !ok || (typ != message.TypeData && typ != message.TypeForwarded) {
		// Not Dynamoth traffic (a raw Redis client), or our own switch
		// messages and other control traffic: nothing to manage.
		return nil
	}
	isData := typ == message.TypeData
	selfIn, explicit := c.plan.Holds(channel, c.self)
	tr := c.transitions[channel]
	draining := isData && tr != nil && len(tr.draining) > 0
	// A data publication carrying an older plan version than ours came
	// from a client that has not yet learned the channel's current
	// mapping (clients stamp publications with their entry's version).
	stale := isData && explicit && version < c.plan.Version
	if selfIn && !draining && !stale {
		return nil
	}
	entry, _ := c.plan.Lookup(channel)

	var actions []Action
	// forward relays the publication to server s, decoding it from frame the
	// first time a relay is called for.
	var fwd *message.Envelope
	forward := func(s plan.ServerID) {
		if fwd == nil {
			env, err := message.Unmarshal(frame)
			if err != nil {
				return // header-only envelope: nothing to carry on
			}
			fwd = forwardedCopy(env, channel)
		}
		actions = append(actions, Action{Kind: ActionForward, Server: s, Channel: channel, Env: fwd})
	}

	if selfIn {
		if draining {
			// Correct server during a transition (§IV-A3, Fig 3b):
			// forward to old servers that still drain, so their lagging
			// subscribers miss nothing. Deterministic order for the
			// simulator's sake.
			targets := make([]plan.ServerID, 0, len(tr.draining))
			for s := range tr.draining {
				targets = append(targets, s)
			}
			sort.Strings(targets)
			for _, s := range targets {
				forward(s)
			}
		}
		if stale {
			// Lazy propagation to clients that still use an outdated
			// entry for a channel this server (still) holds — in
			// particular, replication coming into effect (§III-B1).
			if localSubs > 0 && c.switchAllowed(channel, now) {
				actions = append(actions, c.switchAction(channel, entry))
				c.markSwitch(channel, now)
			}
			if len(entry.Servers) > 1 {
				// The publisher does not know the replica set yet.
				if entry.Strategy == plan.StrategyAllPublishers {
					// Its publication must reach every replica (each one
					// serves a disjoint subscriber subset).
					for _, s := range entry.Servers {
						if s != c.self {
							forward(s)
						}
					}
				}
				if node != 0 && node != c.node {
					actions = append(actions, c.redirectAction(node, channel, entry))
				}
			}
		}
		return actions
	}

	// Wrong server: either we are the draining old holder (§IV-A2, Fig 3a)
	// or the publisher used a stale/bootstrap mapping ("Initialization").
	if localSubs > 0 && c.switchAllowed(channel, now) {
		actions = append(actions, c.switchAction(channel, entry))
		c.markSwitch(channel, now)
	}

	if isData {
		// Forward the original to the correct server(s) so no subscriber
		// misses it. All-publishers channels receive on every replica, so
		// forward to all; otherwise the first (deterministic) target
		// suffices since every target reaches all subscribers.
		for _, s := range plan.PublishTargets(entry, nil) {
			if s != c.self {
				forward(s)
			}
		}
		// Redirect the publisher so its next message goes to the right
		// place (§IV "Publishing on old server").
		if node != 0 && node != c.node {
			actions = append(actions, c.redirectAction(node, channel, entry))
		}
	}
	return actions
}

// Steady reports whether, until the plan changes, OnLocalPublish on channel
// acts only on a data publication stamped with an older plan version, and
// only if explicit (plan.Holds'): so for control channels, and for ones held
// here with no transition draining them — transitions open with a plan.
func (c *Core) Steady(channel string) (explicit, ok bool) {
	if plan.IsControlChannel(channel) {
		return false, true
	}
	selfIn, explicit := c.plan.Holds(channel, c.self)
	tr := c.transitions[channel]
	return explicit, selfIn && (tr == nil || len(tr.draining) == 0)
}

// OnLocalSubscribe reacts to a subscription on the local broker: a client
// subscribing to a channel this server no longer (or never) holds gets a
// switch notification (§IV-A4). Subscriptions to replicated channels are
// also announced, because the subscriber may not know the full replica set
// (under all-subscribers it must subscribe on every replica). Announcements
// are rate-limited per channel (see switchAllowed).
func (c *Core) OnLocalSubscribe(channel string, _ int, now time.Time) []Action {
	if plan.IsControlChannel(channel) {
		return nil
	}
	entry, _ := c.plan.Lookup(channel)
	if slices.Contains(entry.Servers, c.self) && len(entry.Servers) == 1 {
		return nil
	}
	if !c.switchAllowed(channel, now) {
		return nil
	}
	c.markSwitch(channel, now)
	return []Action{c.switchAction(channel, entry)}
}

// switchAllowed reports whether a switch notification may be emitted for
// channel now: immediately on the first occasion per plan version, then at
// most every SwitchReannounce.
func (c *Core) switchAllowed(channel string, now time.Time) bool {
	if c.switchSent[channel] < c.plan.Version {
		return true
	}
	return now.Sub(c.switchAt[channel]) >= SwitchReannounce
}

func (c *Core) markSwitch(channel string, now time.Time) {
	c.switchSent[channel] = c.plan.Version
	c.switchAt[channel] = now
}

// OnLocalUnsubscribe reacts to an unsubscription: when the last local
// subscriber of a draining channel leaves, notify the new holders that
// forwarding to this node can stop (§IV-A5).
func (c *Core) OnLocalUnsubscribe(channel string, localSubs int) []Action {
	if localSubs > 0 || plan.IsControlChannel(channel) {
		return nil
	}
	tr := c.transitions[channel]
	if tr == nil || !tr.selfOld {
		return nil
	}
	tr.selfOld = false
	entry, _ := c.plan.Lookup(channel)
	env := &message.Envelope{
		Type:        message.TypeDrained,
		ID:          c.gen.Next(),
		Channel:     channel,
		Servers:     []plan.ServerID{c.self},
		PlanVersion: tr.version,
	}
	var actions []Action
	for _, s := range entry.Servers {
		if s == c.self {
			continue
		}
		actions = append(actions, Action{
			Kind:    ActionForward,
			Server:  s,
			Channel: plan.DispatchChannel(s),
			Env:     env,
		})
	}
	if len(tr.draining) == 0 {
		delete(c.transitions, channel)
	}
	return actions
}

// OnDrained handles a drain notification from another dispatcher: server
// from has no subscribers left on channel, so stop forwarding to it.
func (c *Core) OnDrained(channel string, from plan.ServerID) {
	tr := c.transitions[channel]
	if tr == nil {
		return
	}
	delete(tr.draining, from)
	if len(tr.draining) == 0 && !tr.selfOld {
		delete(c.transitions, channel)
	}
}

// OnTick expires transitions whose drain timeout passed — by then no client
// can still hold the outdated mapping (§IV-A5's timer argument) — and prunes
// switch-gate entries from superseded plan versions (a newer plan may
// announce each channel once more).
func (c *Core) OnTick(now time.Time) {
	for ch, tr := range c.transitions {
		if now.After(tr.deadline) {
			delete(c.transitions, ch)
		}
	}
	for ch, v := range c.switchSent {
		if v < c.plan.Version {
			delete(c.switchSent, ch)
			delete(c.switchAt, ch)
		}
	}
}

// TransitionCount reports the number of open transitions (for tests and
// introspection).
func (c *Core) TransitionCount() int { return len(c.transitions) }

func (c *Core) switchAction(channel string, entry plan.Entry) Action {
	return Action{
		Kind:    ActionPublishLocal,
		Channel: channel,
		Env: &message.Envelope{
			Type:        message.TypeSwitch,
			ID:          c.gen.Next(),
			Channel:     channel,
			Servers:     entry.Servers,
			RingServers: c.plan.RingServers,
			Strategy:    uint8(entry.Strategy),
			PlanVersion: c.plan.Version,
		},
	}
}

func (c *Core) redirectAction(node uint32, channel string, entry plan.Entry) Action {
	inbox := plan.InboxChannel(node)
	home := c.plan.Home(inbox)
	env := &message.Envelope{
		Type:        message.TypeWrongServer,
		ID:          c.gen.Next(),
		Channel:     channel,
		Servers:     entry.Servers,
		RingServers: c.plan.RingServers,
		Strategy:    uint8(entry.Strategy),
		PlanVersion: c.plan.Version,
	}
	if home == c.self || home == "" {
		return Action{Kind: ActionPublishLocal, Channel: inbox, Env: env}
	}
	return Action{Kind: ActionForward, Server: home, Channel: inbox, Env: env}
}

// forwardedCopy clones env as a TypeForwarded envelope preserving the
// original message ID (client dedup keys on it).
func forwardedCopy(env *message.Envelope, channel string) *message.Envelope {
	return &message.Envelope{
		Type:        message.TypeForwarded,
		ID:          env.ID,
		Channel:     channel,
		Payload:     env.Payload,
		PlanVersion: env.PlanVersion,
	}
}

func serverSet(list []plan.ServerID) map[plan.ServerID]struct{} {
	m := make(map[plan.ServerID]struct{}, len(list))
	for _, s := range list {
		m[s] = struct{}{}
	}
	return m
}
