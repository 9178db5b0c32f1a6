package balancer

import (
	"fmt"
	"strings"

	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// Decision is the outcome of one planning round.
type Decision struct {
	// Plan is the new plan to publish, or nil if the current plan stands.
	Plan *plan.Plan
	// Spawn is how many additional servers the planner wants rented from
	// the cloud (high-load with no spare capacity).
	Spawn int
	// Release names a server the new plan no longer uses; the orchestrator
	// should despawn it after a grace period.
	Release string
	// Reason is a human-readable summary for logs and experiment marks.
	Reason string
}

// Changed reports whether the decision does anything.
func (d Decision) Changed() bool {
	return d.Plan != nil || d.Spawn > 0 || d.Release != ""
}

// Planner generates plans from load snapshots. It is pure: no clocks, no
// I/O; both the live balancer and the simulator call it.
type Planner struct {
	cfg Config
	// isControl marks channels that must never be migrated or replicated
	// (the Dynamoth control plane rides on pinned channels).
	isControl func(string) bool
	// pinned marks servers that must never be released (the control-plane
	// home server).
	pinned func(string) bool
	// defaultMaxBps is the assumed capacity of servers that have not
	// reported yet.
	defaultMaxBps float64
	// cooldown maps a channel to the planning round that last moved it;
	// round counts GeneratePlan invocations. A freshly moved channel is
	// not moved again for cooldownRounds: right after a migration the
	// metric window still attributes its traffic to the old server, and
	// acting on that stale attribution makes channels ping-pong between
	// servers. (Rounds, not plan versions: a cooldown that only expires
	// on a version bump deadlocks when the blocked change is the only
	// pending one.)
	cooldown map[string]uint64
	round    uint64
}

// cooldownRounds is how many planning rounds a just-moved channel stays
// unmovable. While plans are being produced the planner runs once per
// T_wait, so 2 rounds ≈ two plan cycles (enough for the metric window to
// reflect the move); during quiet stretches it runs every tick, so an
// aborted change retries within seconds.
const cooldownRounds = 2

// NewPlanner creates a planner. isControl and pinned may be nil.
func NewPlanner(cfg Config, isControl func(string) bool, pinned func(string) bool, defaultMaxBps float64) *Planner {
	if defaultMaxBps <= 0 {
		defaultMaxBps = lla.DefaultMaxOutgoingBps
	}
	return &Planner{
		cfg:           cfg,
		isControl:     isControl,
		pinned:        pinned,
		defaultMaxBps: defaultMaxBps,
		cooldown:      make(map[string]uint64),
	}
}

// Config returns the planner's configuration.
func (pl *Planner) Config() Config { return pl.cfg }

// GeneratePlan runs one two-step rebalancing round (§III-B): channel-level
// replication decisions, then system-level high-load or low-load
// rebalancing. current is the active plan; loads the latest metric
// snapshot. The returned decision's plan (if any) carries version
// current.Version+1.
func (pl *Planner) GeneratePlan(current *plan.Plan, loads []ServerLoad) Decision {
	pl.round++
	next := current.Clone()
	est := newEstimator(loads, next.Servers, pl.defaultMaxBps)

	// A channel is untouchable if it is control-plane traffic or still in
	// its post-migration cooldown (metrics have not settled yet).
	skip := func(ch string) bool {
		if pl.isControl != nil && pl.isControl(ch) {
			return true
		}
		if moved, ok := pl.cooldown[ch]; ok {
			if pl.round < moved+cooldownRounds {
				return true
			}
			delete(pl.cooldown, ch)
		}
		return false
	}

	var reasons []string

	// Step 1: channel-level (micro) rebalancing.
	if replChanged := applyChannelLevel(pl.cfg, next, loads, est, skip); len(replChanged) > 0 {
		reasons = append(reasons, fmt.Sprintf("replication:%d", len(replChanged)))
	}

	// Step 2: system-level (macro) rebalancing.
	spawn := 0
	release := ""
	_, lrMax := est.maxRatio()
	switch {
	case lrMax >= pl.cfg.LRHigh:
		migrations, wantSpawn := highLoadRebalance(pl.cfg, next, est, skip)
		if migrations > 0 {
			reasons = append(reasons, fmt.Sprintf("high-load:%d moves", migrations))
		}
		if wantSpawn && len(next.Servers) < pl.cfg.MaxServers {
			spawn = 1
			reasons = append(reasons, "spawn:1")
		}
	default:
		var migrations int
		movable := func(ch string) bool { return !skip(ch) }
		release, migrations = lowLoadRebalance(pl.cfg, next, est, pl.isControl, movable, pl.pinned)
		if migrations > 0 {
			reasons = append(reasons, fmt.Sprintf("low-load:%d moves", migrations))
		}
		if release != "" {
			reasons = append(reasons, "release:"+release)
		}
	}

	d := Decision{Spawn: spawn, Release: release, Reason: strings.Join(reasons, " ")}
	if changes := next.Diff(current); len(changes) > 0 || len(next.Servers) != len(current.Servers) {
		next.Version = current.Version + 1
		for _, ch := range changes {
			pl.cooldown[ch.Channel] = pl.round
		}
		d.Plan = next
	}
	return d
}

// CHPlanner is the consistent-hashing baseline of Experiment 2 (§V-D):
// channels are mapped purely by the hash ring; when any server overloads, a
// new server is added to the ring, shedding 1/N of every server's
// identifiers irrespective of load. Servers are never released (the paper
// notes the baseline "has to spawn a new server every time a rebalancing
// occurs, which is not cost efficient").
type CHPlanner struct {
	cfg Config
}

// NewCHPlanner creates the baseline planner.
func NewCHPlanner(cfg Config) *CHPlanner { return &CHPlanner{cfg: cfg} }

// GeneratePlan adds one server to the ring when any server's measured load
// ratio exceeds LR_high. It never creates explicit channel mappings.
func (pl *CHPlanner) GeneratePlan(current *plan.Plan, loads []ServerLoad) Decision {
	overloaded := false
	for _, l := range loads {
		if l.Ratio() >= pl.cfg.LRHigh {
			overloaded = true
			break
		}
	}
	if !overloaded {
		return Decision{}
	}
	if len(current.Servers) >= pl.cfg.MaxServers {
		return Decision{Reason: "overloaded, at max servers"}
	}
	return Decision{Spawn: 1, Reason: "consistent-hashing: add server"}
}
