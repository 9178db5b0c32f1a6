package balancer

import (
	"time"

	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// Core is the load-balancer loop of §III-B as a single-threaded state
// machine: LLA reports, probe outcomes and the current time go in; plans to
// publish, spawn and release requests, and failure repairs come out. It
// starts no goroutine and reads no clock, so the live Orchestrator and the
// simulator drive the same decisions.
//
// One T_wait rule holds: every plan change (a planning round, a server join,
// a repair) restarts T_wait, and only a repair may skip it, because during a
// failure recovery latency, not plan churn, dominates tail latency.
//
// Core is not safe for concurrent use.
type Core struct {
	planner  PlanGenerator
	twait    time.Duration
	state    *State
	detector *lla.Detector // nil when failure detection is off

	current    *plan.Plan
	lastPlan   time.Time // last plan change; zero before the first
	spawning   bool      // a server is booting
	rebalances int       // plan changes: rounds that acted, joins, repairs
	failures   int       // servers declared dead and evacuated
}

// NewCore creates a core that plans with planner from initial, "plan 0",
// which every component boots with and so is never published. detect
// enables failure detection; nil disables it, and then Track, ObserveProbe
// and Detect must not be called.
func NewCore(planner PlanGenerator, cfg Config, initial *plan.Plan, detect *lla.DetectorConfig) *Core {
	c := &Core{planner: planner, twait: cfg.TWait, state: NewState(cfg.Window), current: initial}
	if detect != nil {
		c.detector = lla.NewDetector(*detect)
	}
	return c
}

// Round is what one planning round decided.
type Round struct {
	Decision
	// Version is the plan version after the round.
	Version uint64
	// Loads is what the planner saw: every plan server that has reported.
	Loads []ServerLoad
	// StartSpawn asks the caller to boot a server and to report the outcome
	// through Joined or SpawnFailed. Spawn decisions coalesce: it stays
	// false while another boot is in flight.
	StartSpawn bool
	// SinceLast is the time since the previous plan change (0 for the first).
	SinceLast time.Duration
}

// Repair is one server the detector declared dead and the core evacuated.
type Repair struct {
	Server plan.ServerID
	// Plan is the repaired plan, to be published.
	Plan *plan.Plan
	// Misses and Staleness are the verdict's evidence: consecutive failed
	// probes and the report silence at the verdict.
	Misses    int
	Staleness time.Duration
	// Evacuated counts the explicitly mapped channels that named the server.
	Evacuated int
}

// Plan returns the current plan.
func (c *Core) Plan() *plan.Plan { return c.current }

// Report folds one LLA report that arrived at now.
func (c *Core) Report(r *lla.Report, now time.Time) {
	c.state.AddReport(r)
	if c.detector != nil {
		c.detector.ObserveReport(r.Server, now)
	}
}

// Tick runs a planning round at now, unless T_wait has not passed since the
// last plan change. ok reports whether the round changed anything.
func (c *Core) Tick(now time.Time) (r Round, ok bool) {
	if !c.lastPlan.IsZero() && now.Sub(c.lastPlan) < c.twait {
		return Round{}, false
	}
	loads := c.loads()
	d := c.planner.GeneratePlan(c.current, loads)
	if !d.Changed() {
		return Round{}, false
	}
	r = Round{Decision: d, Loads: loads}
	if !c.lastPlan.IsZero() {
		r.SinceLast = now.Sub(c.lastPlan)
	}
	c.change(d.Plan, now)
	r.Version = c.current.Version
	if d.Spawn > 0 {
		r.StartSpawn = c.ReserveSpawn()
	}
	if d.Release != "" {
		c.forget(d.Release)
	}
	return r, true
}

// loads is the planner's input: the load state without servers that left
// the plan (a released server keeps reporting through its grace period). A
// plan server that has not reported yet is absent; the planner counts it
// idle at its default capacity.
func (c *Core) loads() []ServerLoad {
	loads := c.state.Snapshot()
	kept := loads[:0]
	for _, l := range loads {
		if c.current.HasServer(l.Server) {
			kept = append(kept, l)
		}
	}
	return kept
}

// ReserveSpawn claims the one spawn slot for a boot the caller starts, such
// as a failure replacement. It reports false while another boot is in
// flight. Joined or SpawnFailed frees the slot.
func (c *Core) ReserveSpawn() bool {
	if c.spawning {
		return false
	}
	c.spawning = true
	return true
}

// SpawnFailed frees the spawn slot after a boot failed.
func (c *Core) SpawnFailed() { c.spawning = false }

// Joined records that the booting server id is ready at now and returns the
// plan it joins, to be published. New servers join the fallback ring:
// clients hash unmapped channels over the active server set (§II-C),
// learning the membership lazily from switch and redirect notifications.
func (c *Core) Joined(id plan.ServerID, now time.Time) *plan.Plan {
	c.spawning = false
	next := c.current.Clone()
	next.Version = c.current.Version + 1
	next.AddRingServer(id)
	c.change(next, now)
	return next
}

// Install replaces the current plan with p at now, as an operator would;
// the simulator's micro-benchmarks configure replication this way (§V-C).
func (c *Core) Install(p *plan.Plan, now time.Time) {
	c.current = p
	c.lastPlan = now
}

// Track registers every plan server with the detector at now, so that a
// freshly joined server is not instantly stale, and returns them: the
// servers to probe.
func (c *Core) Track(now time.Time) []plan.ServerID {
	for _, s := range c.current.Servers {
		c.detector.Track(s, now)
	}
	return c.current.Servers
}

// ObserveProbe records one liveness probe outcome.
func (c *Core) ObserveProbe(id plan.ServerID, ok bool) { c.detector.ObserveProbe(id, ok) }

// Detect evaluates the detector at now and evacuates every server it
// declares dead, in name order, each repair with its own plan version.
// Repairs skip T_wait and restart it.
func (c *Core) Detect(now time.Time) []Repair {
	var out []Repair
	for _, st := range c.detector.Dead(now) {
		next, evacuated, changed := RepairPlan(c.current, st.Server)
		c.forget(st.Server)
		if !changed {
			continue
		}
		out = append(out, Repair{Server: st.Server, Plan: next, Misses: st.Misses, Staleness: now.Sub(st.LastReport), Evacuated: evacuated})
		c.change(next, now)
		c.failures++
	}
	return out
}

// change makes next the current plan (nil keeps it) as a plan change at now.
func (c *Core) change(next *plan.Plan, now time.Time) {
	if next != nil {
		c.current = next
	}
	c.lastPlan = now
	c.rebalances++
}

// forget drops a server that left the plan from the load state and the
// detector: a released server's silence is not a failure.
func (c *Core) forget(id plan.ServerID) {
	c.state.Forget(id)
	if c.detector != nil {
		c.detector.Forget(id)
	}
}
