package trace

import (
	"slices"
	"sort"
	"time"
)

// Phase is one named step of a rebalance timeline, aggregated over the
// events that make it up (e.g. one plan_push phase summarises every
// per-server push of that plan).
type Phase struct {
	// Name is the event kind name ("trigger", "plan_compute", ...).
	Name string `json:"name"`
	// Start and End bound the phase in unix nanoseconds. For span events the
	// recorded timestamp is the end and Value the duration, so Start is
	// derived backwards.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Count is the number of events aggregated into this phase.
	Count int `json:"count"`
	// Value sums the events' kind-specific values (duration ns for spans,
	// one per suppressed duplicate, load ratio for triggers).
	Value int64 `json:"value"`
	// Subjects lists the distinct servers/channels the events touched,
	// capped at phaseSubjectCap.
	Subjects []string `json:"subjects,omitempty"`
}

// phaseSubjectCap bounds per-phase subject lists so a thousand-channel
// migration doesn't balloon the /debug/rebalances document.
const phaseSubjectCap = 32

// Rebalance is a reconstructed reconfiguration timeline: every recorded
// phase of one plan generation, from trigger (or failure detection) through
// migration and the duplicates its overlap produced.
type Rebalance struct {
	// Plan is the plan version this rebalance installed.
	Plan uint64 `json:"plan"`
	// Kind classifies the rebalance: "rebalance" (load-driven), "repair"
	// (failure-driven), or "spawn" (scale-up boot).
	Kind string `json:"kind"`
	// Start and End bound the whole timeline (unix nanoseconds).
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Phases are ordered by start time.
	Phases []Phase `json:"phases"`
	// Suppressed counts the duplicates clients suppressed on channels this
	// rebalance migrated, up to the channel's next migration.
	Suppressed int64 `json:"suppressed"`
}

// Duration returns End-Start.
func (rb Rebalance) Duration() time.Duration { return time.Duration(rb.End - rb.Start) }

// Phase returns the named phase, or nil if the timeline lacks it.
func (rb Rebalance) Phase(name string) *Phase {
	for i := range rb.Phases {
		if rb.Phases[i].Name == name {
			return &rb.Phases[i]
		}
	}
	return nil
}

// eventBounds returns the [start,end] interval an event covers: span events
// end at their timestamp and start Value nanoseconds earlier; point events
// are instants.
func eventBounds(ev Event) (int64, int64) {
	if ev.Kind < kindCount && kinds[ev.Kind].span && ev.Value > 0 && ev.Value < ev.Time {
		return ev.Time - ev.Value, ev.Time
	}
	return ev.Time, ev.Time
}

// failurePath reports whether a version-less event belongs to the client
// failure path. Switch-driven migrations always carry the plan version of the
// SWITCH that caused them, so a version-less event of these kinds was born
// from a broken connection — part of a failure incident, not of whatever
// rebalance happened to precede it.
func failurePath(k Kind) bool {
	switch k {
	case KindDialFail, KindRedial, KindSubstitute, KindMigrate, KindReplay, KindReplayGap:
		return true
	}
	return false
}

// connLayer reports whether a kind belongs to the broker connection layer
// rather than the reconfiguration control loop.
func connLayer(k Kind) bool {
	switch k {
	case KindConnAccept, KindConnClose, KindBackpressure:
		return true
	}
	return false
}

// BuildTimelines reconstructs per-rebalance timelines from a recorder event
// stream, oldest first. Events carrying a plan version are grouped by it;
// version-less client events (migrations, redials, substitutions) are
// attributed to the most recent rebalance that started before them — except
// failure-path events, which attach forward to the next repair when one
// follows: clients fail over the moment a connection breaks, while the
// balancer's verdict lags a detection window behind, and the incident
// timeline must span both. A duplicate belongs to the rebalance that last
// migrated its channel: the overlap of that move produced it. Results are
// ordered by plan version.
func BuildTimelines(events []Event) []Rebalance {
	if len(events) == 0 {
		return nil
	}
	byPlan := make(map[uint64][]Event)
	var planStarts []struct {
		plan  uint64
		start int64
	}
	for _, ev := range events {
		if ev.Plan == 0 {
			continue
		}
		if _, seen := byPlan[ev.Plan]; !seen {
			start, _ := eventBounds(ev)
			planStarts = append(planStarts, struct {
				plan  uint64
				start int64
			}{ev.Plan, start})
		}
		byPlan[ev.Plan] = append(byPlan[ev.Plan], ev)
	}
	if len(byPlan) == 0 {
		return nil
	}
	sort.Slice(planStarts, func(i, j int) bool { return planStarts[i].start < planStarts[j].start })

	// Plans whose recorded events include a failure verdict or repair span.
	repairs := make(map[uint64]bool)
	for plan, evs := range byPlan {
		for _, ev := range evs {
			if ev.Kind == KindDetect || ev.Kind == KindRepair {
				repairs[plan] = true
				break
			}
		}
	}

	// Attribute plan-less events to the most recent rebalance started at or
	// before their own start time.
	attribute := func(t int64) uint64 {
		var plan uint64
		for _, ps := range planStarts {
			if ps.start <= t {
				plan = ps.plan
			} else {
				break
			}
		}
		if plan == 0 {
			plan = planStarts[0].plan // before the first trigger: fold into it
		}
		return plan
	}
	// nextRepair finds the earliest repair starting at or after t (0 = none).
	nextRepair := func(t int64) uint64 {
		for _, ps := range planStarts {
			if ps.start >= t && repairs[ps.plan] {
				return ps.plan
			}
		}
		return 0
	}
	// movedBy maps a channel to the rebalance its latest migration belongs to.
	movedBy := make(map[string]uint64)
	for _, ev := range events {
		if connLayer(ev.Kind) {
			// Connection-layer events (accepts, closes, backpressure) are
			// steady-state traffic, not reconfiguration steps; attributing
			// them to whatever rebalance happened to precede them would
			// pollute every timeline on a busy broker.
			continue
		}
		plan := ev.Plan
		if plan == 0 {
			start, _ := eventBounds(ev)
			if ev.Kind == KindDuplicate {
				plan = movedBy[ev.Subject]
			}
			if plan == 0 && failurePath(ev.Kind) {
				plan = nextRepair(start)
			}
			if plan == 0 {
				plan = attribute(start)
			}
			byPlan[plan] = append(byPlan[plan], ev)
		}
		if ev.Kind == KindMigrate {
			movedBy[ev.Subject] = plan
		}
	}

	out := make([]Rebalance, 0, len(byPlan))
	for plan, evs := range byPlan {
		out = append(out, buildOne(plan, evs))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Plan < out[j].Plan })
	return out
}

func buildOne(plan uint64, evs []Event) Rebalance {
	rb := Rebalance{Plan: plan, Kind: "rebalance"}
	phases := make(map[Kind]*Phase)
	var order []Kind
	for _, ev := range evs {
		switch ev.Kind {
		case KindDetect, KindRepair:
			rb.Kind = "repair"
		case KindSpawn:
			if rb.Kind == "rebalance" {
				rb.Kind = "spawn"
			}
		case KindDuplicate:
			rb.Suppressed += ev.Value
		}
		start, end := eventBounds(ev)
		if rb.Start == 0 || start < rb.Start {
			rb.Start = start
		}
		if end > rb.End {
			rb.End = end
		}
		ph, ok := phases[ev.Kind]
		if !ok {
			ph = &Phase{Name: ev.Kind.String(), Start: start, End: end}
			phases[ev.Kind] = ph
			order = append(order, ev.Kind)
		}
		if start < ph.Start {
			ph.Start = start
		}
		if end > ph.End {
			ph.End = end
		}
		ph.Count++
		ph.Value += ev.Value
		if ev.Subject != "" && len(ph.Subjects) < phaseSubjectCap && !slices.Contains(ph.Subjects, ev.Subject) {
			ph.Subjects = append(ph.Subjects, ev.Subject)
		}
	}
	rb.Phases = make([]Phase, 0, len(order))
	for _, k := range order {
		rb.Phases = append(rb.Phases, *phases[k])
	}
	sort.SliceStable(rb.Phases, func(i, j int) bool { return rb.Phases[i].Start < rb.Phases[j].Start })
	return rb
}

// Timelines is a convenience wrapper building timelines straight from the
// recorder's current ring contents.
func (r *Recorder) Timelines() []Rebalance {
	return BuildTimelines(r.Events(0))
}
