package trace

import (
	"testing"
	"time"
)

func mkEvent(seq uint64, at time.Duration, k Kind, plan uint64, subject string, value, aux int64) Event {
	base := int64(1_700_000_000_000_000_000)
	return Event{
		Seq: seq, Time: base + int64(at), Kind: k,
		Plan: plan, Subject: subject, Value: value, Aux: aux,
	}
}

func TestTimelineSingleRebalance(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	events := []Event{
		mkEvent(1, ms(0), KindTrigger, 2, "", 1_800_000, 0),
		mkEvent(2, ms(1), KindLoad, 2, "pub1", 1_800_000, 900_000),
		mkEvent(3, ms(5), KindPlanCompute, 2, "", int64(ms(4)), 0),
		mkEvent(4, ms(8), KindPlanPush, 2, "pub1", int64(ms(2)), 0),
		mkEvent(5, ms(9), KindPlanPush, 2, "pub2", int64(ms(2)), 0),
		mkEvent(6, ms(10), KindSwitchSend, 2, "game", 0, 0),
		// Plan-less client events attributed by time window.
		mkEvent(7, ms(12), KindSwitchRecv, 0, "game", 0, 0),
		mkEvent(8, ms(13), KindMigrate, 0, "game", 1, 0),
		mkEvent(9, ms(14), KindDuplicate, 0, "game", 1, 0),
		mkEvent(10, ms(20), KindDuplicate, 0, "game", 1, 0),
		mkEvent(11, ms(40), KindDuplicate, 0, "game", 1, 0),
	}
	timelines := BuildTimelines(events)
	if len(timelines) != 1 {
		t.Fatalf("got %d timelines, want 1", len(timelines))
	}
	rb := timelines[0]
	if rb.Plan != 2 || rb.Kind != "rebalance" {
		t.Fatalf("timeline header mismatch: %+v", rb)
	}
	if rb.Suppressed != 3 {
		t.Fatalf("suppressed = %d, want 3", rb.Suppressed)
	}
	for _, phase := range []string{"trigger", "load", "plan_compute", "plan_push", "switch_send", "switch_recv", "migrate", "duplicate"} {
		if rb.Phase(phase) == nil {
			t.Fatalf("missing phase %q in %+v", phase, rb.Phases)
		}
	}
	if push := rb.Phase("plan_push"); push.Count != 2 || len(push.Subjects) != 2 {
		t.Fatalf("plan_push phase should aggregate both servers: %+v", push)
	}
	// Phases ordered by start; timeline bounds cover all events.
	for i := 1; i < len(rb.Phases); i++ {
		if rb.Phases[i].Start < rb.Phases[i-1].Start {
			t.Fatalf("phases out of order: %+v", rb.Phases)
		}
	}
	if rb.Start > rb.Phases[0].Start || rb.End < rb.Phases[len(rb.Phases)-1].End {
		t.Fatalf("timeline bounds [%d,%d] don't cover phases", rb.Start, rb.End)
	}
	// plan_compute is a span: its start is derived backwards from the duration.
	pc := rb.Phase("plan_compute")
	if pc.End-pc.Start != int64(ms(4)) {
		t.Fatalf("span phase width %v, want 4ms", time.Duration(pc.End-pc.Start))
	}
}

func TestTimelineRepairClassification(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	events := []Event{
		mkEvent(1, ms(0), KindDetect, 3, "pub2", 0, 0),
		mkEvent(2, ms(2), KindRepair, 3, "pub2", int64(ms(1)), 12),
		mkEvent(3, ms(3), KindPlanPush, 3, "pub1", int64(ms(1)), 0),
		mkEvent(4, ms(10), KindSubstitute, 0, "pub3", 0, 0),
		mkEvent(5, ms(11), KindRedial, 0, "pub3", 0, 0),
	}
	timelines := BuildTimelines(events)
	if len(timelines) != 1 {
		t.Fatalf("got %d timelines, want 1", len(timelines))
	}
	rb := timelines[0]
	if rb.Kind != "repair" {
		t.Fatalf("kind = %q, want repair", rb.Kind)
	}
	if rb.Phase("substitute") == nil || rb.Phase("redial") == nil {
		t.Fatalf("client failover events not attributed: %+v", rb.Phases)
	}
	if rep := rb.Phase("repair"); rep.Value != int64(ms(1)) {
		t.Fatalf("repair phase value %d, want duration", rep.Value)
	}
}

func TestTimelineMultiplePlansAttribution(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	events := []Event{
		mkEvent(1, ms(0), KindTrigger, 2, "", 0, 0),
		mkEvent(2, ms(5), KindMigrate, 0, "a", 1, 0), // belongs to plan 2
		mkEvent(3, ms(100), KindTrigger, 3, "", 0, 0),
		mkEvent(4, ms(105), KindMigrate, 0, "b", 1, 0), // belongs to plan 3
	}
	timelines := BuildTimelines(events)
	if len(timelines) != 2 {
		t.Fatalf("got %d timelines, want 2", len(timelines))
	}
	if m := timelines[0].Phase("migrate"); m == nil || m.Subjects[0] != "a" {
		t.Fatalf("plan 2 should own migration 'a': %+v", timelines[0].Phases)
	}
	if m := timelines[1].Phase("migrate"); m == nil || m.Subjects[0] != "b" {
		t.Fatalf("plan 3 should own migration 'b': %+v", timelines[1].Phases)
	}
}

// TestTimelineFailoverForwardAttribution covers the detection-lag window: a
// client fails over the instant its connection breaks, but the balancer's
// verdict (and the repair plan version) only exists a detection window later.
// Failure-path events recorded in that gap must attach forward to the repair,
// not backward to whatever rebalance happened to precede the crash.
func TestTimelineFailoverForwardAttribution(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	events := []Event{
		mkEvent(1, ms(0), KindTrigger, 2, "", 0, 0),
		// Ordinary plan-less client event: attributed backward as usual.
		mkEvent(2, ms(40), KindSwitchRecv, 0, "game", 0, 0),
		// The crash: failover precedes the verdict by the detection window.
		mkEvent(3, ms(50), KindDialFail, 0, "pub3", 0, 0),
		mkEvent(4, ms(51), KindSubstitute, 0, "pub2", 0, 0),
		mkEvent(5, ms(52), KindMigrate, 0, "game", 1, 0),
		mkEvent(6, ms(53), KindDuplicate, 0, "game", 1, 0),
		mkEvent(7, ms(54), KindDuplicate, 0, "game", 1, 0),
		mkEvent(8, ms(2050), KindDetect, 3, "pub3", 3, 0),
		mkEvent(9, ms(2052), KindRepair, 3, "pub3", int64(ms(1)), 1),
	}
	timelines := BuildTimelines(events)
	if len(timelines) != 2 {
		t.Fatalf("got %d timelines, want 2", len(timelines))
	}
	rebalance, repair := timelines[0], timelines[1]
	if repair.Kind != "repair" {
		t.Fatalf("plan 3 kind = %q, want repair", repair.Kind)
	}
	for _, phase := range []string{"dial_fail", "substitute", "migrate", "duplicate"} {
		if repair.Phase(phase) == nil {
			t.Errorf("repair missing forward-attributed %q phase: %+v", phase, repair.Phases)
		}
		if rebalance.Phase(phase) != nil {
			t.Errorf("plan 2 wrongly owns failure-path %q phase", phase)
		}
	}
	if rebalance.Phase("switch_recv") == nil {
		t.Errorf("non-failure plan-less event left plan 2: %+v", rebalance.Phases)
	}
	if repair.Suppressed != 2 {
		t.Errorf("repair suppressed = %d, want 2 (the failover's duplicates)", repair.Suppressed)
	}
	// The incident starts at the first failover, so detection lag is visible
	// as the gap between the timeline start and the detect phase.
	if repair.Start != events[2].Time {
		t.Errorf("repair start = %d, want first failover event %d", repair.Start, events[2].Time)
	}
}

// TestTimelineDuplicateFollowsItsChannelsMigration pins how a duplicate is
// attributed: to the rebalance that last migrated its channel, however late
// it arrives, and by time only when its channel never moved.
func TestTimelineDuplicateFollowsItsChannelsMigration(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	events := []Event{
		mkEvent(1, ms(0), KindTrigger, 2, "", 0, 0),
		mkEvent(2, ms(5), KindMigrate, 2, "a", 1, 0),
		mkEvent(3, ms(100), KindTrigger, 3, "", 0, 0),
		mkEvent(4, ms(105), KindMigrate, 3, "b", 1, 0),
		mkEvent(5, ms(110), KindDuplicate, 0, "a", 1, 0), // plan 2 moved a
		mkEvent(6, ms(111), KindDuplicate, 0, "b", 1, 0), // plan 3 moved b
		mkEvent(7, ms(112), KindDuplicate, 0, "c", 1, 0), // never moved: by time
		// A failover moves a again; the repair that follows owns it and the
		// duplicates after it.
		mkEvent(8, ms(200), KindMigrate, 0, "a", 1, 0),
		mkEvent(9, ms(201), KindDuplicate, 0, "a", 1, 0),
		mkEvent(10, ms(900), KindDetect, 4, "pub3", 3, 0),
	}
	want := map[uint64]int64{2: 1, 3: 2, 4: 1}
	timelines := BuildTimelines(events)
	if len(timelines) != len(want) {
		t.Fatalf("got %d timelines, want %d", len(timelines), len(want))
	}
	var total int64
	for _, rb := range timelines {
		if rb.Suppressed != want[rb.Plan] {
			t.Errorf("plan %d suppressed = %d, want %d", rb.Plan, rb.Suppressed, want[rb.Plan])
		}
		total += rb.Suppressed
	}
	if total != 4 {
		t.Errorf("timelines hold %d duplicates, want all 4", total)
	}
}

func TestTimelineEmptyAndPlanless(t *testing.T) {
	if tl := BuildTimelines(nil); tl != nil {
		t.Fatalf("nil events gave %v", tl)
	}
	// Only plan-less events: nothing to anchor on, no timelines.
	evs := []Event{mkEvent(1, 0, KindRedial, 0, "pub1", 0, 0)}
	if tl := BuildTimelines(evs); tl != nil {
		t.Fatalf("anchor-less events gave %v", tl)
	}
}

func TestTimelineExcludesConnLayer(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	events := []Event{
		mkEvent(1, ms(0), KindTrigger, 2, "", 0, 0),
		mkEvent(2, ms(5), KindPlanCompute, 2, "", int64(ms(4)), 0),
		// Steady-state connection churn after the rebalance started: must
		// not show up as rebalance phases.
		mkEvent(3, ms(6), KindConnAccept, 0, "10.0.0.1:5000", 0, 0),
		mkEvent(4, ms(7), KindBackpressure, 0, "10.0.0.1:5000", 1<<20, 0),
		mkEvent(5, ms(8), KindConnClose, 0, "10.0.0.1:5000", 0, 0),
	}
	timelines := BuildTimelines(events)
	if len(timelines) != 1 {
		t.Fatalf("got %d timelines, want 1", len(timelines))
	}
	for _, name := range []string{"conn_accept", "conn_close", "backpressure"} {
		if timelines[0].Phase(name) != nil {
			t.Fatalf("connection-layer phase %q leaked into timeline: %+v", name, timelines[0].Phases)
		}
	}
}
