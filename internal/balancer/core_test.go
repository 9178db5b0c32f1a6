package balancer

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// The Core's decisions, driven with explicit times: no goroutines, no sleeps.

const tw = 10 * time.Second // T_wait in these tests

// newTestCore returns a core over plan 0 = {servers}, version 1, with "room"
// mapped to the last server, that detects failures after one missed probe or
// ten seconds of report silence.
func newTestCore(planner PlanGenerator, servers ...plan.ServerID) *Core {
	initial := plan.New(servers...)
	initial.Version = 1
	initial.Set("room", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{servers[len(servers)-1]}})
	cfg := DefaultConfig()
	cfg.TWait = tw
	return NewCore(planner, cfg, initial, &lla.DetectorConfig{StaleAfter: 10 * time.Second, ProbeMisses: 1})
}

// changes returns n decisions that each map one new channel.
func changes(n int) []Decision {
	out := make([]Decision, n)
	for i := range out {
		p := plan.New("pub1", "pub2", "pub3")
		p.Set(fmt.Sprintf("c%d", i), plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"pub1"}})
		out[i] = Decision{Plan: p, Reason: "test"}
	}
	return out
}

// fail makes the detector declare servers dead at their next verdict.
func fail(c *Core, now time.Time, servers ...plan.ServerID) {
	c.Track(now)
	for _, s := range servers {
		c.ObserveProbe(s, false)
	}
}

func TestCoreTWaitGatesPlans(t *testing.T) {
	planner := &scriptedPlanner{decisions: changes(3)}
	c := newTestCore(planner, "pub1", "pub2", "pub3")
	for _, step := range []struct {
		at      time.Duration
		planned bool
	}{
		{0, true}, // the first round needs no wait
		{tw - time.Nanosecond, false},
		{tw, true},
		{tw + time.Second, false},
		{2 * tw, true},
	} {
		calls := len(planner.inputs())
		r, ok := c.Tick(epoch.Add(step.at))
		if ran := len(planner.inputs()) > calls; ran != step.planned || ok != step.planned {
			t.Fatalf("tick at %v: planner ran=%t changed=%t, want %t", step.at, ran, ok, step.planned)
		}
		if ok && step.at > 0 && r.SinceLast != tw {
			t.Fatalf("tick at %v: SinceLast=%v, want %v", step.at, r.SinceLast, tw)
		}
	}
	if got := c.Plan().Version; got != 4 {
		t.Fatalf("plan version %d after three rounds, want 4", got)
	}
}

func TestCorePlanChangesRestartTWait(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(c *Core, now time.Time)
	}{
		{"planning round", func(c *Core, now time.Time) {
			if _, ok := c.Tick(now); !ok {
				t.Fatal("planning round changed nothing")
			}
		}},
		{"join", func(c *Core, now time.Time) { c.Joined("new1", now) }},
		{"repair", func(c *Core, now time.Time) {
			fail(c, now, "pub3")
			if len(c.Detect(now)) != 1 {
				t.Fatal("no repair")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			planner := &scriptedPlanner{decisions: changes(3)}
			c := newTestCore(planner, "pub1", "pub2", "pub3")
			c.Tick(epoch)
			tc.change(c, epoch.Add(tw))
			if _, ok := c.Tick(epoch.Add(2*tw - time.Nanosecond)); ok {
				t.Fatalf("planned within T_wait of the %s", tc.name)
			}
			if _, ok := c.Tick(epoch.Add(2 * tw)); !ok {
				t.Fatalf("no plan T_wait after the %s", tc.name)
			}
		})
	}
}

func TestCoreRepairSkipsTWait(t *testing.T) {
	c := newTestCore(&scriptedPlanner{decisions: changes(1)}, "pub1", "pub2", "pub3")
	c.Tick(epoch) // T_wait runs from here
	now := epoch.Add(time.Second)
	fail(c, now, "pub3", "pub2")
	repairs := c.Detect(now)
	// Servers that die together are repaired in name order, each with its
	// own plan version.
	if len(repairs) != 2 || repairs[0].Server != "pub2" || repairs[1].Server != "pub3" {
		t.Fatalf("repairs=%+v, want pub2 then pub3", repairs)
	}
	if repairs[0].Plan.Version != 3 || repairs[1].Plan.Version != 4 {
		t.Fatalf("repair versions %d, %d, want 3, 4", repairs[0].Plan.Version, repairs[1].Plan.Version)
	}
	if repairs[0].Misses != 1 {
		t.Fatalf("evidence: %+v", repairs[0])
	}
	if p := c.Plan(); p != repairs[1].Plan || p.HasServer("pub2") || p.HasServer("pub3") {
		t.Fatalf("current plan v%d servers=%v", p.Version, p.Servers)
	}
	if c.failures != 2 || c.rebalances != 3 {
		t.Fatalf("failures=%d rebalances=%d, want 2 and 3", c.failures, c.rebalances)
	}
	if st := c.detector.Status(); len(st) != 1 || st[0].Server != "pub1" {
		t.Fatalf("detector still tracks %+v", st)
	}
}

func TestCoreStalenessVerdict(t *testing.T) {
	c := newTestCore(&scriptedPlanner{}, "pub1", "pub2")
	c.Track(epoch)
	// No probes at all: only pub2's report silence gives it away.
	c.Report(&lla.Report{Server: "pub1", Seq: 1}, epoch.Add(8*time.Second))
	if repairs := c.Detect(epoch.Add(10 * time.Second)); len(repairs) != 0 {
		t.Fatalf("repaired before the staleness bound: %+v", repairs)
	}
	repairs := c.Detect(epoch.Add(11 * time.Second))
	if len(repairs) != 1 || repairs[0].Server != "pub2" || repairs[0].Staleness != 11*time.Second || repairs[0].Evacuated != 1 {
		t.Fatalf("repairs=%+v, want pub2 after 11 s of silence, room evacuated", repairs)
	}
	p := c.Plan()
	if p.HasServer("pub2") || !p.HasServer("pub1") {
		t.Fatalf("plan servers %v, want [pub1]", p.Servers)
	}
	if e, _ := p.Lookup("room"); len(e.Servers) != 1 || e.Servers[0] != "pub1" {
		t.Fatalf("room not evacuated: %+v", e)
	}
}

func TestCoreCoalescesSpawns(t *testing.T) {
	planner := &scriptedPlanner{decisions: []Decision{{Spawn: 1}, {Spawn: 1}, {Spawn: 1}}}
	c := newTestCore(planner, "pub1")
	if r, _ := c.Tick(epoch); !r.StartSpawn {
		t.Fatal("first spawn decision did not start a boot")
	}
	if r, ok := c.Tick(epoch.Add(tw)); !ok || r.StartSpawn {
		t.Fatalf("second spawn decision while booting: changed=%t start=%t, want a round that starts nothing", ok, r.StartSpawn)
	}
	if c.ReserveSpawn() {
		t.Fatal("replacement reserved while booting")
	}
	p := c.Joined("new1", epoch.Add(tw+time.Second))
	if p.Version != 2 || !p.HasServer("new1") || !slices.Contains(p.RingServers, "new1") || c.Plan() != p {
		t.Fatalf("joined plan v%d servers=%v ring=%v", p.Version, p.Servers, p.RingServers)
	}
	if r, _ := c.Tick(epoch.Add(2*tw + time.Second)); !r.StartSpawn {
		t.Fatal("spawn decision after the join did not start a boot")
	}
	c.SpawnFailed()
	if !c.ReserveSpawn() {
		t.Fatal("spawn slot still held after a failed boot")
	}
}

func TestCoreReleaseForgetsServer(t *testing.T) {
	planner := &scriptedPlanner{decisions: []Decision{{Plan: plan.New("pub1"), Release: "pub2"}}}
	c := newTestCore(planner, "pub1", "pub2")
	c.Track(epoch)
	c.Report(&lla.Report{Server: "pub2", Seq: 1}, epoch)
	r, ok := c.Tick(epoch)
	if !ok || r.Release != "pub2" || c.Plan().HasServer("pub2") {
		t.Fatalf("round=%+v, want pub2 released", r)
	}
	for _, l := range c.state.Snapshot() {
		if l.Server == "pub2" {
			t.Fatal("released server still in the load state")
		}
	}
	for _, st := range c.detector.Status() {
		if st.Server == "pub2" {
			t.Fatal("released server still tracked by the detector")
		}
	}
	// Its silence after the release is not a failure.
	c.Report(&lla.Report{Server: "pub1", Seq: 1}, epoch.Add(time.Hour))
	if repairs := c.Detect(epoch.Add(time.Hour)); len(repairs) != 0 {
		t.Fatalf("released server repaired: %+v", repairs)
	}
}

func TestCoreIgnoresReleasedServerReports(t *testing.T) {
	planner := &scriptedPlanner{decisions: []Decision{{Plan: plan.New("pub1"), Release: "pub2"}}}
	c := newTestCore(planner, "pub1", "pub2")
	c.Tick(epoch)
	// A released server keeps reporting through its grace period.
	c.Report(&lla.Report{Server: "pub1", Seq: 1, MaxOutgoingBps: 1000, MeasuredOutgoingBps: 100}, epoch.Add(time.Second))
	c.Report(&lla.Report{Server: "pub2", Seq: 1, MaxOutgoingBps: 1000, MeasuredOutgoingBps: 900}, epoch.Add(time.Second))
	c.Tick(epoch.Add(tw))
	in := planner.inputs()
	if loads := in[len(in)-1]; len(loads) != 1 || loads[0].Server != "pub1" {
		t.Fatalf("planner saw %+v, want pub1 only", loads)
	}
}
