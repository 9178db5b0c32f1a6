package balancer

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/plan"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeCloud is an instant CloudProvider recording spawns and releases.
type fakeCloud struct {
	mu       sync.Mutex
	spawned  int
	released []plan.ServerID
}

func (f *fakeCloud) Spawn(context.Context) (plan.ServerID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spawned++
	return fmt.Sprintf("new%d", f.spawned), nil
}

func (f *fakeCloud) Release(id plan.ServerID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.released = append(f.released, id)
	return nil
}

func (f *fakeCloud) counts() (int, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spawned, len(f.released)
}

// scriptedPlanner returns queued decisions, then no-ops, and records the
// loads of every call.
type scriptedPlanner struct {
	mu        sync.Mutex
	decisions []Decision
	seen      [][]ServerLoad
}

func (s *scriptedPlanner) GeneratePlan(current *plan.Plan, loads []ServerLoad) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen = append(s.seen, loads)
	if len(s.decisions) == 0 {
		return Decision{}
	}
	d := s.decisions[0]
	s.decisions = s.decisions[1:]
	if d.Plan != nil {
		d.Plan.Version = current.Version + 1
	}
	return d
}

// inputs returns the loads of every call so far.
func (s *scriptedPlanner) inputs() [][]ServerLoad {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]ServerLoad(nil), s.seen...)
}

// startOrchestrator runs an orchestrator over plan 0 = {pub1} and returns
// the callbacks it made, in order: "ready <id>" for OnServerReady and
// "publish v<version>" for PublishPlan.
func startOrchestrator(t *testing.T, planner PlanGenerator, cfg Config, cloud CloudProvider) (*Orchestrator, chan *lla.Report, func() []string) {
	t.Helper()
	reports := make(chan *lla.Report, 16)
	initial := plan.New("pub1")
	initial.Version = 1
	var mu sync.Mutex
	var events []string
	event := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	o := NewOrchestrator(OrchestratorOptions{
		Planner:       planner,
		Config:        cfg,
		Initial:       initial,
		Reports:       reports,
		PublishPlan:   func(p *plan.Plan) { event(fmt.Sprintf("publish v%d", p.Version)) },
		OnServerReady: func(id plan.ServerID) { event("ready " + id) },
		Cloud:         cloud,
		Clock:         clock.NewReal(),
		ReleaseGrace:  50 * time.Millisecond,
	})
	go o.Run()
	t.Cleanup(o.Stop)
	return o, reports, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), events...)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestOrchestratorPublishesPlans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TWait = time.Millisecond
	next := plan.New("pub1")
	next.Set("c", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"pub1"}})
	planner := &scriptedPlanner{decisions: []Decision{{Plan: next}}}
	o, _, events := startOrchestrator(t, planner, cfg, nil)

	waitFor(t, "plan publication", func() bool { return len(events()) == 1 })
	if got := events(); got[0] != "publish v2" {
		t.Fatalf("callbacks %v, want [publish v2]", got)
	}
	if o.Plan().Version != 2 {
		t.Fatalf("current plan version %d", o.Plan().Version)
	}
	if o.Rebalances() != 1 {
		t.Fatalf("rebalances=%d", o.Rebalances())
	}
}

func TestOrchestratorSpawnAddsRingServer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TWait = time.Millisecond
	cloud := &fakeCloud{}
	planner := &scriptedPlanner{decisions: []Decision{{Spawn: 1}}}
	o, _, events := startOrchestrator(t, planner, cfg, cloud)

	waitFor(t, "post-spawn plan", func() bool { return len(events()) == 2 })
	// The node is started before the plan that names it goes out.
	if got := events(); got[0] != "ready new1" || got[1] != "publish v2" {
		t.Fatalf("callbacks %v, want [ready new1, publish v2]", got)
	}
	p := o.Plan()
	if !p.HasServer("new1") {
		t.Fatalf("spawned server not in plan: %v", p.Servers)
	}
	// Spawned servers join the fallback ring (clients hash over them).
	found := false
	for _, s := range p.RingServers {
		if s == "new1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("spawned server not in ring: %v", p.RingServers)
	}
}

func TestOrchestratorReleaseAfterGrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TWait = time.Millisecond
	cloud := &fakeCloud{}
	next := plan.New("pub1") // pub2 removed
	planner := &scriptedPlanner{decisions: []Decision{{Plan: next, Release: "pub2"}}}
	startOrchestrator(t, planner, cfg, cloud)

	waitFor(t, "release", func() bool { _, r := cloud.counts(); return r == 1 })
	cloud.mu.Lock()
	defer cloud.mu.Unlock()
	if cloud.released[0] != "pub2" {
		t.Fatalf("released %v", cloud.released)
	}
}

func TestOrchestratorFoldsReports(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TWait = time.Millisecond
	planner := &scriptedPlanner{}
	_, reports, _ := startOrchestrator(t, planner, cfg, nil)

	reports <- &lla.Report{Server: "pub1", Seq: 1, MaxOutgoingBps: 1000, MeasuredOutgoingBps: 700}
	waitFor(t, "report folded into planning input", func() bool {
		in := planner.inputs()
		if len(in) == 0 {
			return false
		}
		loads := in[len(in)-1]
		return len(loads) == 1 && loads[0].Server == "pub1" && loads[0].Ratio() == 0.7
	})
}

func TestOrchestratorStopIdempotent(t *testing.T) {
	cfg := DefaultConfig()
	planner := &scriptedPlanner{}
	o, _, _ := startOrchestrator(t, planner, cfg, nil)
	o.Stop()
	o.Stop()
}
