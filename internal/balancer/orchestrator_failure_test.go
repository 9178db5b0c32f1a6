package balancer

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// startDetectingOrchestrator runs an orchestrator with failure detection over
// a pub1+pub2 plan where "room" is explicitly mapped to pub2, linked through
// d. It returns the plans pushed to pub1.
func startDetectingOrchestrator(t *testing.T, opts OrchestratorOptions, d *fakeDialer) (*Orchestrator, func() []*plan.Plan) {
	t.Helper()
	initial := plan.New("pub1", "pub2")
	initial.Version = 1
	initial.Set("room", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"pub2"}})
	var mu sync.Mutex
	var published []*plan.Plan
	d.onPush = func(id plan.ServerID, p *plan.Plan) {
		if id == "pub1" {
			mu.Lock()
			published = append(published, p)
			mu.Unlock()
		}
	}
	opts.Planner = &scriptedPlanner{}
	opts.Config = DefaultConfig()
	opts.Config.TWait = time.Hour // prove repair is exempt from the throttle
	opts.Initial = initial
	opts.Dialer = d
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	o, err := NewOrchestrator(opts)
	if err != nil {
		t.Fatal(err)
	}
	go o.Run()
	t.Cleanup(o.Stop)
	return o, func() []*plan.Plan {
		mu.Lock()
		defer mu.Unlock()
		return append([]*plan.Plan(nil), published...)
	}
}

func TestOrchestratorProbeFailureRepairsPlan(t *testing.T) {
	var deadMu sync.Mutex
	var fenced []plan.ServerID
	d := newFakeDialer()
	d.probe = func(id plan.ServerID) error {
		if id == "pub2" {
			return errors.New("connection refused")
		}
		return nil
	}
	linkOpen := false // pub2's link still open when OnServerDead ran
	o, published := startDetectingOrchestrator(t, OrchestratorOptions{
		Detect:        &lla.DetectorConfig{StaleAfter: time.Hour, ProbeMisses: 3},
		ProbeInterval: 5 * time.Millisecond,
		OnServerDead: func(id plan.ServerID) {
			deadMu.Lock()
			fenced = append(fenced, id)
			linkOpen = !d.conn(id).isClosed()
			deadMu.Unlock()
		},
	}, d)

	waitFor(t, "failure repair", func() bool { return o.Failures() == 1 })
	p := o.Plan()
	if p.HasServer("pub2") {
		t.Fatalf("dead server still in plan: %v", p.Servers)
	}
	if e, _ := p.Lookup("room"); len(e.Servers) != 1 || e.Servers[0] != "pub1" {
		t.Fatalf("room not evacuated: %+v", e)
	}
	waitFor(t, "repaired plan published despite T_wait", func() bool { return len(published()) >= 1 })
	if got := published()[0]; got.Version != 2 || got.HasServer("pub2") {
		t.Fatalf("published plan: v%d servers=%v", got.Version, got.Servers)
	}
	deadMu.Lock()
	defer deadMu.Unlock()
	if len(fenced) != 1 || fenced[0] != "pub2" {
		t.Fatalf("fenced=%v", fenced)
	}
	if linkOpen {
		t.Fatal("pub2's link was still open when OnServerDead ran")
	}
	// The repaired plan reached the survivor only.
	for _, e := range d.events() {
		if strings.HasPrefix(e, "push pub2") {
			t.Fatalf("dead server got a plan push: %q", d.events())
		}
	}
	// The healthy server must not be collateral damage.
	if o.Failures() != 1 {
		t.Fatalf("failures=%d", o.Failures())
	}
}

func TestOrchestratorReplacesFailedServer(t *testing.T) {
	cloud := &fakeCloud{}
	d := newFakeDialer()
	d.probe = func(id plan.ServerID) error {
		if id == "pub2" {
			return errors.New("down")
		}
		return nil
	}
	o, _ := startDetectingOrchestrator(t, OrchestratorOptions{
		Detect:        &lla.DetectorConfig{StaleAfter: time.Hour, ProbeMisses: 2},
		ProbeInterval: 5 * time.Millisecond,
		Cloud:         cloud,
		ReplaceFailed: true,
	}, d)
	waitFor(t, "replacement spawn", func() bool {
		s, _ := cloud.counts()
		return s == 1 && o.Plan().HasServer("new1")
	})
	if o.Plan().HasServer("pub2") {
		t.Fatal("dead server resurrected")
	}
}
