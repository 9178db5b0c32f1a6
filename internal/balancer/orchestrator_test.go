package balancer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/transport"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeCloud is an instant CloudProvider recording spawns and releases.
type fakeCloud struct {
	mu       sync.Mutex
	spawned  int
	released []plan.ServerID
	onSpawn  func(plan.ServerID) // set by startOrchestrator
}

func (f *fakeCloud) Spawn(context.Context) (plan.ServerID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spawned++
	id := fmt.Sprintf("new%d", f.spawned)
	if f.onSpawn != nil {
		f.onSpawn(id)
	}
	return id, nil
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

// fakeDialer is an in-memory Dialer. Each Dial hands out a fakeConn, and
// every dial, subscription, close and plan push is logged in order as
// "dial <id>", "subscribe <id> <channel>", "close <id>" and
// "push <id> v<version> <servers>". A push that is not one TypePlan
// envelope on plan.PlanChannel is logged as "bad push <id>".
type fakeDialer struct {
	mu     sync.Mutex
	conns  map[plan.ServerID]*fakeConn
	log    []string
	refuse map[plan.ServerID]bool          // Dial fails
	probe  func(plan.ServerID) error       // nil: every probe succeeds
	onPush func(plan.ServerID, *plan.Plan) // called after a push is logged
}

func newFakeDialer() *fakeDialer {
	return &fakeDialer{conns: make(map[plan.ServerID]*fakeConn), refuse: make(map[plan.ServerID]bool)}
}

func (d *fakeDialer) Dial(id plan.ServerID, h transport.Handler) (transport.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.refuse[id] {
		return nil, transport.ErrUnknownServer
	}
	d.log = append(d.log, "dial "+id)
	c := &fakeConn{d: d, id: id, h: h}
	d.conns[id] = c
	return c, nil
}

func (d *fakeDialer) Probe(id plan.ServerID, _ time.Duration) error {
	if d.probe == nil {
		return nil
	}
	return d.probe(id)
}

// events returns the log so far.
func (d *fakeDialer) events() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.log...)
}

// conn returns the last conn dialed to id.
func (d *fakeDialer) conn(id plan.ServerID) *fakeConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[id]
}

// deliver hands payload to id's link as a publication on the report channel.
func (d *fakeDialer) deliver(id plan.ServerID, payload []byte) {
	d.conn(id).h.OnMessage(plan.ReportChannel, payload)
}

// report delivers r to id's link the way a node's LLA publishes it.
func (d *fakeDialer) report(id plan.ServerID, r *lla.Report) {
	data, err := r.Marshal()
	if err != nil {
		panic(err)
	}
	env := &message.Envelope{Type: message.TypeLoadReport, ID: message.ID{Node: 1, Seq: r.Seq}, Payload: data}
	d.deliver(id, env.Marshal())
}

type fakeConn struct {
	d      *fakeDialer
	id     plan.ServerID
	h      transport.Handler
	closed bool // under d.mu
}

func (c *fakeConn) Subscribe(channels ...string) error {
	c.d.mu.Lock()
	defer c.d.mu.Unlock()
	for _, ch := range channels {
		c.d.log = append(c.d.log, "subscribe "+c.id+" "+ch)
	}
	return nil
}

func (c *fakeConn) Unsubscribe(...string) error { return nil }

func (c *fakeConn) SubscribeCursor(string, message.Cursor, func(transport.ReplayResult, error)) error {
	return errors.ErrUnsupported
}

func (c *fakeConn) Publish(channel string, payload []byte) error {
	c.d.mu.Lock()
	if c.closed {
		c.d.mu.Unlock()
		return transport.ErrClosed
	}
	env, err := message.Unmarshal(payload)
	var p *plan.Plan
	if err == nil && channel == plan.PlanChannel && env.Type == message.TypePlan && env.Channel == plan.PlanChannel {
		p, err = plan.Unmarshal(env.Payload)
	}
	if p == nil || err != nil {
		c.d.log = append(c.d.log, "bad push "+c.id)
		c.d.mu.Unlock()
		return nil
	}
	c.d.log = append(c.d.log, fmt.Sprintf("push %s v%d %v", c.id, p.Version, p.Servers))
	onPush := c.d.onPush
	c.d.mu.Unlock()
	if onPush != nil {
		onPush(c.id, p)
	}
	return nil
}

func (c *fakeConn) Outstanding() int64 { return 0 }

func (c *fakeConn) Close() error {
	c.d.mu.Lock()
	defer c.d.mu.Unlock()
	if !c.closed {
		c.closed = true
		c.d.log = append(c.d.log, "close "+c.id)
	}
	return nil
}

func (c *fakeConn) isClosed() bool {
	c.d.mu.Lock()
	defer c.d.mu.Unlock()
	return c.closed
}

// startOrchestrator runs an orchestrator over plan 0 = {pub1} and returns
// what it did, in order: "spawn <id>" for a fakeCloud spawn and
// "publish v<version> <servers>" for each plan pushed to pub1.
func startOrchestrator(t *testing.T, planner PlanGenerator, cfg Config, cloud CloudProvider) (*Orchestrator, *fakeDialer, func() []string) {
	t.Helper()
	initial := plan.New("pub1")
	initial.Version = 1
	var mu sync.Mutex
	var events []string
	event := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	if fc, ok := cloud.(*fakeCloud); ok {
		fc.onSpawn = func(id plan.ServerID) { event("spawn " + id) }
	}
	d := newFakeDialer()
	d.onPush = func(id plan.ServerID, p *plan.Plan) {
		if id == "pub1" {
			event(fmt.Sprintf("publish v%d %v", p.Version, p.Servers))
		}
	}
	o, err := NewOrchestrator(OrchestratorOptions{
		Planner:      planner,
		Config:       cfg,
		Initial:      initial,
		Dialer:       d,
		Cloud:        cloud,
		Clock:        clock.NewReal(),
		ReleaseGrace: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go o.Run()
	t.Cleanup(o.Stop)
	return o, d, func() []string {
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
	if got := events(); got[0] != "publish v2 [pub1]" {
		t.Fatalf("events %v, want [publish v2 [pub1]]", got)
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
	// The node is spawned before the plan that names it goes out.
	if got := events(); got[0] != "spawn new1" || got[1] != "publish v2 [pub1 new1]" {
		t.Fatalf("events %v, want [spawn new1, publish v2 [pub1 new1]]", got)
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
	_, d, _ := startOrchestrator(t, planner, cfg, nil)

	d.report("pub1", &lla.Report{Server: "pub1", Seq: 1, MaxOutgoingBps: 1000, MeasuredOutgoingBps: 700})
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

// malformedReports are payloads a link must drop: bytes that are no
// envelope, an envelope of another type, report envelopes whose body does
// not decode or fails validation, and a valid report naming another server.
// Each carries a higher Seq than the good report sent after them, so one
// that got through would make State drop the good one as stale. They also
// seed FuzzOrchestratorLink.
var malformedReports = [][]byte{
	[]byte("not an envelope"),
	reportEnvelope(message.TypePlan, `{"server":"pub1","seq":9,"maxOutgoingBps":1000,"measuredOutgoingBps":900}`),
	reportEnvelope(message.TypeLoadReport, `{"server":`),
	reportEnvelope(message.TypeLoadReport, `{"server":"pub1","seq":9,"maxOutgoingBps":1000,"measuredOutgoingBps":-1}`),
	reportEnvelope(message.TypeLoadReport, `{"server":"pub2","seq":9,"maxOutgoingBps":1000,"measuredOutgoingBps":900}`),
}

func reportEnvelope(typ message.Type, body string) []byte {
	env := &message.Envelope{Type: typ, ID: message.ID{Node: 1, Seq: 1}, Payload: []byte(body)}
	return env.Marshal()
}

// TestOrchestratorIgnoresMalformedReports delivers every malformed report
// on pub1's link, then a good one: the planner sees only the good one, and
// pub2, which never reports on its own link, stays absent.
func TestOrchestratorIgnoresMalformedReports(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TWait = time.Millisecond
	planner := &scriptedPlanner{}
	initial := plan.New("pub1", "pub2")
	initial.Version = 1
	d := newFakeDialer()
	o, err := NewOrchestrator(OrchestratorOptions{Planner: planner, Config: cfg, Initial: initial, Dialer: d})
	if err != nil {
		t.Fatal(err)
	}
	go o.Run()
	t.Cleanup(o.Stop)

	for _, payload := range malformedReports {
		d.deliver("pub1", payload)
	}
	d.report("pub1", &lla.Report{Server: "pub1", Seq: 1, MaxOutgoingBps: 1000, MeasuredOutgoingBps: 700})

	waitFor(t, "the valid report folded into planning input", func() bool {
		in := planner.inputs()
		return len(in) > 0 && len(in[len(in)-1]) == 1 && in[len(in)-1][0].Ratio() == 0.7
	})
	for _, loads := range planner.inputs() {
		for _, l := range loads {
			if l.Server != "pub1" || l.Ratio() != 0.7 {
				t.Fatalf("planner saw %+v, which only a malformed report could carry", l)
			}
		}
	}
}

// FuzzOrchestratorLink feeds arbitrary bytes to a link's OnMessage: it never
// panics, and anything it queues came from a TypeLoadReport envelope whose
// body passes validation and names the link's own node.
func FuzzOrchestratorLink(f *testing.F) {
	for _, payload := range malformedReports {
		f.Add(payload)
	}
	f.Add(reportEnvelope(message.TypeLoadReport, `{"server":"pub1","seq":1,"maxOutgoingBps":1000,"measuredOutgoingBps":700}`))
	initial := plan.New("pub1")
	initial.Version = 1
	d := newFakeDialer()
	o, err := NewOrchestrator(OrchestratorOptions{Planner: &scriptedPlanner{}, Config: DefaultConfig(), Initial: initial, Dialer: d})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(o.closeLinks)
	f.Fuzz(func(t *testing.T, payload []byte) {
		d.deliver("pub1", append([]byte(nil), payload...))
		select {
		case r := <-o.reports:
			env, err := message.Unmarshal(payload)
			if err != nil || env.Type != message.TypeLoadReport {
				t.Fatalf("queued %+v from a payload that is no report envelope (%v)", r, err)
			}
			if _, err := lla.UnmarshalReport(env.Payload); err != nil {
				t.Fatalf("queued %+v from a report body that fails validation: %v", r, err)
			}
			if r.Server != "pub1" {
				t.Fatalf("pub1's link queued a report naming %q", r.Server)
			}
		default:
		}
	})
}

// TestOrchestratorPushesPlanToEveryLink: a plan goes to every linked server
// as one TypePlan envelope on plan.PlanChannel (fakeConn logs anything else
// as a bad push), after each link was dialed and subscribed to reports.
func TestOrchestratorPushesPlanToEveryLink(t *testing.T) {
	initial := plan.New("pub1", "pub2", "pub3")
	initial.Version = 1
	cfg := DefaultConfig()
	cfg.TWait = time.Millisecond
	next := initial.Clone()
	next.Set("c", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"pub2"}})
	d := newFakeDialer()
	o, err := NewOrchestrator(OrchestratorOptions{
		Planner: &scriptedPlanner{decisions: []Decision{{Plan: next}}},
		Config:  cfg,
		Initial: initial,
		Dialer:  d,
	})
	if err != nil {
		t.Fatal(err)
	}
	go o.Run()
	t.Cleanup(o.Stop)

	waitFor(t, "plan pushed to every server", func() bool { return o.Rebalances() == 1 && len(d.events()) == 9 })
	got := d.events()
	for _, id := range initial.Servers {
		want := []string{"dial " + id, "subscribe " + id + " " + plan.ReportChannel, "push " + id + " v2 [pub1 pub2 pub3]"}
		var seen []string
		for _, e := range got {
			if strings.Fields(e)[1] == id {
				seen = append(seen, e)
			}
		}
		if fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Fatalf("%s: events %q, want %q (all: %q)", id, seen, want, got)
		}
	}
}

// TestOrchestratorDialsSpawnedServerBeforePush: a spawned server is dialed
// and subscribed to reports before the plan naming it is pushed, so that
// plan reaches it too.
func TestOrchestratorDialsSpawnedServerBeforePush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TWait = time.Millisecond
	planner := &scriptedPlanner{decisions: []Decision{{Spawn: 1}}}
	_, d, _ := startOrchestrator(t, planner, cfg, &fakeCloud{})

	want := []string{
		"dial pub1", "subscribe pub1 " + plan.ReportChannel,
		"dial new1", "subscribe new1 " + plan.ReportChannel,
	}
	waitFor(t, "post-spawn plan on both servers", func() bool { return len(d.events()) == len(want)+2 })
	got := d.events()
	if fmt.Sprint(got[:len(want)]) != fmt.Sprint(want) {
		t.Fatalf("events %q, want %q then the two pushes", got, want)
	}
	pushes := got[len(want):]
	sort.Strings(pushes)
	if pushes[0] != "push new1 v2 [pub1 new1]" || pushes[1] != "push pub1 v2 [pub1 new1]" {
		t.Fatalf("pushes %q", pushes)
	}
}

// TestOrchestratorFailsOnUnreachableServer: a server of plan 0 that cannot
// be dialed fails construction, and the links already opened are closed.
func TestOrchestratorFailsOnUnreachableServer(t *testing.T) {
	initial := plan.New("pub1", "pub2")
	initial.Version = 1
	d := newFakeDialer()
	d.refuse["pub2"] = true
	_, err := NewOrchestrator(OrchestratorOptions{Planner: &scriptedPlanner{}, Config: DefaultConfig(), Initial: initial, Dialer: d})
	if err == nil || !strings.Contains(err.Error(), "pub2") {
		t.Fatalf("err=%v, want a dial error naming pub2", err)
	}
	if c := d.conn("pub1"); c == nil || !c.isClosed() {
		t.Fatal("pub1's link left open after a failed construction")
	}
}
