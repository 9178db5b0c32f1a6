package sim

import (
	"fmt"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/netsim"
	"github.com/dynamoth/dynamoth/internal/plan"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(epoch)
	var order []int
	e.At(epoch.Add(3*time.Second), func() { order = append(order, 3) })
	e.At(epoch.Add(1*time.Second), func() { order = append(order, 1) })
	e.At(epoch.Add(2*time.Second), func() { order = append(order, 2) })
	e.At(epoch.Add(1*time.Second), func() { order = append(order, 11) }) // same instant: FIFO
	n := e.RunUntil(epoch.Add(10 * time.Second))
	if n != 4 {
		t.Fatalf("executed %d events", n)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v", order)
		}
	}
	if !e.Now().Equal(epoch.Add(10 * time.Second)) {
		t.Fatalf("now=%v", e.Now())
	}
}

func TestEngineRunUntilPartial(t *testing.T) {
	e := NewEngine(epoch)
	ran := 0
	e.At(epoch.Add(time.Second), func() { ran++ })
	e.At(epoch.Add(time.Hour), func() { ran++ })
	e.RunUntil(epoch.Add(time.Minute))
	if ran != 1 || e.Pending() != 1 {
		t.Fatalf("ran=%d pending=%d", ran, e.Pending())
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(epoch)
	n := 0
	e.Every(time.Second, func() { n++ })
	e.RunUntil(epoch.Add(10 * time.Second))
	if n != 10 {
		t.Fatalf("ticks=%d", n)
	}
}

func TestEnginePastEventClamps(t *testing.T) {
	e := NewEngine(epoch)
	ran := false
	e.At(epoch.Add(-time.Hour), func() { ran = true })
	e.RunUntil(epoch)
	if !ran {
		t.Fatal("past event never ran")
	}
}

// fixedSim builds a sim with deterministic latency for exact assertions.
func fixedSim(t *testing.T, cfg Config) *Sim {
	t.Helper()
	if cfg.Path == nil {
		cfg.Path = &netsim.PathModel{WAN: netsim.Fixed(30 * time.Millisecond), LAN: time.Millisecond}
	}
	return New(cfg)
}

func TestSimSelfDeliveryRTT(t *testing.T) {
	s := fixedSim(t, Config{Mode: ModeNone, InitialServers: []string{"pub1"}})
	c := s.AddClient(100)
	var rtts []time.Duration
	c.OnData = func(_ string, _ *message.Envelope, sentAt time.Time) {
		rtts = append(rtts, s.Now().Sub(sentAt))
	}
	c.Subscribe("tile")
	s.RunFor(time.Second) // let the subscription land
	for i := 0; i < 5; i++ {
		c.PublishTimed("tile", 100)
		s.RunFor(time.Second)
	}
	if len(rtts) != 5 {
		t.Fatalf("self-deliveries=%d, want 5", len(rtts))
	}
	for _, rtt := range rtts {
		// 30ms up + 30ms down + service time; no queueing at this load.
		if rtt < 60*time.Millisecond || rtt > 70*time.Millisecond {
			t.Fatalf("unloaded RTT=%v, want ~60ms", rtt)
		}
	}
}

func TestSimKingLatencyAveragesLikeThePaper(t *testing.T) {
	s := New(Config{Mode: ModeNone, Seed: 7})
	c := s.AddClient(100)
	var total time.Duration
	count := 0
	c.OnData = func(_ string, _ *message.Envelope, sentAt time.Time) {
		total += s.Now().Sub(sentAt)
		count++
	}
	c.Subscribe("tile")
	s.RunFor(time.Second)
	for i := 0; i < 200; i++ {
		c.PublishTimed("tile", 100)
		s.RunFor(500 * time.Millisecond)
	}
	if count < 190 {
		t.Fatalf("deliveries=%d", count)
	}
	mean := total / time.Duration(count)
	// Paper Fig 5c steady state: ~75ms.
	if mean < 50*time.Millisecond || mean > 110*time.Millisecond {
		t.Fatalf("mean RTT=%v, want ~75ms", mean)
	}
}

func TestSimFanOutThroughEgress(t *testing.T) {
	s := fixedSim(t, Config{Mode: ModeNone})
	pub := s.AddClient(1)
	got := 0
	pub.OnData = func(string, *message.Envelope, time.Time) { got++ }
	pub.Subscribe("c")
	// Third-party subscribers: deliveries counted in link stats.
	for i := 2; i <= 11; i++ {
		s.AddClient(uint32(i)).Subscribe("c")
	}
	var lastOut int64
	s.OnUnit(func(u UnitSnapshot) { lastOut += u.OutMsgs })
	s.RunFor(time.Second)
	pub.PublishTimed("c", 100)
	s.RunFor(2 * time.Second)
	if got != 1 {
		t.Fatalf("self-deliveries=%d", got)
	}
	if lastOut != 11 {
		t.Fatalf("deliveries=%d, want 11 (publisher + 10 others)", lastOut)
	}
}

func TestSimEgressSaturationRaisesLatency(t *testing.T) {
	// Tiny capacity: 100 messages of ~140B at once serialize over seconds.
	s := fixedSim(t, Config{Mode: ModeNone, MaxOutgoingBps: 5000})
	c := s.AddClient(1)
	var last time.Duration
	c.OnData = func(_ string, _ *message.Envelope, sentAt time.Time) {
		last = s.Now().Sub(sentAt)
	}
	c.Subscribe("c")
	s.RunFor(time.Second)
	for i := 0; i < 50; i++ {
		c.PublishTimed("c", 100)
	}
	s.RunFor(10 * time.Second)
	// The last message queued behind 49 others of ~140 wire bytes at
	// 5000 B/s: > 1s of queueing delay.
	if last < 500*time.Millisecond {
		t.Fatalf("saturated RTT=%v, want queueing-dominated", last)
	}
}

func TestSimConnOverflowDropsAndRepairs(t *testing.T) {
	s := fixedSim(t, Config{
		Mode:            ModeNone,
		ConnDrainPerSec: 10,
		ConnQueueLimit:  5,
	})
	c := s.AddClient(1)
	c.Subscribe("c")
	s.RunFor(time.Second)
	for i := 0; i < 50; i++ {
		c.PublishTimed("c", 50)
	}
	s.RunFor(5 * time.Second)
	var snap UnitSnapshot
	s.OnUnit(func(u UnitSnapshot) { snap = u })
	s.RunFor(2 * time.Second)
	if snap.DroppedDeliveries == 0 {
		t.Fatal("no drops despite tiny connection buffer")
	}
}

func TestSimMigrationKeepsSelfDelivery(t *testing.T) {
	s := fixedSim(t, Config{Mode: ModeNone, InitialServers: []string{"pub1", "pub2"}})
	c := s.AddClient(42)
	received := 0
	c.OnData = func(string, *message.Envelope, time.Time) { received++ }
	c.Subscribe("game")
	s.RunFor(time.Second)

	// Publish a few, then migrate the channel, then publish more.
	for i := 0; i < 3; i++ {
		c.PublishTimed("game", 64)
		s.RunFor(time.Second)
	}
	from := s.plan.Home("game")
	to := "pub1"
	if from == "pub1" {
		to = "pub2"
	}
	next := s.plan.Clone()
	next.Version = 2
	next.Set("game", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{to}})
	s.SetPlan(next)
	for i := 0; i < 7; i++ {
		c.PublishTimed("game", 64)
		s.RunFor(time.Second)
	}
	if received != 10 {
		t.Fatalf("received %d of 10 across migration", received)
	}
	// The client converged onto the new server.
	if subs := s.servers[from].subs["game"]; len(subs) != 0 {
		t.Fatalf("client still subscribed on old server: %v", subs)
	}
}

func TestSimAllSubscribersReplication(t *testing.T) {
	s := fixedSim(t, Config{Mode: ModeNone, InitialServers: []string{"pub1", "pub2", "pub3"}})
	subC := s.AddClient(1)
	received := 0
	subC.OnData = func(string, *message.Envelope, time.Time) { received++ }
	subC.Subscribe("hot")
	pubs := make([]*Client, 5)
	for i := range pubs {
		pubs[i] = s.AddClient(uint32(10 + i))
	}
	s.RunFor(time.Second)

	next := s.plan.Clone()
	next.Version = 2
	next.Set("hot", plan.Entry{Strategy: plan.StrategyAllSubscribers, Servers: []plan.ServerID{"pub1", "pub2", "pub3"}})
	s.SetPlan(next)

	const rounds = 20
	for i := 0; i < rounds; i++ {
		for _, p := range pubs {
			p.PublishTimed("hot", 64)
		}
		s.RunFor(500 * time.Millisecond)
	}
	s.RunFor(2 * time.Second)
	// wait: OnData only fires for self-deliveries; subC publishes nothing.
	// Verify instead that the subscriber converged onto all three replicas.
	total := 0
	for _, id := range []string{"pub1", "pub2", "pub3"} {
		if _, ok := s.servers[id].subs["hot"][1]; ok {
			total++
		}
	}
	if total != 3 {
		t.Fatalf("subscriber on %d replicas, want 3", total)
	}
	// And the publishers learned the replicated entry: publications spread.
	spread := map[string]bool{}
	for _, id := range []string{"pub1", "pub2", "pub3"} {
		if s.servers[id].accum.Subscribers("hot") > 0 {
			spread[id] = true
		}
	}
	if len(spread) != 3 {
		t.Fatalf("replicas seeing traffic: %v", spread)
	}
	_ = received
}

func TestSimDynamothSpawnsUnderOverload(t *testing.T) {
	s := New(Config{
		Seed:           3,
		Mode:           ModeDynamoth,
		MaxOutgoingBps: 50_000, // small capacity so a few clients overload it
		BootDelay:      5 * time.Second,
	})
	s.cfg.Balancer.TWait = 5 * time.Second

	// 20 clients all in one busy area across 4 channels.
	for i := 0; i < 20; i++ {
		c := s.AddClient(uint32(100 + i))
		c.Subscribe(fmt.Sprintf("room-%d", i%4))
	}
	// Publication pump: each client 5 msg/s.
	s.Engine().Every(200*time.Millisecond, func() {
		for i := 0; i < 20; i++ {
			if c := s.Client(uint32(100 + i)); c != nil {
				c.PublishTimed(fmt.Sprintf("room-%d", i%4), 100)
			}
		}
	})
	s.RunFor(120 * time.Second)
	if s.ActiveServers() < 2 {
		t.Fatalf("no spawn under overload: servers=%d rebalances=%+v", s.ActiveServers(), s.Rebalances())
	}
	if len(s.Rebalances()) == 0 {
		t.Fatal("no rebalances recorded")
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() (int64, int, uint64) {
		s := New(Config{Seed: 42, Mode: ModeDynamoth, MaxOutgoingBps: 80_000})
		var out int64
		s.OnUnit(func(u UnitSnapshot) { out += u.OutMsgs })
		for i := 0; i < 10; i++ {
			c := s.AddClient(uint32(10 + i))
			c.Subscribe(fmt.Sprintf("t-%d", i%3))
		}
		s.Engine().Every(250*time.Millisecond, func() {
			for i := 0; i < 10; i++ {
				if c := s.Client(uint32(10 + i)); c != nil {
					c.PublishTimed(fmt.Sprintf("t-%d", i%3), 80)
				}
			}
		})
		s.RunFor(60 * time.Second)
		return out, s.ActiveServers(), s.PlanVersion()
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

func TestSimClientChurn(t *testing.T) {
	s := fixedSim(t, Config{Mode: ModeNone})
	c := s.AddClient(5)
	c.Subscribe("a")
	s.RunFor(time.Second)
	if got := s.ClientCount(); got != 1 {
		t.Fatalf("clients=%d", got)
	}
	s.RemoveClient(5)
	s.RunFor(time.Second)
	if got := s.ClientCount(); got != 0 {
		t.Fatalf("clients after removal=%d", got)
	}
	// No lingering subscriptions on the server.
	for _, srv := range s.servers {
		if len(srv.subs["a"]) != 0 {
			t.Fatal("subscription leak after client removal")
		}
	}
}

// TestSimInboxFollowsItsStandIn crashes the server holding a client's
// redirect inbox, then the stand-in the inbox moved to: the inbox must move
// again, and a leaving client must unsubscribe it where it is, not at the
// dead home its ring still names.
func TestSimInboxFollowsItsStandIn(t *testing.T) {
	servers := []string{"pub1", "pub2", "pub3"}
	s := fixedSim(t, Config{Mode: ModeNone, InitialServers: servers})
	id := uint32(1)
	for plan.New(servers...).Home(plan.InboxChannel(id)) != "pub2" {
		id++
	}
	inbox := plan.InboxChannel(id)
	holders := func() []string {
		var out []string
		for _, sv := range s.serverIDs {
			if _, ok := s.servers[sv].subs[inbox][id]; ok {
				out = append(out, sv)
			}
		}
		return out
	}
	s.AddClient(id)
	s.RunFor(time.Second)

	s.killServer("pub2")
	s.RunFor(time.Second)
	standIn := holders()
	if len(standIn) != 1 {
		t.Fatalf("inbox held on %v after its home crashed, want one stand-in", standIn)
	}
	s.killServer(standIn[0])
	s.RunFor(time.Second)
	if got := holders(); len(got) != 1 {
		t.Fatalf("inbox held on %v after its stand-in %s crashed, want the last server", got, standIn[0])
	}

	s.RemoveClient(id)
	s.RunFor(time.Second)
	if got := holders(); len(got) != 0 {
		t.Fatalf("inbox still held on %v after the client left", got)
	}
}

func TestSimClientsSurviveServerRelease(t *testing.T) {
	// Scale up under load, stop the load, and verify that after the
	// balancer releases servers the surviving subscriptions still work.
	s := New(Config{
		Seed:           11,
		Mode:           ModeDynamoth,
		MaxOutgoingBps: 60_000,
		BootDelay:      5 * time.Second,
		ReleaseGrace:   5 * time.Second,
	})
	s.cfg.Balancer.TWait = 5 * time.Second

	clients := make([]*Client, 12)
	received := make([]int, len(clients))
	for i := range clients {
		clients[i] = s.AddClient(uint32(100 + i))
		idx := i
		clients[i].OnData = func(string, *message.Envelope, time.Time) { received[idx]++ }
		clients[i].Subscribe(fmt.Sprintf("room-%d", i%3))
	}
	pumping := true
	s.Engine().Every(100*time.Millisecond, func() {
		if !pumping {
			return
		}
		for i, c := range clients {
			c.PublishTimed(fmt.Sprintf("room-%d", i%3), 150)
		}
	})
	s.RunFor(90 * time.Second)
	if s.ActiveServers() < 2 {
		t.Fatalf("never scaled up: %d servers", s.ActiveServers())
	}
	peak := s.ActiveServers()
	// Quiet period: load drops, the balancer releases servers.
	pumping = false
	s.RunFor(120 * time.Second)
	// The pool must shrink below its peak (release cadence varies a little
	// run to run; reaching the exact minimum is not required within the
	// window).
	if s.ActiveServers() >= peak {
		t.Fatalf("never scaled back down: %d servers (peak %d)", s.ActiveServers(), peak)
	}
	// Traffic still flows after the releases: every client still receives
	// its own publications on its room.
	before := append([]int(nil), received...)
	pumping = true
	s.RunFor(10 * time.Second)
	for i := range clients {
		if received[i] <= before[i] {
			t.Fatalf("client %d stopped receiving after server release", i)
		}
	}
}

func TestSimConsistentHashingModeSpawns(t *testing.T) {
	s := New(Config{
		Seed:           21,
		Mode:           ModeConsistentHashing,
		MaxOutgoingBps: 40_000,
		BootDelay:      5 * time.Second,
	})
	s.cfg.Balancer.TWait = 5 * time.Second
	for i := 0; i < 16; i++ {
		c := s.AddClient(uint32(100 + i))
		c.Subscribe(fmt.Sprintf("t-%d", i%4))
	}
	s.Engine().Every(150*time.Millisecond, func() {
		for i := 0; i < 16; i++ {
			if c := s.Client(uint32(100 + i)); c != nil {
				c.PublishTimed(fmt.Sprintf("t-%d", i%4), 150)
			}
		}
	})
	s.RunFor(90 * time.Second)
	if s.ActiveServers() < 2 {
		t.Fatalf("CH mode never spawned: %d servers", s.ActiveServers())
	}
	// CH spawns grow the fallback ring: the new server must own part of it.
	p := s.CurrentPlan()
	if len(p.RingServers) != s.ActiveServers() {
		t.Fatalf("ring members=%d servers=%d", len(p.RingServers), s.ActiveServers())
	}
	// And CH never creates explicit channel mappings.
	for ch := range p.Channels {
		t.Fatalf("CH plan has explicit mapping for %q", ch)
	}
}
