package dispatcher

import (
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func dataEnv(node uint32, seq uint64, channel string) *message.Envelope {
	return &message.Envelope{
		Type:    message.TypeData,
		ID:      message.ID{Node: node, Seq: seq},
		Channel: channel,
		Payload: []byte("payload"),
	}
}

// planV2 builds a v2 plan moving channel from s1 to s2 on a two-server base.
func planV2(channel string) (*plan.Plan, *plan.Plan) {
	p1 := plan.New("s1", "s2")
	p1.Version = 1
	p1.Set(channel, plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s1"}})
	p2 := p1.Clone()
	p2.Version = 2
	p2.Set(channel, plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s2"}})
	return p1, p2
}

func find(actions []Action, kind ActionKind, envType message.Type) []Action {
	var out []Action
	for _, a := range actions {
		if a.Kind == kind && a.Env.Type == envType {
			out = append(out, a)
		}
	}
	return out
}

func TestCorrectServerNoActions(t *testing.T) {
	p1, _ := planV2("c")
	core := NewCore("s1", 100, p1, 0)
	env := dataEnv(7, 1, "c")
	env.PlanVersion = p1.Version // publisher is up to date
	actions := core.OnLocalPublish("c", env.Marshal(), 3, epoch)
	if len(actions) != 0 {
		t.Fatalf("actions on correct server: %+v", actions)
	}
	// A publisher with a stale entry for an explicitly mapped channel gets
	// the mapping re-announced exactly once (lazy propagation).
	staleActions := core.OnLocalPublish("c", dataEnv(7, 2, "c").Marshal(), 3, epoch)
	if len(find(staleActions, ActionPublishLocal, message.TypeSwitch)) != 1 {
		t.Fatalf("stale publication not announced: %+v", staleActions)
	}
	again := core.OnLocalPublish("c", dataEnv(7, 3, "c").Marshal(), 3, epoch)
	if len(again) != 0 {
		t.Fatalf("stale announcement repeated: %+v", again)
	}
}

func TestOldServerEmitsSwitchForwardsAndRedirects(t *testing.T) {
	// §IV-A2 Figure 3a: publication arrives at the old server s1 after the
	// channel moved to s2.
	p1, p2 := planV2("c")
	core := NewCore("s1", 100, p1, 0)
	core.OnPlan(p2, epoch)

	actions := core.OnLocalPublish("c", dataEnv(7, 1, "c").Marshal(), 2, epoch)

	// 1. Switch notification to local subscribers.
	switches := find(actions, ActionPublishLocal, message.TypeSwitch)
	if len(switches) != 1 {
		t.Fatalf("switch actions: %+v", actions)
	}
	sw := switches[0]
	if sw.Channel != "c" || len(sw.Env.Servers) != 1 || sw.Env.Servers[0] != "s2" {
		t.Fatalf("switch content: %+v", sw.Env)
	}
	if sw.Env.PlanVersion != 2 {
		t.Fatalf("switch plan version=%d", sw.Env.PlanVersion)
	}

	// 2. The publication is forwarded to the new server.
	fwds := find(actions, ActionForward, message.TypeForwarded)
	if len(fwds) != 1 || fwds[0].Server != "s2" || fwds[0].Channel != "c" {
		t.Fatalf("forward actions: %+v", actions)
	}
	if fwds[0].Env.ID != (message.ID{Node: 7, Seq: 1}) {
		t.Fatalf("forwarded envelope lost original ID: %+v", fwds[0].Env)
	}

	// 3. The publisher is redirected.
	redirects := find(actions, ActionForward, message.TypeWrongServer)
	redirects = append(redirects, find(actions, ActionPublishLocal, message.TypeWrongServer)...)
	if len(redirects) != 1 {
		t.Fatalf("redirect actions: %+v", actions)
	}
	if redirects[0].Channel != plan.InboxChannel(7) {
		t.Fatalf("redirect channel=%q", redirects[0].Channel)
	}
}

func TestSwitchEmittedOncePerPlanVersion(t *testing.T) {
	p1, p2 := planV2("c")
	core := NewCore("s1", 100, p1, 0)
	core.OnPlan(p2, epoch)

	first := core.OnLocalPublish("c", dataEnv(7, 1, "c").Marshal(), 2, epoch)
	second := core.OnLocalPublish("c", dataEnv(7, 2, "c").Marshal(), 2, epoch)
	if len(find(first, ActionPublishLocal, message.TypeSwitch)) != 1 {
		t.Fatalf("first publish: %+v", first)
	}
	if len(find(second, ActionPublishLocal, message.TypeSwitch)) != 0 {
		t.Fatalf("second publish re-emitted switch: %+v", second)
	}
	// Forwarding continues for every publication.
	if len(find(second, ActionForward, message.TypeForwarded)) != 1 {
		t.Fatalf("second publish not forwarded: %+v", second)
	}
}

func TestNoSwitchWithoutLocalSubscribers(t *testing.T) {
	p1, p2 := planV2("c")
	core := NewCore("s1", 100, p1, 0)
	core.OnPlan(p2, epoch)
	actions := core.OnLocalPublish("c", dataEnv(7, 1, "c").Marshal(), 0, epoch)
	if len(find(actions, ActionPublishLocal, message.TypeSwitch)) != 0 {
		t.Fatalf("switch without subscribers: %+v", actions)
	}
	// Forward and redirect still happen.
	if len(find(actions, ActionForward, message.TypeForwarded)) != 1 {
		t.Fatalf("missing forward: %+v", actions)
	}
}

func TestNewServerForwardsBackWhileOldDrains(t *testing.T) {
	// §IV-A3 Figure 3b: publication arrives at the new (correct) server s2;
	// it must be forwarded back to s1 until s1 drains.
	p1, p2 := planV2("c")
	core := NewCore("s2", 200, p1, 0)
	core.OnPlan(p2, epoch)

	actions := core.OnLocalPublish("c", dataEnv(7, 1, "c").Marshal(), 1, epoch)
	fwds := find(actions, ActionForward, message.TypeForwarded)
	if len(fwds) != 1 || fwds[0].Server != "s1" {
		t.Fatalf("no forward-back to draining old server: %+v", actions)
	}

	// Drain notification stops the forwarding.
	core.OnDrained("c", "s1")
	actions = core.OnLocalPublish("c", dataEnv(7, 2, "c").Marshal(), 1, epoch)
	if len(actions) != 0 {
		t.Fatalf("forwarding continued after drain: %+v", actions)
	}
	if core.TransitionCount() != 0 {
		t.Fatalf("transition not cleaned up: %d", core.TransitionCount())
	}
}

func TestForwardedMessagesNeverReforwarded(t *testing.T) {
	p1, p2 := planV2("c")
	core := NewCore("s2", 200, p1, 0)
	core.OnPlan(p2, epoch)
	fwd := &message.Envelope{Type: message.TypeForwarded, ID: message.ID{Node: 7, Seq: 1}, Channel: "c"}
	actions := core.OnLocalPublish("c", fwd.Marshal(), 1, epoch)
	if len(find(actions, ActionForward, message.TypeForwarded)) != 0 {
		t.Fatalf("forwarded message re-forwarded (loop!): %+v", actions)
	}
}

func TestOldServerDrainNotification(t *testing.T) {
	p1, p2 := planV2("c")
	core := NewCore("s1", 100, p1, 0)
	core.OnPlan(p2, epoch)

	// Subscribers remain: no drain.
	if actions := core.OnLocalUnsubscribe("c", 3); len(actions) != 0 {
		t.Fatalf("drain with remaining subscribers: %+v", actions)
	}
	// Last subscriber leaves: drained notification to s2's dispatcher.
	actions := core.OnLocalUnsubscribe("c", 0)
	drains := find(actions, ActionForward, message.TypeDrained)
	if len(drains) != 1 || drains[0].Server != "s2" {
		t.Fatalf("drain actions: %+v", actions)
	}
	if drains[0].Channel != plan.DispatchChannel("s2") {
		t.Fatalf("drain channel=%q", drains[0].Channel)
	}
	if drains[0].Env.Servers[0] != "s1" {
		t.Fatalf("drain origin=%v", drains[0].Env.Servers)
	}
	// Only once.
	if actions := core.OnLocalUnsubscribe("c", 0); len(actions) != 0 {
		t.Fatalf("second drain: %+v", actions)
	}
}

func TestWrongSubscribeGetsImmediateSwitch(t *testing.T) {
	p1, p2 := planV2("c")
	core := NewCore("s1", 100, p1, 0)
	core.OnPlan(p2, epoch)
	actions := core.OnLocalSubscribe("c", 1, epoch)
	if len(find(actions, ActionPublishLocal, message.TypeSwitch)) != 1 {
		t.Fatalf("wrong subscribe not redirected: %+v", actions)
	}
	// Subscribing to a channel we do hold: silence.
	p3 := core.Plan().Clone()
	p3.Version = 3
	p3.Set("mine", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s1"}})
	core.OnPlan(p3, epoch)
	if actions := core.OnLocalSubscribe("mine", 1, epoch); len(actions) != 0 {
		t.Fatalf("switch for correctly-placed subscribe: %+v", actions)
	}
}

func TestMisrouteWithoutTransition(t *testing.T) {
	// A client publishes using a stale/bootstrap mapping to a server that
	// never held the channel ("Initialization" case of §IV).
	p := plan.New("s1", "s2")
	p.Version = 5
	p.Set("c", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s2"}})
	core := NewCore("s1", 100, plan.New("s1", "s2"), 0)
	core.OnPlan(p, epoch)

	actions := core.OnLocalPublish("c", dataEnv(9, 1, "c").Marshal(), 0, epoch)
	if len(find(actions, ActionForward, message.TypeForwarded)) != 1 {
		t.Fatalf("misroute not forwarded: %+v", actions)
	}
	wrongs := append(find(actions, ActionForward, message.TypeWrongServer),
		find(actions, ActionPublishLocal, message.TypeWrongServer)...)
	if len(wrongs) != 1 {
		t.Fatalf("misroute publisher not redirected: %+v", actions)
	}
}

func TestReplicatedChannelForwardTargets(t *testing.T) {
	// A wrongly-routed publication on an all-publishers channel must reach
	// every replica (each replica serves a disjoint subscriber set).
	base := plan.New("s1", "s2", "s3")
	p := base.Clone()
	p.Version = 2
	p.Set("hot", plan.Entry{Strategy: plan.StrategyAllPublishers, Servers: []plan.ServerID{"s2", "s3"}})
	core := NewCore("s1", 100, base, 0)
	core.OnPlan(p, epoch)

	actions := core.OnLocalPublish("hot", dataEnv(9, 1, "hot").Marshal(), 0, epoch)
	fwds := find(actions, ActionForward, message.TypeForwarded)
	if len(fwds) != 2 {
		t.Fatalf("all-publishers forwards: %+v", actions)
	}
	targets := map[plan.ServerID]bool{}
	for _, f := range fwds {
		targets[f.Server] = true
	}
	if !targets["s2"] || !targets["s3"] {
		t.Fatalf("targets=%v", targets)
	}
}

func TestTransitionExpiryOnTick(t *testing.T) {
	p1, p2 := planV2("c")
	core := NewCore("s2", 200, p1, 10*time.Second)
	core.OnPlan(p2, epoch)
	if core.TransitionCount() != 1 {
		t.Fatalf("transitions=%d", core.TransitionCount())
	}
	core.OnTick(epoch.Add(5 * time.Second))
	if core.TransitionCount() != 1 {
		t.Fatal("transition expired early")
	}
	core.OnTick(epoch.Add(11 * time.Second))
	if core.TransitionCount() != 0 {
		t.Fatal("transition not expired")
	}
	// After expiry, no more forwarding back (a one-time switch
	// re-announcement for the stale publisher is still allowed).
	actions := core.OnLocalPublish("c", dataEnv(7, 1, "c").Marshal(), 1, epoch.Add(12*time.Second))
	if len(find(actions, ActionForward, message.TypeForwarded)) != 0 {
		t.Fatalf("forwarding after expiry: %+v", actions)
	}
}

func TestStalePlanIgnored(t *testing.T) {
	p1, p2 := planV2("c")
	core := NewCore("s1", 100, p2, 0)
	core.OnPlan(p1, epoch) // older version
	if core.Plan().Version != 2 {
		t.Fatalf("stale plan applied: v%d", core.Plan().Version)
	}
}

func TestControlChannelsIgnored(t *testing.T) {
	p1, p2 := planV2("c")
	core := NewCore("s1", 100, p1, 0)
	core.OnPlan(p2, epoch)
	env := dataEnv(7, 1, plan.PlanChannel)
	if actions := core.OnLocalPublish(plan.PlanChannel, env.Marshal(), 5, epoch); len(actions) != 0 {
		t.Fatalf("control publish produced actions: %+v", actions)
	}
	if actions := core.OnLocalSubscribe(plan.DispatchChannel("s9"), 1, epoch); len(actions) != 0 {
		t.Fatalf("control subscribe produced actions: %+v", actions)
	}
}

func TestSwitchNotSentToOwnPublications(t *testing.T) {
	// Publications originated by this dispatcher (node ID matches) must not
	// trigger a self-redirect.
	p1, p2 := planV2("c")
	core := NewCore("s1", 100, p1, 0)
	core.OnPlan(p2, epoch)
	env := dataEnv(100, 1, "c") // node 100 == core's own node
	actions := core.OnLocalPublish("c", env.Marshal(), 0, epoch)
	redirects := append(find(actions, ActionForward, message.TypeWrongServer),
		find(actions, ActionPublishLocal, message.TypeWrongServer)...)
	if len(redirects) != 0 {
		t.Fatalf("self-redirect: %+v", actions)
	}
}

func TestReplicaMembershipChangeOpensTransition(t *testing.T) {
	// A replica set shrink: the removed member drains like a single-channel
	// old server (forward-back until its subscribers leave).
	base := plan.New("s1", "s2", "s3")
	p1 := base.Clone()
	p1.Version = 2
	p1.Set("hot", plan.Entry{Strategy: plan.StrategyAllPublishers, Servers: []plan.ServerID{"s1", "s2", "s3"}})
	p2 := p1.Clone()
	p2.Version = 3
	p2.Set("hot", plan.Entry{Strategy: plan.StrategyAllPublishers, Servers: []plan.ServerID{"s1", "s2"}})

	// The surviving member s1 forwards to the removed member s3 while it
	// drains.
	survivor := NewCore("s1", 100, p1.Clone(), 0)
	survivor.OnPlan(p2.Clone(), epoch)
	env := dataEnv(7, 1, "hot")
	env.PlanVersion = 3
	actions := survivor.OnLocalPublish("hot", env.Marshal(), 4, epoch)
	fwds := find(actions, ActionForward, message.TypeForwarded)
	if len(fwds) != 1 || fwds[0].Server != "s3" {
		t.Fatalf("survivor forwarding: %+v", actions)
	}

	// The removed member s3 owes a drain notification when its last local
	// subscriber leaves, addressed to the remaining replicas.
	removed := NewCore("s3", 300, p1.Clone(), 0)
	removed.OnPlan(p2.Clone(), epoch)
	drains := find(removed.OnLocalUnsubscribe("hot", 0), ActionForward, message.TypeDrained)
	if len(drains) != 2 {
		t.Fatalf("drain notifications: %+v", drains)
	}
	targets := map[plan.ServerID]bool{}
	for _, d := range drains {
		targets[d.Server] = true
	}
	if !targets["s1"] || !targets["s2"] {
		t.Fatalf("drain targets: %v", targets)
	}
}

func TestSwitchCarriesRingServers(t *testing.T) {
	p1, p2 := planV2("c")
	core := NewCore("s1", 100, p1, 0)
	core.OnPlan(p2, epoch)
	actions := core.OnLocalSubscribe("c", 1, epoch)
	sw := find(actions, ActionPublishLocal, message.TypeSwitch)
	if len(sw) != 1 {
		t.Fatalf("actions: %+v", actions)
	}
	if len(sw[0].Env.RingServers) != 2 {
		t.Fatalf("switch ring servers: %v", sw[0].Env.RingServers)
	}
}
