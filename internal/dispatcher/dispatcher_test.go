package dispatcher

import (
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// twoNodeCluster wires two brokers with dispatchers that can forward to each
// other directly.
type twoNodeCluster struct {
	brokers     map[plan.ServerID]*broker.Broker
	dispatchers map[plan.ServerID]*Dispatcher
}

func newTwoNodeCluster(t *testing.T, initial *plan.Plan) *twoNodeCluster {
	t.Helper()
	c := &twoNodeCluster{
		brokers:     make(map[plan.ServerID]*broker.Broker),
		dispatchers: make(map[plan.ServerID]*Dispatcher),
	}
	for _, s := range []plan.ServerID{"s1", "s2"} {
		c.brokers[s] = broker.New(broker.Options{Name: s, ReplayDepth: 16})
	}
	fwd := ForwarderFunc(func(server plan.ServerID, channel string, payload []byte) error {
		c.brokers[server].Publish(channel, payload)
		return nil
	})
	for i, s := range []plan.ServerID{"s1", "s2"} {
		d, err := New(Options{
			Self:      s,
			Node:      uint32(1000 + i),
			Initial:   initial.Clone(),
			Broker:    c.brokers[s],
			Forwarder: fwd,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.dispatchers[s] = d
	}
	t.Cleanup(func() {
		for _, d := range c.dispatchers {
			d.Close()
		}
		for _, b := range c.brokers {
			b.Close()
		}
	})
	return c
}

// testClient is a minimal envelope-aware subscriber.
type testClient struct {
	mu      sync.Mutex
	got     []*message.Envelope
	arrived chan struct{}
}

func newTestClient() *testClient {
	return &testClient{arrived: make(chan struct{}, 64)}
}

func (c *testClient) Deliver(channel string, payload []byte) {
	env, err := message.Unmarshal(payload)
	if err != nil {
		return
	}
	// Copy the payload since it may alias a shared buffer.
	env.Payload = append([]byte(nil), env.Payload...)
	c.mu.Lock()
	c.got = append(c.got, env)
	c.mu.Unlock()
	select {
	case c.arrived <- struct{}{}:
	default:
	}
}

func (c *testClient) Closed(error) {}

func (c *testClient) waitFor(t *testing.T, match func(*message.Envelope) bool) *message.Envelope {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		c.mu.Lock()
		for _, env := range c.got {
			if match(env) {
				c.mu.Unlock()
				return env
			}
		}
		c.mu.Unlock()
		select {
		case <-c.arrived:
		case <-deadline:
			t.Fatal("timed out waiting for matching envelope")
		}
	}
}

func TestLiveMigrationDeliversEverywhereAndSwitches(t *testing.T) {
	initial := plan.New("s1", "s2")
	initial.Version = 1
	initial.Set("c", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s1"}})
	cluster := newTwoNodeCluster(t, initial)

	// A subscriber still on the old server s1.
	lagging := newTestClient()
	lagSess, err := cluster.brokers["s1"].Connect("lagging", lagging)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lagSess.Subscribe("c"); err != nil {
		t.Fatal(err)
	}

	// Move the channel to s2 on both dispatchers.
	next := initial.Clone()
	next.Version = 2
	next.Set("c", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s2"}})
	for _, d := range cluster.dispatchers {
		d.ApplyPlan(next.Clone())
	}

	// An up-to-date subscriber on the new server s2.
	fresh := newTestClient()
	freshSess, err := cluster.brokers["s2"].Connect("fresh", fresh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := freshSess.Subscribe("c"); err != nil {
		t.Fatal(err)
	}

	// Case 1 (Fig 3a): publish on the OLD server.
	env1 := &message.Envelope{Type: message.TypeData, ID: message.ID{Node: 7, Seq: 1}, Channel: "c", Payload: []byte("m1")}
	cluster.brokers["s1"].Publish("c", env1.Marshal())

	// The lagging subscriber gets the original and a switch notification.
	lagging.waitFor(t, func(e *message.Envelope) bool {
		return e.Type == message.TypeData && e.ID.Seq == 1
	})
	sw := lagging.waitFor(t, func(e *message.Envelope) bool { return e.Type == message.TypeSwitch })
	if len(sw.Servers) != 1 || sw.Servers[0] != "s2" {
		t.Fatalf("switch points at %v", sw.Servers)
	}
	// The fresh subscriber on s2 receives the forwarded copy.
	fresh.waitFor(t, func(e *message.Envelope) bool {
		return e.Type == message.TypeForwarded && e.ID == (message.ID{Node: 7, Seq: 1})
	})

	// Case 2 (Fig 3b): publish on the NEW server; lagging subscriber on s1
	// must still receive it via new→old forwarding.
	env2 := &message.Envelope{Type: message.TypeData, ID: message.ID{Node: 7, Seq: 2}, Channel: "c", Payload: []byte("m2")}
	cluster.brokers["s2"].Publish("c", env2.Marshal())
	fresh.waitFor(t, func(e *message.Envelope) bool {
		return e.Type == message.TypeData && e.ID.Seq == 2
	})
	lagging.waitFor(t, func(e *message.Envelope) bool {
		return e.Type == message.TypeForwarded && e.ID == (message.ID{Node: 7, Seq: 2})
	})

	// The lagging subscriber now moves (as its client library would).
	if _, err := lagSess.Unsubscribe("c"); err != nil {
		t.Fatal(err)
	}
	// After the drain notification propagates, publications on s2 are no
	// longer forwarded to s1 — verify via the s1 broker's publish counter
	// settling.
	deadline := time.Now().Add(2 * time.Second)
	for {
		before := cluster.brokers["s1"].Stats().Published
		env := &message.Envelope{Type: message.TypeData, ID: message.ID{Node: 7, Seq: 99}, Channel: "c", Payload: []byte("x")}
		cluster.brokers["s2"].Publish("c", env.Marshal())
		time.Sleep(20 * time.Millisecond)
		if cluster.brokers["s1"].Stats().Published == before {
			break // no forwarding happened
		}
		if time.Now().After(deadline) {
			t.Fatal("s2 kept forwarding to s1 after drain")
		}
	}
}

// TestForwardedPublicationReplaysByStamp: a publication the old home
// forwards keeps its publisher's stamp, so a client resuming at the new home
// from a cursor of another ring epoch — a SWITCH move's first subscribe
// there — gets it back from the stamp-based replay.
func TestForwardedPublicationReplaysByStamp(t *testing.T) {
	initial := plan.New("s1", "s2")
	initial.Version = 1
	initial.Set("c", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s1"}})
	cluster := newTwoNodeCluster(t, initial)
	next := initial.Clone()
	next.Version = 2
	next.Set("c", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s2"}})
	for _, d := range cluster.dispatchers {
		d.ApplyPlan(next.Clone())
	}

	// A subscriber at the new home shows when the forwarded copy has landed.
	fresh := newTestClient()
	freshSess, err := cluster.brokers["s2"].Connect("fresh", fresh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := freshSess.Subscribe("c"); err != nil {
		t.Fatal(err)
	}
	id := message.ID{Node: 7, Seq: 1}
	stamp := time.Now().UnixNano()
	pub := &message.Envelope{Type: message.TypeData, ID: id, Channel: "c", Payload: []byte("m1"), Stamp: stamp}
	cluster.brokers["s1"].Publish("c", pub.Marshal())
	isForwarded := func(e *message.Envelope) bool { return e.Type == message.TypeForwarded && e.ID == id }
	fresh.waitFor(t, isForwarded)

	mover := newTestClient()
	moverSess, err := cluster.brokers["s2"].Connect("mover", mover)
	if err != nil {
		t.Fatal(err)
	}
	res, err := moverSess.SubscribeFrom("c", message.Cursor{SinceStamp: stamp})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 1 {
		t.Fatalf("cursor at the forwarded publication's stamp replayed %d frames, want 1", res.Replayed)
	}
	if got := mover.waitFor(t, isForwarded); got.Stamp != stamp {
		t.Fatalf("replayed stamp %d, want %d", got.Stamp, stamp)
	}
}

func TestLivePlanDistributionOverPubSub(t *testing.T) {
	initial := plan.New("s1", "s2")
	initial.Version = 1
	cluster := newTwoNodeCluster(t, initial)

	next := initial.Clone()
	next.Version = 7
	next.Set("c", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s2"}})
	data, err := next.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env := &message.Envelope{Type: message.TypePlan, ID: message.ID{Node: 1, Seq: 1}, Payload: data}
	cluster.brokers["s1"].Publish(plan.PlanChannel, env.Marshal())

	deadline := time.Now().Add(2 * time.Second)
	for cluster.dispatchers["s1"].Plan().Version != 7 {
		if time.Now().After(deadline) {
			t.Fatal("plan not applied from pub/sub")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLiveWrongSubscribeTriggersSwitch(t *testing.T) {
	initial := plan.New("s1", "s2")
	initial.Version = 1
	initial.Set("c", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s2"}})
	cluster := newTwoNodeCluster(t, initial)

	// Client subscribes on the wrong server.
	confused := newTestClient()
	sess, err := cluster.brokers["s1"].Connect("confused", confused)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Subscribe("c"); err != nil {
		t.Fatal(err)
	}
	sw := confused.waitFor(t, func(e *message.Envelope) bool { return e.Type == message.TypeSwitch })
	if sw.Servers[0] != "s2" {
		t.Fatalf("switch points at %v", sw.Servers)
	}
}
