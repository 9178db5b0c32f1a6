package dynamoth

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/dispatcher"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/trace"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// testDeployment is a minimal live deployment: brokers with dispatchers,
// mem transport, no latency.
type testDeployment struct {
	brokers     map[plan.ServerID]*broker.Broker
	dispatchers map[plan.ServerID]*dispatcher.Dispatcher
	dialer      *transport.MemDialer
	servers     []string
}

func newTestDeployment(t testing.TB, servers ...string) *testDeployment {
	t.Helper()
	d := &testDeployment{
		brokers:     make(map[plan.ServerID]*broker.Broker),
		dispatchers: make(map[plan.ServerID]*dispatcher.Dispatcher),
		servers:     servers,
	}
	initial := plan.New(servers...)
	initial.Version = 1
	for _, s := range servers {
		// Replay rings on, as in a default server.Node deployment.
		d.brokers[s] = broker.New(broker.Options{Name: s, ReplayDepth: 256})
	}
	d.dialer = transport.NewMemDialer(d.brokers, transport.MemDialerOptions{})
	fwd := dispatcher.ForwarderFunc(func(server plan.ServerID, channel string, payload []byte) error {
		b := d.brokers[server]
		if b == nil {
			return fmt.Errorf("no broker %s", server)
		}
		b.Publish(channel, payload)
		return nil
	})
	for i, s := range servers {
		disp, err := dispatcher.New(dispatcher.Options{
			Self: s, Node: uint32(10 + i), Initial: initial.Clone(),
			Broker: d.brokers[s], Forwarder: fwd,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.dispatchers[s] = disp
	}
	t.Cleanup(func() {
		for _, disp := range d.dispatchers {
			disp.Close()
		}
		d.dialer.Close()
		for _, b := range d.brokers {
			b.Close()
		}
	})
	return d
}

func (d *testDeployment) client(t *testing.T, node uint32) *Client {
	t.Helper()
	c, err := ConnectWithDialer(d.dialer, d.servers, Config{NodeID: node})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func (d *testDeployment) applyPlan(p *plan.Plan) {
	for _, disp := range d.dispatchers {
		disp.ApplyPlan(p.Clone())
	}
}

func recvMsg(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("subscription stream closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return Message{}
	}
}

func TestClientPubSubSingleServer(t *testing.T) {
	d := newTestDeployment(t, "s1")
	pub := d.client(t, 100)
	sub := d.client(t, 101)

	msgs, err := sub.Subscribe("room")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("room", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	m := recvMsg(t, msgs)
	if m.Channel != "room" || string(m.Payload) != "hi" || m.Publisher != 100 {
		t.Fatalf("message=%+v", m)
	}
	if s := sub.Stats(); s.Received != 1 {
		t.Fatalf("stats=%+v", s)
	}
}

func TestClientSelfDelivery(t *testing.T) {
	// A player subscribes to its own tile and must see its own updates —
	// the paper's response-time measurement depends on this.
	d := newTestDeployment(t, "s1", "s2")
	c := d.client(t, 200)
	msgs, err := c.Subscribe("tile-1-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("tile-1-1", []byte("pos")); err != nil {
		t.Fatal(err)
	}
	m := recvMsg(t, msgs)
	if m.Publisher != 200 {
		t.Fatalf("message=%+v", m)
	}
}

func TestClientMultiServerFallbackRouting(t *testing.T) {
	d := newTestDeployment(t, "s1", "s2", "s3")
	sub := d.client(t, 300)
	pub := d.client(t, 301)
	// Several channels, hashing to various servers: both clients must
	// agree on routing with no explicit plan.
	for i := 0; i < 8; i++ {
		ch := fmt.Sprintf("channel-%d", i)
		msgs, err := sub.Subscribe(ch)
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Publish(ch, []byte(ch)); err != nil {
			t.Fatal(err)
		}
		if m := recvMsg(t, msgs); string(m.Payload) != ch {
			t.Fatalf("channel %s: %+v", ch, m)
		}
	}
}

func TestClientUnsubscribe(t *testing.T) {
	d := newTestDeployment(t, "s1")
	c := d.client(t, 400)
	msgs, err := c.Subscribe("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe("x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-msgs; ok {
		t.Fatal("stream not closed on unsubscribe")
	}
	if err := c.Unsubscribe("x"); !errors.Is(err, ErrNotSubscribed) {
		t.Fatalf("double unsubscribe err=%v", err)
	}
}

func TestClientDuplicateSubscribeSameStream(t *testing.T) {
	d := newTestDeployment(t, "s1")
	c := d.client(t, 500)
	a, _ := c.Subscribe("x")
	b, _ := c.Subscribe("x")
	if a != b {
		t.Fatal("duplicate subscribe returned a different stream")
	}
}

func TestClientFollowsMigration(t *testing.T) {
	// Move a channel between servers under live traffic; the subscriber
	// must receive every message exactly once and end up on the new server.
	d := newTestDeployment(t, "s1", "s2")
	sub := d.client(t, 600)
	pub := d.client(t, 601)

	msgs, err := sub.Subscribe("game")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("game", []byte("m0")); err != nil {
		t.Fatal(err)
	}
	recvMsg(t, msgs)

	// Migrate: explicit plan moves "game" to the server it is NOT on.
	initial := plan.New("s1", "s2")
	from := initial.Home("game")
	to := "s1"
	if from == "s1" {
		to = "s2"
	}
	next := plan.New("s1", "s2")
	next.Version = 2
	next.Set("game", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{to}})
	d.applyPlan(next)

	// Publish a stream of messages; all must arrive despite the move.
	for i := 1; i <= 10; i++ {
		if err := pub.Publish("game", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		m := recvMsg(t, msgs)
		if string(m.Payload) != fmt.Sprintf("m%d", i) {
			t.Fatalf("message %d: got %q", i, m.Payload)
		}
	}

	// Eventually both clients learned the new mapping and the old broker
	// sees no more subscribers on the channel.
	deadline := time.Now().Add(2 * time.Second)
	for d.brokers[from].Subscribers("game") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber never left the old server %s", from)
		}
		if err := pub.Publish("game", []byte("nudge")); err != nil {
			t.Fatal(err)
		}
		recvMsg(t, msgs)
		time.Sleep(10 * time.Millisecond)
	}
	if pub.Stats().Redirects == 0 && sub.Stats().Redirects == 0 {
		t.Fatal("no redirects processed during migration")
	}
}

func TestClientAllSubscribersReplication(t *testing.T) {
	// Publisher picks one random replica per publication; subscriber
	// subscribes everywhere and sees each message exactly once.
	d := newTestDeployment(t, "s1", "s2", "s3")
	next := plan.New("s1", "s2", "s3")
	next.Version = 2
	next.Set("hot", plan.Entry{Strategy: plan.StrategyAllSubscribers, Servers: []plan.ServerID{"s1", "s2", "s3"}})
	d.applyPlan(next)

	sub := d.client(t, 700)
	pub := d.client(t, 701)
	// Clients learn the entry lazily; seed them by publishing/subscribing.
	msgs, err := sub.Subscribe("hot")
	if err != nil {
		t.Fatal(err)
	}
	// The subscriber initially lands on the hash-home server only; the
	// dispatcher's switch notification upgrades it to all replicas.
	const totalMsgs = 30
	got := 0
	for i := 0; i < totalMsgs; i++ {
		if err := pub.Publish("hot", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		select {
		case <-msgs:
			got++
		case <-time.After(500 * time.Millisecond):
			t.Fatalf("message %d lost", i)
		}
	}
	if got != totalMsgs {
		t.Fatalf("received %d of %d", got, totalMsgs)
	}
	// After the lazy update, the subscriber must be on all three brokers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		total := 0
		for _, b := range d.brokers {
			total += b.Subscribers("hot")
		}
		if total == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber on %d replicas, want 3", total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dups := sub.Stats().Duplicates; dups > totalMsgs {
		t.Fatalf("excessive duplicates: %d", dups)
	}
}

func TestClientAllPublishersReplication(t *testing.T) {
	d := newTestDeployment(t, "s1", "s2", "s3")
	next := plan.New("s1", "s2", "s3")
	next.Version = 2
	next.Set("bcast", plan.Entry{Strategy: plan.StrategyAllPublishers, Servers: []plan.ServerID{"s1", "s2", "s3"}})
	d.applyPlan(next)

	subs := make([]<-chan Message, 6)
	for i := range subs {
		c := d.client(t, uint32(800+i))
		msgs, err := c.Subscribe("bcast")
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = msgs
	}
	pub := d.client(t, 899)
	// First publish may be pre-update (hash fallback); dispatcher forwards
	// it to all replicas, so delivery still holds.
	for i := 0; i < 5; i++ {
		if err := pub.Publish("bcast", []byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, ch := range subs {
		for j := 0; j < 5; j++ {
			m := recvMsg(t, ch)
			if string(m.Payload) != fmt.Sprintf("b%d", j) {
				t.Fatalf("subscriber %d msg %d: %q", i, j, m.Payload)
			}
		}
	}
	// After its redirect, the publisher publishes to all three replicas.
	deadline := time.Now().Add(2 * time.Second)
	for {
		before := pub.Stats().Published
		if err := pub.Publish("bcast", []byte("probe")); err != nil {
			t.Fatal(err)
		}
		if pub.Stats().Published-before == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("publisher sends %d copies, want 3", pub.Stats().Published-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Drain the probe messages.
	for _, ch := range subs {
		for {
			select {
			case <-ch:
				continue
			case <-time.After(50 * time.Millisecond):
			}
			break
		}
	}
}

func TestClientEntryTimeoutRevertsToHashing(t *testing.T) {
	d := newTestDeployment(t, "s1", "s2")
	c, err := ConnectWithDialer(d.dialer, d.servers, Config{
		NodeID:       900,
		EntryTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Install an entry via a fake switch notification path: publish to a
	// migrated channel to earn a redirect.
	next := plan.New("s1", "s2")
	home := next.Home("temp")
	other := "s1"
	if home == "s1" {
		other = "s2"
	}
	next.Version = 2
	next.Set("temp", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{other}})
	d.applyPlan(next)
	if err := c.Publish("temp", []byte("x")); err != nil {
		t.Fatal(err)
	}
	hasEntry := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, _, ok := c.local.Peek("temp")
		return ok
	}
	deadline := time.Now().Add(2 * time.Second)
	for !hasEntry() {
		if time.Now().After(deadline) {
			t.Fatal("redirect never installed a local entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Entry must expire after the timeout (not subscribed).
	deadline = time.Now().Add(3 * time.Second)
	for hasEntry() {
		if time.Now().After(deadline) {
			t.Fatal("entry never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClientClosedOperations(t *testing.T) {
	d := newTestDeployment(t, "s1")
	c := d.client(t, 1000)
	msgs, _ := c.Subscribe("x")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-msgs; ok {
		t.Fatal("stream not closed on Close")
	}
	if err := c.Publish("x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Publish err=%v", err)
	}
	if _, err := c.Subscribe("y"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe err=%v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close err=%v", err)
	}
}

func TestConnectValidation(t *testing.T) {
	if _, err := Connect(Config{}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err=%v", err)
	}
	if _, err := ConnectWithDialer(nil, nil, Config{}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err=%v", err)
	}
}

func TestClientOverTCP(t *testing.T) {
	// Full stack over real sockets: broker + RESP + TCP dialer + client.
	b := broker.New(broker.Options{Name: "tcp1"})
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		broker.Serve(ln, b) //nolint:errcheck
	}()
	t.Cleanup(func() {
		b.Close()
		ln.Close()
		<-served
	})

	c, err := Connect(Config{Addrs: map[string]string{"tcp1": ln.Addr().String()}, NodeID: 1100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msgs, err := c.Subscribe("wire")
	if err != nil {
		t.Fatal(err)
	}
	// Subscription lands asynchronously on the TCP path; retry.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := c.Publish("wire", []byte("over-tcp")); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-msgs:
			if string(m.Payload) != "over-tcp" {
				t.Fatalf("payload=%q", m.Payload)
			}
			return
		case <-time.After(100 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("no delivery over TCP")
			}
		}
	}
}

func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func TestClientRepairsAfterSlowConsumerKill(t *testing.T) {
	// The broker kills a subscriber that cannot keep up (Redis
	// client-output-buffer-limit). The client library must notice the
	// disconnect and re-establish its subscriptions.
	b := broker.New(broker.Options{Name: "s1", OutputBuffer: 4})
	defer b.Close()
	dialer := transport.NewMemDialer(map[plan.ServerID]*broker.Broker{"s1": b}, transport.MemDialerOptions{})
	defer dialer.Close()

	sub, err := ConnectWithDialer(dialer, []string{"s1"}, Config{
		NodeID:          1500,
		SubscribeBuffer: 4096,
		EntryTimeout:    4 * time.Second, // fast sweeps => fast repair
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	msgs, err := sub.Subscribe("burst")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ConnectWithDialer(dialer, []string{"s1"}, Config{NodeID: 1501})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Saturate: the subscriber's session buffer (4) overflows.
	for i := 0; i < 64; i++ {
		if err := pub.Publish("burst", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	drainFor(msgs, 100*time.Millisecond)

	// After the kill, the repair sweep must resubscribe; publications
	// eventually flow again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := pub.Publish("burst", []byte("again")); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-msgs:
			if string(m.Payload) == "again" {
				return // repaired
			}
		case <-time.After(200 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription never repaired after slow-consumer kill")
		}
	}
}

func drainFor(ch <-chan Message, d time.Duration) {
	deadline := time.After(d)
	for {
		select {
		case <-ch:
		case <-deadline:
			return
		}
	}
}

// TestReplayedDuplicateRecordedOnce pins the interop between the replay
// machinery and duplicate accounting: a genuine replayed duplicate (the broker
// re-sends an already-delivered frame on a cursor subscribe) is suppressed,
// counted once, and recorded as exactly one duplicate event, so the recorder
// and the Duplicates counter agree however many replays there are.
func TestReplayedDuplicateRecordedOnce(t *testing.T) {
	d := newTestDeployment(t, "s1")
	rec := trace.NewRecorder(4096)
	c, err := ConnectWithDialer(d.dialer, d.servers, Config{NodeID: 78, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msgs, err := c.Subscribe("replayed")
	if err != nil {
		t.Fatal(err)
	}
	pub := d.client(t, 79)
	if err := pub.Publish("replayed", []byte("m1")); err != nil {
		t.Fatal(err)
	}
	recvMsg(t, msgs)

	c.mu.Lock()
	sub := c.sub("replayed")
	c.mu.Unlock()
	for n := uint64(1); n <= 2; n++ {
		// Forget that the frame was consumed, so the cursor subscribe asks the
		// broker to replay it: a real replayed duplicate through the full
		// delivery pipeline (same envelope ID, caught by the deduper).
		sub.track.mu.Lock()
		for _, tr := range sub.track.epochs {
			tr.contig = 0
			tr.pending = nil
		}
		sub.track.mu.Unlock()
		c.mu.Lock()
		err := c.moveLocked(&move{channel: "replayed", add: []plan.ServerID{"s1"}})
		c.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for st := c.Stats(); st.ReplayRequests < n || st.ReplayedFrames < n; st = c.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("after cursor subscribe %d: %d replay requests, %d frames replayed; want 1 frame replayed each", n, st.ReplayRequests, st.ReplayedFrames)
			}
			time.Sleep(time.Millisecond)
		}
		if st := c.Stats(); st.ReplayRequests != n || st.ReplayedFrames != n {
			t.Fatalf("after cursor subscribe %d: %d replay requests, %d frames replayed; want exactly %d of each", n, st.ReplayRequests, st.ReplayedFrames, n)
		}
		for c.Stats().Duplicates < n || rec.Count(trace.KindDuplicate) < n {
			if time.Now().After(deadline) {
				t.Fatalf("duplicates=%d events=%d, want %d", c.Stats().Duplicates, rec.Count(trace.KindDuplicate), n)
			}
			time.Sleep(time.Millisecond)
		}
		if got, events := c.Stats().Duplicates, rec.Count(trace.KindDuplicate); got != n || events != n {
			t.Fatalf("duplicates=%d events=%d, want %d of each", got, events, n)
		}
	}
	select {
	case m := <-msgs:
		t.Fatalf("replayed duplicate reached the application: %q", m.Payload)
	default:
	}
	if st := c.Stats(); st.ReplayRequests != 2 || st.ReplayedFrames != 2 || st.Duplicates != 2 {
		t.Errorf("stats %+v, want 2 requests / 2 frames / 2 duplicates", st)
	}
}

// A subscription costs the same however many the client already holds: the
// bytes allocated per Subscribe with 8 000 subscriptions in place stay
// within 1.5× the figure with 1 000. At the default SubscribeBuffer a
// subscription also holds at most 4 KiB of live heap, client and broker
// together: its stream allocates what waits, not what may wait.
func TestSubscribeCostIndependentOfCount(t *testing.T) {
	for _, tc := range []struct {
		name    string
		buffer  int // 0: the default
		maxLive uint64
	}{
		{name: "buffer=1", buffer: 1},
		{name: "buffer=default", maxLive: 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDeployment(t, "s1")
			c, err := ConnectWithDialer(d.dialer, d.servers, Config{NodeID: 610, SubscribeBuffer: tc.buffer})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			n := 0
			subscribe := func(k int) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < k; i++ {
					if _, err := c.Subscribe("flat." + strconv.Itoa(n)); err != nil {
						t.Fatal(err)
					}
					n++
				}
				runtime.ReadMemStats(&after)
				return (after.TotalAlloc - before.TotalAlloc) / uint64(k)
			}
			liveHeap := func() uint64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			const window = 500
			live0 := liveHeap()
			subscribe(1000)
			at1k := subscribe(window)
			subscribe(8000 - n)
			at8k := subscribe(window)
			live := (liveHeap() - live0) / uint64(n)
			t.Logf("bytes per Subscribe: %d at 1 000 subscriptions, %d at 8 000; live heap per subscription %d", at1k, at8k, live)
			if float64(at8k) > 1.5*float64(at1k) {
				t.Fatalf("Subscribe allocates %d B at 8 000 subscriptions, %d B at 1 000: cost grows with the count", at8k, at1k)
			}
			if tc.maxLive > 0 && live > tc.maxLive {
				t.Fatalf("a subscription holds %d B of live heap, want at most %d", live, tc.maxLive)
			}
		})
	}
}
