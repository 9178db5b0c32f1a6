package dynamoth_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/deliverycheck"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/resp"
	"github.com/dynamoth/dynamoth/internal/server"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// tcpDeployment assembles a complete distributed deployment over real TCP
// sockets: the same wiring as the dynamoth-node and dynamoth-lb daemons,
// in-process for the test.
type tcpDeployment struct {
	ids    []string
	addrs  map[plan.ServerID]string
	nodes  map[plan.ServerID]*server.Node
	orch   *balancer.Orchestrator
	dialer *transport.TCPDialer
}

func startTCPDeployment(t *testing.T, n int) *tcpDeployment {
	t.Helper()
	d := &tcpDeployment{
		addrs: make(map[plan.ServerID]string),
		nodes: make(map[plan.ServerID]*server.Node),
	}
	listeners := make(map[plan.ServerID]net.Listener)
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("pub%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d.ids = append(d.ids, id)
		d.addrs[id] = ln.Addr().String()
		listeners[id] = ln
	}
	d.dialer = transport.NewTCPDialer(d.addrs)

	initial := plan.New(d.ids...)
	initial.Version = 1
	fwd := transport.NewPooledForwarder(d.dialer)
	t.Cleanup(fwd.Close)

	for i, id := range d.ids {
		node, err := server.New(server.Options{
			ID:             id,
			NodeNum:        uint32(0xDC00 + i),
			Initial:        initial.Clone(),
			Forwarder:      fwd,
			MaxOutgoingBps: 1.25e6,
			ReportEvery:    time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.nodes[id] = node
		ln := listeners[id]
		served := make(chan struct{})
		go func() {
			defer close(served)
			node.ServeTCP(ln) //nolint:errcheck // ends on close
		}()
		t.Cleanup(func() {
			node.Close()
			ln.Close()
			<-served
		})
	}

	// The load balancer, built with cmd/dynamoth-lb's options (detection
	// off).
	cfg := balancer.DefaultConfig()
	cfg.TWait = time.Second
	cfg.MaxServers = n
	cfg.MinServers = n
	pinned := func(s string) bool { return s == d.ids[0] }
	orch, err := balancer.NewOrchestrator(balancer.OrchestratorOptions{
		Planner: balancer.NewPlanner(cfg, plan.IsControlChannel, pinned, 1.25e6),
		Config:  cfg,
		Initial: initial,
		Dialer:  d.dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.orch = orch
	go d.orch.Run()
	t.Cleanup(d.orch.Stop)
	return d
}

// nopHandler ignores a connection's deliveries.
type nopHandler struct{}

func (nopHandler) OnMessage(string, []byte) {}
func (nopHandler) OnDisconnect(error)       {}

func TestTCPDeploymentEndToEnd(t *testing.T) {
	d := startTCPDeployment(t, 2)

	sub, err := dynamoth.Connect(dynamoth.Config{Addrs: d.addrs, NodeID: 501})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := dynamoth.Connect(dynamoth.Config{Addrs: d.addrs, NodeID: 502})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Channels routed across both servers, over real sockets.
	var steady <-chan dynamoth.Message
	for i := 0; i < 6; i++ {
		ch := fmt.Sprintf("wire-%d", i)
		msgs, err := sub.Subscribe(ch)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			steady = msgs
		}
		// TCP subscriptions land asynchronously; retry until delivery.
		deadline := time.Now().Add(3 * time.Second)
		for {
			if err := pub.Publish(ch, []byte(ch)); err != nil {
				t.Fatal(err)
			}
			select {
			case m := <-msgs:
				if string(m.Payload) != ch {
					t.Fatalf("payload=%q", m.Payload)
				}
			case <-time.After(100 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("no delivery on %s", ch)
				}
				continue
			}
			break
		}
	}

	// The publisher subscribes to and unsubscribes from side channels on
	// another goroutine while it publishes: the steady subscriber must still
	// get every publication, in order.
	const n = 200
	stop, churning := make(chan struct{}), make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; ; i++ {
			ch := fmt.Sprintf("side-%d", i%16)
			if _, err := pub.Subscribe(ch); err != nil {
				t.Errorf("churn subscribe %s: %v", ch, err)
				return
			}
			if err := pub.Unsubscribe(ch); err != nil {
				t.Errorf("churn unsubscribe %s: %v", ch, err)
				return
			}
			if i == 0 {
				close(churning)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	defer func() {
		close(stop)
		<-churned
	}()
	select {
	case <-churning:
	case <-churned:
		t.Fatal("churn stopped before its first cycle")
	}
	for i := 0; i < n; i++ {
		if err := pub.Publish("wire-0", []byte(fmt.Sprintf("steady-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; {
		select {
		case m := <-steady:
			if string(m.Payload) == "wire-0" {
				continue // a late warm-up publication
			}
			if want := fmt.Sprintf("steady-%d", i); string(m.Payload) != want {
				t.Fatalf("steady subscriber got %q, want %q", m.Payload, want)
			}
			i++
		case <-time.After(5 * time.Second):
			t.Fatalf("steady subscriber got %d of %d publications", i, n)
		}
	}
}

// TestTCPClientFlush: Flush is the barrier between "Publish returned" and
// "the broker acked it" — after Flush every pipelined publish is on the
// server, and a closed client refuses the call.
func TestTCPClientFlush(t *testing.T) {
	d := startTCPDeployment(t, 2)

	pub, err := dynamoth.Connect(dynamoth.Config{Addrs: d.addrs, NodeID: 503})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	for i := 0; i < 200; i++ {
		if err := pub.Publish(fmt.Sprintf("flush-%d", i%8), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(5 * time.Second); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var acked uint64
	for _, node := range d.nodes {
		acked += node.Broker.Stats().Published
	}
	if acked < 200 {
		t.Fatalf("after Flush the brokers have %d publishes, want >= 200", acked)
	}

	pub.Close()
	if err := pub.Flush(time.Second); err != dynamoth.ErrClosed {
		t.Fatalf("flush on closed client: %v, want ErrClosed", err)
	}
}

// connectPair connects a subscriber and a publisher client to d.
func (d *tcpDeployment) connectPair(t *testing.T, subID, pubID uint32) (sub, pub *dynamoth.Client) {
	t.Helper()
	connect := func(id uint32) *dynamoth.Client {
		c, err := dynamoth.Connect(dynamoth.Config{Addrs: d.addrs, NodeID: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return connect(subID), connect(pubID)
}

// subscribeWarm subscribes sub to channel and publishes on it through pub
// until a publication arrives: TCP subscriptions land asynchronously. It
// returns the stream and the keys it published.
func subscribeWarm(t *testing.T, sub, pub *dynamoth.Client, channel string) (<-chan dynamoth.Message, []string) {
	t.Helper()
	msgs, err := sub.Subscribe(channel)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	deadline := time.Now().Add(3 * time.Second)
	for {
		key := fmt.Sprintf("warm-%d", len(keys))
		if err := pub.Publish(channel, []byte(key)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		select {
		case <-msgs:
			return msgs, keys
		case <-time.After(100 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("no delivery on %s", channel)
			}
		}
	}
}

// moveTo returns channel's current home, the other server, and the
// orchestrator's plan one version on with channel mapped by entry(home,
// other).
func (d *tcpDeployment) moveTo(channel string, entry func(home, other plan.ServerID) plan.Entry) (home, other plan.ServerID, next *plan.Plan) {
	current := d.orch.Plan()
	home = current.Home(channel)
	other = d.ids[0]
	if home == other {
		other = d.ids[1]
	}
	next = current.Clone()
	next.Version = current.Version + 1
	next.Set(channel, entry(home, other))
	return home, other, next
}

func TestTCPDeploymentMigrationUnderTraffic(t *testing.T) {
	d := startTCPDeployment(t, 2)
	sub, pub := d.connectPair(t, 601, 602)
	msgs, warm := subscribeWarm(t, sub, pub, "moving")

	// Every publication from here on is owed to the subscriber exactly once;
	// late warm-up copies are published, so not phantoms, and not owed.
	l := deliverycheck.New()
	for _, k := range warm {
		l.Published("moving", k)
	}
	// Room for every delivery the test can cause: warm-ups, 20 publications,
	// 30 nudges, each at most twice.
	got := make(chan string, 1024)
	deliverycheck.Drain(l, "sub", "moving", msgs, func(m dynamoth.Message) string {
		got <- string(m.Payload)
		return string(m.Payload)
	})

	// Move the channel to the other server through the dispatchers' plan
	// channel, exactly as the LB does, then keep publishing across the
	// migration.
	home, target, next := d.moveTo("moving", func(_, other plan.ServerID) plan.Entry {
		return plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{other}}
	})
	data, err := next.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env := &message.Envelope{Type: message.TypePlan, ID: message.ID{Node: 9, Seq: 1}, Payload: data}
	for _, id := range d.ids {
		c2, err := d.dialer.Dial(id, nopHandler{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.Publish(plan.PlanChannel, env.Marshal()); err != nil {
			t.Fatal(err)
		}
		c2.Close()
	}

	// Each publication arrives within 500 ms of being sent: a move holds
	// nothing back.
	publish := func(key string) {
		if err := pub.Publish("moving", []byte(key)); err != nil {
			t.Fatal(err)
		}
		l.Published("moving", key)
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("m%d", i)
		publish(key)
		timeout := time.After(500 * time.Millisecond)
		for arrived := false; !arrived; {
			select {
			case k := <-got:
				arrived = k == key
			case <-timeout:
				t.Fatalf("%s (from %s to %s) not delivered within 500 ms", key, home, target)
			}
		}
	}
	// The subscriber converged onto the new server.
	deadline := time.Now().Add(3 * time.Second)
	for i := 0; d.nodes[home].Broker.Subscribers("moving") != 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never left the old server")
		}
		publish(fmt.Sprintf("nudge-%d", i))
		time.Sleep(100 * time.Millisecond)
	}
	if err := l.Wait(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestTCPMigrationTargetBehindPlan moves a subscribed channel on its old
// home only: the target still holds the old plan, so its dispatcher answers
// the subscriber's cursor subscribe with a SWITCH back to the old home, on
// the same connection and ahead of the CSUBSCRIBE ack. The move must still
// finish at once, resume by cursor, and leave the old home.
func TestTCPMigrationTargetBehindPlan(t *testing.T) {
	d := startTCPDeployment(t, 2)
	sub, pub := d.connectPair(t, 611, 612)
	subscribeWarm(t, sub, pub, "behind")

	home, _, next := d.moveTo("behind", func(_, other plan.ServerID) plan.Entry {
		return plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{other}}
	})
	d.nodes[home].Dispatcher.ApplyPlan(next)
	start := time.Now()
	if err := pub.Publish("behind", []byte("after")); err != nil {
		t.Fatal(err)
	}
	for d.nodes[home].Broker.Subscribers("behind") != 0 || sub.Stats().ReplayRequests < 1 {
		if time.Since(start) > time.Second {
			t.Fatalf("after %v the subscriber still holds %d subscription(s) on its old home, %d replay requests",
				time.Since(start), d.nodes[home].Broker.Subscribers("behind"), sub.Stats().ReplayRequests)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("moved in %v", time.Since(start))
}

// TestTCPReplicateUnderTraffic replicates a channel under steady traffic
// (all-subscribers on its home and another server, on both dispatchers): the
// new replica's dispatcher announces the replica set to the subscriber, on
// the same connection and ahead of the CSUBSCRIBE ack. Deliveries must not
// pause for it.
func TestTCPReplicateUnderTraffic(t *testing.T) {
	d := startTCPDeployment(t, 2)
	sub, pub := d.connectPair(t, 621, 622)
	msgs, _ := subscribeWarm(t, sub, pub, "spread")

	_, _, next := d.moveTo("spread", func(home, other plan.ServerID) plan.Entry {
		return plan.Entry{Strategy: plan.StrategyAllSubscribers, Servers: []plan.ServerID{home, other}}
	})
	var arrivals []time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range msgs {
			if m.Payload[0] == 'p' {
				arrivals = append(arrivals, time.Now())
			}
		}
	}()
	start := time.Now()
	for _, node := range d.nodes {
		node.Dispatcher.ApplyPlan(next.Clone())
	}
	const n = 100 // 2 s at one publication per 20 ms
	for i := 0; i < n; i++ {
		if err := pub.Publish("spread", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for deadline := time.Now().Add(time.Second); sub.Stats().ReplayRequests < 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	sub.Close()
	<-done
	last, longest := start, time.Duration(0)
	for _, at := range append(arrivals, time.Now()) {
		if gap := at.Sub(last); gap > longest {
			longest = gap
		}
		last = at
	}
	replays := sub.Stats().ReplayRequests
	t.Logf("%d of %d delivered, longest gap %v, %d replay requests", len(arrivals), n, longest, replays)
	if longest >= time.Second || replays < 1 {
		t.Fatalf("deliveries paused for %v across the move, %d replay requests; want under 1 s and 1", longest, replays)
	}
}

// cursorRefuser is a RESP endpoint that acknowledges SUBSCRIBE, UNSUBSCRIBE
// and PUBLISH and refuses every CSUBSCRIBE with -ERR. On the first
// connection that subscribes to its channel it pushes one stamped
// publication there and then drops the connection, so the client's redial
// resumes that subscription by cursor. It logs each command but PUBLISH.
type cursorRefuser struct {
	addr    string
	channel string

	mu     sync.Mutex
	conns  int
	pushed bool
	log    []refuserCmd
}

type refuserCmd struct {
	conn    int
	cmd, ch string
}

func newCursorRefuser(t *testing.T, channel string) *cursorRefuser {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &cursorRefuser{addr: ln.Addr().String(), channel: channel}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns++
			id := s.conns
			s.mu.Unlock()
			go s.serve(id, conn)
		}
	}()
	return s
}

func (s *cursorRefuser) serve(id int, conn net.Conn) {
	defer conn.Close()
	r, w := resp.NewReader(conn), resp.NewWriter(conn)
	for {
		v, err := r.ReadValue()
		if err != nil || len(v.Array) < 2 {
			return
		}
		cmd, arg := strings.ToUpper(string(v.Array[0].Str)), string(v.Array[1].Str)
		switch cmd {
		case "PUBLISH":
			w.WriteInteger(0) //nolint:errcheck // a dead peer ends the read loop
			w.Flush()         //nolint:errcheck
			continue
		case "CSUBSCRIBE":
			w.WriteError("ERR malformed cursor") //nolint:errcheck
		default:
			w.WriteArrayHeader(3)                   //nolint:errcheck
			w.WriteBulkString(strings.ToLower(cmd)) //nolint:errcheck
			w.WriteBulkString(arg)                  //nolint:errcheck
			w.WriteInteger(1)                       //nolint:errcheck
		}
		s.mu.Lock()
		s.log = append(s.log, refuserCmd{id, cmd, arg})
		first := cmd == "SUBSCRIBE" && arg == s.channel && !s.pushed
		s.pushed = s.pushed || first
		s.mu.Unlock()
		if first {
			env := message.Envelope{Type: message.TypeData, ID: message.ID{Node: 7, Seq: 1}, Channel: arg, Payload: []byte("stamped"), Epoch: 5, ChannelSeq: 1}
			w.WriteArrayHeader(3)        //nolint:errcheck
			w.WriteBulkString("message") //nolint:errcheck
			w.WriteBulkString(arg)       //nolint:errcheck
			w.WriteBulk(env.Marshal())   //nolint:errcheck
			w.Flush()                    //nolint:errcheck
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// resubscribed reports whether a connection that had its CSUBSCRIBE to the
// channel refused then subscribed to it plainly.
func (s *cursorRefuser) resubscribed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	refused := map[int]bool{}
	for _, l := range s.log {
		switch {
		case l.ch != s.channel:
		case l.cmd == "CSUBSCRIBE":
			refused[l.conn] = true
		case l.cmd == "SUBSCRIBE" && refused[l.conn]:
			return true
		}
	}
	return false
}

// TestRejectedCursorEndsSubscribed: a server that refuses the resume cursor
// leaves the channel unsubscribed, so the client subscribes plainly.
func TestRejectedCursorEndsSubscribed(t *testing.T) {
	srv := newCursorRefuser(t, "room")
	c, err := dynamoth.Connect(dynamoth.Config{
		Addrs:        map[string]string{"s1": srv.addr},
		NodeID:       631,
		EntryTimeout: 4 * time.Second, // a repair sweep every second
		RedialMin:    time.Millisecond,
		RedialMax:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msgs, err := c.Subscribe("room")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-msgs:
	case <-time.After(3 * time.Second):
		t.Fatal("the stamped publication never arrived")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !srv.resubscribed() {
		if time.Now().After(deadline) {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			t.Fatalf("no plain SUBSCRIBE after the refused cursor; server saw %+v", srv.log)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
