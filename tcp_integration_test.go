package dynamoth_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
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

func TestTCPDeploymentMigrationUnderTraffic(t *testing.T) {
	d := startTCPDeployment(t, 2)

	sub, err := dynamoth.Connect(dynamoth.Config{Addrs: d.addrs, NodeID: 601})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := dynamoth.Connect(dynamoth.Config{Addrs: d.addrs, NodeID: 602})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	msgs, err := sub.Subscribe("moving")
	if err != nil {
		t.Fatal(err)
	}
	// Warm up the subscription.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if err := pub.Publish("moving", []byte("warm")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-msgs:
		case <-time.After(100 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("warmup failed")
			}
			continue
		}
		break
	}

	// Move the channel to the other server through the dispatchers' plan
	// channel, exactly as the LB does, then keep publishing across the
	// migration.
	current := d.orch.Plan()
	home := current.Home("moving")
	target := d.ids[0]
	if home == target {
		target = d.ids[1]
	}
	next := current.Clone()
	next.Version = current.Version + 1
	next.Set("moving", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{target}})
	data, err := next.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env := &message.Envelope{Type: message.TypePlan, ID: message.ID{Node: 9, Seq: 1}, Payload: data}
	conn, err := d.dialer.Dial(home, nopHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
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

	received := 0
	for i := 0; i < 20; i++ {
		if err := pub.Publish("moving", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		select {
		case <-msgs:
			received++
		case <-time.After(500 * time.Millisecond):
		}
	}
	if received < 18 { // tolerate in-flight raggedness at the edges
		t.Fatalf("received %d of 20 across migration", received)
	}
	// The subscriber converged onto the new server.
	deadline = time.Now().Add(3 * time.Second)
	for d.nodes[home].Broker.Subscribers("moving") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never left the old server")
		}
		if err := pub.Publish("moving", []byte("nudge")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-msgs:
		case <-time.After(100 * time.Millisecond):
		}
	}
}
