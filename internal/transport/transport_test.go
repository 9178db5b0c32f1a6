package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/netsim"
	"github.com/dynamoth/dynamoth/internal/plan"
)

type recHandler struct {
	mu     sync.Mutex
	msgs   [][2]string
	arrive chan struct{}
	disc   chan error
}

func newRecHandler() *recHandler {
	return &recHandler{arrive: make(chan struct{}, 128), disc: make(chan error, 1)}
}

func (h *recHandler) OnMessage(channel string, payload []byte) {
	h.mu.Lock()
	h.msgs = append(h.msgs, [2]string{channel, string(payload)})
	h.mu.Unlock()
	select {
	case h.arrive <- struct{}{}:
	default:
	}
}

func (h *recHandler) OnDisconnect(err error) { h.disc <- err }

func (h *recHandler) waitMsg(t *testing.T) [2]string {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		h.mu.Lock()
		if len(h.msgs) > 0 {
			m := h.msgs[0]
			h.msgs = h.msgs[1:]
			h.mu.Unlock()
			return m
		}
		h.mu.Unlock()
		select {
		case <-h.arrive:
		case <-deadline:
			t.Fatal("timed out waiting for message")
		}
	}
}

func memSetup(t *testing.T, opts MemDialerOptions) (*MemDialer, map[plan.ServerID]*broker.Broker) {
	t.Helper()
	brokers := map[plan.ServerID]*broker.Broker{
		"s1": broker.New(broker.Options{Name: "s1"}),
		"s2": broker.New(broker.Options{Name: "s2"}),
	}
	d := NewMemDialer(brokers, opts)
	t.Cleanup(func() {
		d.Close()
		for _, b := range brokers {
			b.Close()
		}
	})
	return d, brokers
}

func TestMemDialerPubSub(t *testing.T) {
	d, _ := memSetup(t, MemDialerOptions{})
	h := newRecHandler()
	conn, err := d.Dial("s1", h)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe("c"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Publish("c", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if m := h.waitMsg(t); m[0] != "c" || m[1] != "hello" {
		t.Fatalf("message=%v", m)
	}
	if err := conn.Unsubscribe("c"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Publish("c", []byte("gone")); err != nil {
		t.Fatal(err)
	}
	// Judge by the messages, not h.arrive: waitMsg can return the first
	// message before draining its arrival signal.
	time.Sleep(50 * time.Millisecond)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.msgs) != 0 {
		t.Fatalf("message after unsubscribe: %v", h.msgs)
	}
}

func TestMemDialerUnknownServer(t *testing.T) {
	d, _ := memSetup(t, MemDialerOptions{})
	if _, err := d.Dial("nope", newRecHandler()); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("err=%v", err)
	}
}

func TestMemDialerAddRemoveServer(t *testing.T) {
	d, _ := memSetup(t, MemDialerOptions{})
	b3 := broker.New(broker.Options{Name: "s3"})
	defer b3.Close()
	d.AddServer("s3", b3)
	h := newRecHandler()
	conn, err := d.Dial("s3", h)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	d.RemoveServer("s3")
	if _, err := d.Dial("s3", newRecHandler()); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("err=%v", err)
	}
}

func TestMemDialerLatencyInjection(t *testing.T) {
	// Fixed 30ms each way on a scaled clock: round trip must be >= 60ms
	// virtual but complete quickly in real time.
	clk := clock.NewScaled(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), 100)
	d, _ := memSetup(t, MemDialerOptions{
		Latency: &netsim.PathModel{WAN: netsim.Fixed(30 * time.Millisecond), LAN: time.Millisecond},
		Clock:   clk,
	})
	h := newRecHandler()
	conn, err := d.Dial("s1", h)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe("c"); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	if err := conn.Publish("c", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	h.waitMsg(t)
	rtt := clk.Since(start)
	if rtt < 60*time.Millisecond {
		t.Fatalf("virtual RTT=%v, want >=60ms", rtt)
	}
	if rtt > 2*time.Second {
		t.Fatalf("virtual RTT=%v, absurdly long", rtt)
	}
}

func TestMemDialerDisconnectNotification(t *testing.T) {
	d, brokers := memSetup(t, MemDialerOptions{})
	h := newRecHandler()
	conn, err := d.Dial("s2", h)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	brokers["s2"].Close()
	select {
	case err := <-h.disc:
		if err == nil {
			t.Fatal("nil disconnect reason")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no disconnect notification")
	}
}

func TestMemDialerExplicitCloseNoNotification(t *testing.T) {
	d, _ := memSetup(t, MemDialerOptions{})
	h := newRecHandler()
	conn, err := d.Dial("s1", h)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case err := <-h.disc:
		t.Fatalf("OnDisconnect after explicit close: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
}

// --- TCP -------------------------------------------------------------------

func tcpSetup(t *testing.T) *TCPDialer {
	t.Helper()
	b := broker.New(broker.Options{Name: "tcp1"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		broker.Serve(ln, b) //nolint:errcheck // ends on close
	}()
	t.Cleanup(func() {
		b.Close()
		ln.Close()
		<-served
	})
	return NewTCPDialer(map[plan.ServerID]string{"t1": ln.Addr().String()})
}

func TestTCPDialerPubSub(t *testing.T) {
	d := tcpSetup(t)
	h := newRecHandler()
	conn, err := d.Dial("t1", h)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe("news", "sports"); err != nil {
		t.Fatal(err)
	}
	// Subscription registration is asynchronous; retry the publish until
	// delivery (the subscriber ack ordering guarantees eventual success).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := conn.Publish("news", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-h.arrive:
			h.mu.Lock()
			m := h.msgs[len(h.msgs)-1]
			h.mu.Unlock()
			if m[0] != "news" || m[1] != "hello" {
				t.Fatalf("message=%v", m)
			}
			return
		case <-time.After(50 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("never received message over TCP")
			}
		}
	}
}

func TestTCPDialerBinaryPayload(t *testing.T) {
	d := tcpSetup(t)
	h := newRecHandler()
	conn, err := d.Dial("t1", h)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe("bin"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // allow the subscription to land
	payload := []byte{0x00, 0xff, '\r', '\n', 0x01}
	if err := conn.Publish("bin", payload); err != nil {
		t.Fatal(err)
	}
	m := h.waitMsg(t)
	if m[1] != string(payload) {
		t.Fatalf("binary payload mangled: %q", m[1])
	}
}

func TestTCPDialerUnknownServer(t *testing.T) {
	d := NewTCPDialer(nil)
	if _, err := d.Dial("ghost", newRecHandler()); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("err=%v", err)
	}
}

func TestTCPDialerDisconnect(t *testing.T) {
	b := broker.New(broker.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		broker.Serve(ln, b) //nolint:errcheck
	}()
	d := NewTCPDialer(map[plan.ServerID]string{"t1": ln.Addr().String()})
	h := newRecHandler()
	conn, err := d.Dial("t1", h)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe("x"); err != nil {
		t.Fatal(err)
	}
	// Kill the server.
	b.Close()
	ln.Close()
	<-served
	select {
	case <-h.disc:
	case <-time.After(2 * time.Second):
		t.Fatal("no disconnect notification")
	}
	if err := conn.Subscribe("y"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after disconnect err=%v", err)
	}
}

func TestTCPDialerAddRemove(t *testing.T) {
	d := NewTCPDialer(nil)
	d.AddServer("a", "127.0.0.1:1")
	d.RemoveServer("a")
	if _, err := d.Dial("a", newRecHandler()); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("err=%v", err)
	}
}

func TestPooledForwarderReusesAndRecovers(t *testing.T) {
	d, brokers := memSetup(t, MemDialerOptions{})
	f := NewPooledForwarder(d)
	defer f.Close()

	// Subscribe directly on the broker to observe forwarded publishes.
	got := make(chan string, 8)
	sess, err := brokers["s1"].Connect("observer", funcSink(func(_ string, payload []byte) {
		got <- string(payload)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Subscribe("fwd"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if err := f.ForwardPublish("s1", "fwd", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("forwarded publish %d never arrived", i)
		}
	}

	// Unknown server errors cleanly.
	if err := f.ForwardPublish("ghost", "fwd", []byte("x")); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("err=%v", err)
	}

	// Kill the broker: the pooled connection is evicted and later
	// forwards fail with a dial error instead of hanging.
	brokers["s2"].Close()
	if err := f.ForwardPublish("s2", "fwd", []byte("x")); err == nil {
		// The first call may succeed into a dying broker; the next must fail.
		deadline := time.Now().Add(2 * time.Second)
		for {
			if err := f.ForwardPublish("s2", "fwd", []byte("x")); err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("forwarding to a dead broker keeps succeeding")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

type funcSink func(channel string, payload []byte)

func (f funcSink) Deliver(channel string, payload []byte) { f(channel, payload) }
func (funcSink) Closed(error)                             {}
