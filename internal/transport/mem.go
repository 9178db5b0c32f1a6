package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/netsim"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// MemDialer connects to in-process brokers, optionally injecting sampled
// WAN latency in both directions the way the paper's testbed did (§V-B).
// Its dialing endpoints are clients (netsim.Client), which selects the
// paper's 1-vs-2-sample rule. It is safe for concurrent use and supports
// servers joining at runtime (elasticity).
type MemDialer struct {
	mu      sync.RWMutex
	brokers map[plan.ServerID]*broker.Broker

	// latency model; nil disables injection.
	path *netsim.PathModel
	clk  clock.Clock
	dq   *netsim.DelayQueue

	// faults drops packets to/from failed servers; nil disables injection.
	faults *netsim.Faults

	rngMu sync.Mutex
	rng   *rand.Rand
}

// MemDialerOptions configures a MemDialer.
type MemDialerOptions struct {
	// Latency enables WAN latency injection with the given model.
	Latency *netsim.PathModel
	// Clock drives delayed delivery (required when Latency is set;
	// defaults to the real clock).
	Clock clock.Clock
	// Seed seeds the latency sampler (0 picks a fixed default).
	Seed int64
	// Faults, when set, drops packets to/from blackholed or lossy servers
	// on both legs (publish and delivery) without closing connections —
	// partitions look like silence, not like errors.
	Faults *netsim.Faults
}

// NewMemDialer creates a dialer over a set of in-process brokers.
func NewMemDialer(brokers map[plan.ServerID]*broker.Broker, opts MemDialerOptions) *MemDialer {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	d := &MemDialer{
		brokers: make(map[plan.ServerID]*broker.Broker, len(brokers)),
		path:    opts.Latency,
		clk:     opts.Clock,
		faults:  opts.Faults,
		rng:     rand.New(rand.NewSource(opts.Seed)),
	}
	for id, b := range brokers {
		d.brokers[id] = b
	}
	if d.path != nil {
		d.dq = netsim.NewDelayQueue(opts.Clock)
	}
	return d
}

// AddServer registers a broker that joined at runtime.
func (d *MemDialer) AddServer(id plan.ServerID, b *broker.Broker) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.brokers[id] = b
}

// RemoveServer deregisters a broker (despawned server). Existing
// connections die with the broker itself.
func (d *MemDialer) RemoveServer(id plan.ServerID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.brokers, id)
}

// Probe is the in-process liveness probe: there is no socket to time out
// on, so an unregistered server is ErrUnknownServer and a blackholed one
// fails as if no reply came within timeout.
func (d *MemDialer) Probe(server plan.ServerID, timeout time.Duration) error {
	d.mu.RLock()
	b := d.brokers[server]
	d.mu.RUnlock()
	if b == nil {
		return ErrUnknownServer
	}
	if d.faults != nil && d.faults.Blackholed(string(server)) {
		return fmt.Errorf("transport: probe %s: no reply within %v", server, timeout)
	}
	return nil
}

// Close stops the latency machinery. Connections must be closed by their
// owners.
func (d *MemDialer) Close() {
	if d.dq != nil {
		d.dq.Stop()
	}
}

func (d *MemDialer) sampleDelay(from, to netsim.NodeClass) time.Duration {
	if d.path == nil {
		return 0
	}
	d.rngMu.Lock()
	defer d.rngMu.Unlock()
	return d.path.Delay(from, to, d.rng)
}

// Dial implements Dialer.
func (d *MemDialer) Dial(server plan.ServerID, h Handler) (Conn, error) {
	d.mu.RLock()
	b := d.brokers[server]
	d.mu.RUnlock()
	if b == nil {
		return nil, ErrUnknownServer
	}
	mc := &memConn{dialer: d, server: server, handler: h}
	session, err := b.Connect("mem", memSink{mc})
	if err != nil {
		return nil, err
	}
	mc.session = session
	return mc, nil
}

// memConn is an in-process connection with optional latency on both legs.
type memConn struct {
	dialer  *MemDialer
	server  plan.ServerID
	session *broker.Session
	handler Handler

	closeOnce sync.Once
	explicit  atomic.Bool // read by the broker's Closed callback goroutine
}

var _ Conn = (*memConn)(nil)

func (c *memConn) Subscribe(channels ...string) error {
	_, err := c.session.Subscribe(channels...)
	return err
}

func (c *memConn) Unsubscribe(channels ...string) error {
	_, err := c.session.Unsubscribe(channels...)
	return err
}

func (c *memConn) Publish(channel string, payload []byte) error {
	if c.session.CloseReason() != nil {
		// A crashed or shut-down broker must surface as a publish error, like
		// a TCP write on a dead socket would — the caller's retry is what
		// moves a storm onto the successor.
		return ErrClosed
	}
	d := c.dialer
	if d.faults != nil && d.faults.Drop(string(c.server)) {
		// Lost on the wire: the connection stays up and the publisher gets
		// no error — exactly how a partitioned server looks from outside.
		return nil
	}
	// Copy before handing the broker the frame: a replay-enabled broker
	// stamps data envelopes in place and requires exclusive ownership, while
	// this payload may be shared across a multi-conn fan-out (and, with a
	// latency model, outlive this call in the delay queue).
	owned := append([]byte(nil), payload...)
	if d.dq == nil {
		// No latency model: publish synchronously.
		c.publishNow(channel, owned)
		if c.session.CloseReason() != nil {
			return ErrClosed
		}
		return nil
	}
	delay := d.sampleDelay(netsim.Client, netsim.Infra)
	d.dq.ScheduleAfter(delay, func() { c.publishNow(channel, owned) })
	return nil
}

// SubscribeCursor runs straight against the broker session: subscribe, then
// replay the cursor's gap from the channel's ring.
func (c *memConn) SubscribeCursor(channel string, cur message.Cursor) (ReplayResult, error) {
	res, err := c.session.SubscribeFrom(channel, cur)
	return ReplayResult{Replayed: res.Replayed, Missed: res.Missed, Epoch: res.Epoch}, err
}

// Outstanding is 0: Publish hands the frame over before it returns.
func (c *memConn) Outstanding() int64 { return 0 }

func (c *memConn) publishNow(channel string, payload []byte) {
	c.session.Broker().Publish(channel, payload)
}

func (c *memConn) Close() error {
	c.explicit.Store(true)
	c.closeOnce.Do(func() {
		c.session.Close()
	})
	return nil
}

// memSink adapts broker deliveries to the Handler, injecting the
// server→client latency leg.
type memSink struct{ c *memConn }

func (s memSink) Deliver(channel string, payload []byte) {
	// The broker shares one payload slice across its whole fan-out, while
	// OnMessage transfers ownership to the handler (see Handler docs) — copy
	// out. This is the same copy deliver() used to make client-side, moved
	// to the transport boundary.
	owned := append([]byte(nil), payload...)
	c := s.c
	d := c.dialer
	if d.faults != nil && d.faults.Drop(string(c.server)) {
		return // delivery leg lost on the wire
	}
	if d.dq == nil {
		c.handler.OnMessage(channel, owned)
		return
	}
	delay := d.sampleDelay(netsim.Infra, netsim.Client)
	d.dq.ScheduleAfter(delay, func() { c.handler.OnMessage(channel, owned) })
}

func (s memSink) Closed(reason error) {
	c := s.c
	if c.explicit.Load() {
		return
	}
	c.handler.OnDisconnect(reason)
}
