package dynamoth

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/hotstate"
	"github.com/dynamoth/dynamoth/internal/localplan"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/metrics"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/trace"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// Message is a publication delivered to a subscriber.
type Message struct {
	// Channel the publication was made on.
	Channel string
	// Payload is the application data. The slice is owned by the receiver.
	Payload []byte
	// Publisher is the numeric node ID of the publishing client (0 if
	// unknown).
	Publisher uint32
	// ChannelEpoch and ChannelSeq are the broker-assigned replay position of
	// this publication: the ring incarnation it was retained under and its
	// dense per-channel sequence within it. Both are 0 when the delivering
	// broker has replay disabled.
	ChannelEpoch uint64
	ChannelSeq   uint64
}

// Config configures a client.
type Config struct {
	// Addrs maps bootstrap pub/sub server IDs to TCP addresses. Used by
	// Connect; ignored when a custom dialer is supplied.
	Addrs map[string]string
	// NodeID identifies this client; 0 picks a random ID. IDs must be
	// unique across the deployment (they key message deduplication).
	NodeID uint32
	// EntryTimeout is the local plan entry timer of §IV-A5: entries unused
	// for this long (and not subscribed) revert to consistent hashing.
	// Default 30 s.
	EntryTimeout time.Duration
	// SubscribeBuffer bounds the messages waiting, unread, on one
	// subscription's stream; when that many wait, the newest message is
	// dropped (slow application) and counted in Stats.Dropped. Default 256.
	// It is not preallocated: the stream's channel holds at most 32 and a
	// backlog holds the rest only while they wait. Unsubscribe and Close
	// leave at most 32 unread messages readable on the closed stream; the
	// rest are dropped.
	SubscribeBuffer int
	// Clock provides time (default real). Accelerated tests inject a
	// scaled clock.
	Clock clock.Clock
	// Seed seeds the replica-picking RNG (0 = nondeterministic).
	Seed int64
	// DialTimeout bounds TCP connection establishment for Connect's dialer
	// (default 5 s). Ignored when a custom dialer is supplied to
	// ConnectWithDialer.
	DialTimeout time.Duration
	// RedialMin and RedialMax bound the jittered exponential backoff
	// between reconnection attempts to a failed server (defaults 100 ms
	// and 5 s). While a server is backing off, publishes and subscription
	// repairs fail over to its ring successor instead of redialing it.
	RedialMin time.Duration
	RedialMax time.Duration
	// Recorder receives the client's reconfiguration events (switch
	// receipts, migrations, suppressed duplicates, redials, substitutions). Nil
	// records nothing; the publish and delivery hot paths are untouched
	// either way.
	Recorder *trace.Recorder
	// OnReplayGap is invoked when a re-homed subscription's resume cursor
	// asked for frames the broker's replay ring had already overwritten — a
	// definite, unrecoverable delivery gap of missed frames on channel. Nil
	// means the gap is only counted (Stats.ReplayGapFrames and the
	// dynamoth_client_replay_gap_unrecoverable_total metric). It runs on a
	// transport goroutine holding no client lock, so it may call into the
	// client; over TCP, that server's deliveries wait until it returns. A
	// gap answered after Close is not reported.
	OnReplayGap func(channel string, missed uint64)
	// Logger receives structured client logs. Nil discards.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() error {
	if c.EntryTimeout <= 0 {
		c.EntryTimeout = localplan.DefaultTimeout
	}
	if c.SubscribeBuffer <= 0 {
		c.SubscribeBuffer = 256
	}
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.NodeID == 0 {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return fmt.Errorf("dynamoth: generating node ID: %w", err)
		}
		c.NodeID = binary.LittleEndian.Uint32(b[:]) | 1 // never zero
	}
	if c.Seed == 0 {
		c.Seed = int64(c.NodeID)
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RedialMin <= 0 {
		c.RedialMin = 100 * time.Millisecond
	}
	if c.RedialMax <= 0 {
		c.RedialMax = 5 * time.Second
	}
	return nil
}

// Client errors.
var (
	ErrClosed        = errors.New("dynamoth: client closed")
	ErrNotSubscribed = errors.New("dynamoth: not subscribed")
	ErrNoServers     = errors.New("dynamoth: no bootstrap servers")
)

// Stats are client-side counters.
type Stats struct {
	Published uint64 // publications sent (per target server)
	Received  uint64 // data messages delivered to the application
	// Duplicates counts messages suppressed by deduplication. Each one is
	// also recorded once as a trace.KindDuplicate event, which the rebalance
	// timelines attribute to the migration that caused it.
	Duplicates   uint64
	Dropped      uint64 // messages dropped on full streams, or discarded as they closed
	Redirects    uint64 // wrong-server/switch notifications processed
	DialFailures uint64 // failed dial attempts (each arms redial backoff)
	Redials      uint64 // successful reconnections after a failure or disconnect
	// ReplayRequests counts cursor-based resubscribes issued when a
	// subscription was re-homed; ReplayedFrames is how many retained frames
	// brokers replayed to fill the resulting gaps. ReplayGapFrames counts
	// frames declared unrecoverable (the ring had already overwritten them) —
	// the only delivery loss the replay machinery cannot close.
	ReplayRequests  uint64
	ReplayedFrames  uint64
	ReplayGapFrames uint64
}

// Client is a Dynamoth pub/sub client: a standard publish/subscribe API
// backed by a lazily maintained partial plan (§II-C).
//
// The steady-state hot paths — Publish and message delivery — take no
// client-wide lock: they read learned routes from the concurrent-safe local
// plan, subscriptions from a concurrent map, and connections from an
// immutable snapshot behind an atomic pointer. c.mu serializes only
// control-plane mutations (plan updates, subscription changes, dialing,
// repair); none of them copies the subscriptions or the learned routes, so
// a mutation costs the same however many the client holds.
type Client struct {
	cfg    Config
	dialer transport.Dialer
	gen    *message.Generator
	dedup  *message.Deduper

	// rngState is the xorshift64 state behind pick (replica selection for
	// replicated channels) — lock-free, seeded from cfg.Seed.
	rngState atomic.Uint64

	// route is the copy-on-write connection snapshot read by Publish.
	route atomic.Pointer[routeTable]
	// subs maps a channel to its *subscription: read lock-free by delivery,
	// written under mu.
	subs sync.Map

	// backoff computes redial delays; dials (under c.mu) holds the sticky
	// per-server failure state that gates connLocked.
	backoff transport.Backoff

	mu    sync.Mutex
	local *localplan.Store
	// routes decides where every subscription lives, the inbox included, and
	// records where it does; the client only carries its decisions out.
	routes *localplan.Router
	conns  map[plan.ServerID]*clientConn
	dials  map[plan.ServerID]*dialBackoff
	// repairs holds the subscriptions (the inbox included) lost with a
	// server and not yet re-homed; maintain retries them until one succeeds.
	repairs map[string]struct{}
	closed  bool

	published    atomic.Uint64
	received     atomic.Uint64
	duplicates   atomic.Uint64
	dropped      atomic.Uint64
	redirects    atomic.Uint64
	dialFailures atomic.Uint64
	redials      atomic.Uint64

	replayRequests atomic.Uint64 // cursor resubscribes issued
	replayedFrames atomic.Uint64 // frames brokers replayed for us
	replayGaps     atomic.Uint64 // frames declared unrecoverable

	rec *trace.Recorder
	log *slog.Logger

	// e2e observes publish→deliver latency: publications are stamped in
	// sendToConns and the stamp is read back on every data delivery. This is
	// the full-path measurement behind the paper's latency CDFs (Fig. 8).
	e2e *metrics.Histogram
	// The client-side stage waterfall, decomposing e2e per delivery using
	// the broker's in-place stage marks: ingress (publisher send → broker
	// Publish entry), fanout (entry → fan-out enqueue), deliver (fan-out
	// enqueue → this client). The three legs sum to e2e exactly — all four
	// durations derive from one clock read against the same frame.
	stageIngress *metrics.Histogram
	stageFanout  *metrics.Histogram
	stageDeliver *metrics.Histogram
	// skewClamped counts deliveries whose e2e latency came out negative
	// (cross-machine clock skew) and was clamped by Observe — exported so
	// skew is visible instead of silently swallowed.
	skewClamped atomic.Uint64

	// repairKick wakes maintain for an immediate repair sweep after a
	// disconnect (capacity 1; losing a duplicate kick is fine).
	repairKick chan struct{}

	stop chan struct{}
	done chan struct{}
}

// dialBackoff is the sticky "server dead" state for one server: while
// Clock.Now() < nextTry every dial to it fails fast with lastErr, so
// publish and repair paths substitute a ring successor instead of
// hot-spinning against a dead endpoint. The state is dropped on the first
// successful dial.
type dialBackoff struct {
	attempts int
	nextTry  time.Time
	lastErr  error
}

// routeTable is an immutable snapshot of the dialed connection table for the
// lock-free publish path, republished under c.mu whenever a connection is
// added or dropped and at Close.
type routeTable struct {
	conns  map[plan.ServerID]*clientConn
	closed bool
}

type subscription struct {
	// stream is the application's delivery stream. It has its own lock, so
	// deliveries on different channels never contend, and a delivery cannot
	// race Unsubscribe/Close closing it.
	stream stream

	// track is the channel's delivery-continuity state: it turns the
	// (epoch, seq) stamps on arriving frames into the resume cursor a
	// re-homing presents to the new broker. It has its own lock.
	track seqTracker
}

// closeOut closes sub's delivery stream exactly once, counting what it
// discards in Dropped.
func (c *Client) closeOut(sub *subscription) {
	sub.stream.close(&c.received, &c.dropped)
}

type clientConn struct {
	conn   transport.Conn
	server plan.ServerID
}

// Connect dials a Dynamoth deployment over TCP using the bootstrap servers
// in cfg.Addrs.
func Connect(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, ErrNoServers
	}
	addrs := make(map[plan.ServerID]string, len(cfg.Addrs))
	servers := make([]string, 0, len(cfg.Addrs))
	for id, addr := range cfg.Addrs {
		addrs[id] = addr
		servers = append(servers, id)
	}
	d := transport.NewTCPDialer(addrs)
	if cfg.DialTimeout > 0 {
		d.DialTimeout = cfg.DialTimeout
	}
	return ConnectWithDialer(d, servers, cfg)
}

// ConnectWithDialer creates a client over an arbitrary transport. servers is
// the bootstrap server set (the consistent-hash ring of "plan 0"). Most
// callers use Connect or cluster.Cluster.NewClient instead.
func ConnectWithDialer(dialer transport.Dialer, servers []string, cfg Config) (*Client, error) {
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	inbox := plan.InboxChannel(cfg.NodeID)
	local := localplan.New(servers, cfg.EntryTimeout)
	c := &Client{
		cfg:     cfg,
		dialer:  dialer,
		gen:     message.NewGenerator(cfg.NodeID),
		dedup:   message.NewDeduper(0),
		local:   local,
		routes:  localplan.NewRouter(local, inbox),
		conns:   make(map[plan.ServerID]*clientConn),
		dials:   make(map[plan.ServerID]*dialBackoff),
		repairs: make(map[string]struct{}),
		rec:     cfg.Recorder,
		log:     trace.Component(cfg.Logger, "client"),
		e2e:     metrics.NewHistogram(100*time.Microsecond, 30*time.Second, 160),
		// Stage legs can be single-digit microseconds, so their floor sits
		// well below the e2e histogram's (see the node's stage histograms).
		stageIngress: metrics.NewHistogram(time.Microsecond, 30*time.Second, 200),
		stageFanout:  metrics.NewHistogram(time.Microsecond, 30*time.Second, 200),
		stageDeliver: metrics.NewHistogram(time.Microsecond, 30*time.Second, 200),
		repairKick:   make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	// Backoff jitter uses its own per-client seeded source (no global rand
	// lock); Delay is only called under c.mu, so the unlocked source is safe.
	c.backoff = transport.Backoff{Min: cfg.RedialMin, Max: cfg.RedialMax, Rand: transport.NewJitter(cfg.Seed)}
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	c.rngState.Store(seed)
	// Subscribe to this client's inbox so servers can redirect us
	// (§IV "Publishing on old server").
	c.mu.Lock()
	dialErr := errUnreachable
	home := c.routes.Subscribe(inbox, cfg.Clock.Now(), c.reachLocked(inbox, &dialErr))
	if len(home) == 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("dynamoth: connecting to bootstrap servers: %w", dialErr)
	}
	if err := c.moveLocked(&move{channel: inbox, add: home}); err != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("dynamoth: subscribing inbox: %w", err)
	}
	c.mu.Unlock()
	go c.maintain()
	return c, nil
}

// NodeID returns the client's node identity.
func (c *Client) NodeID() uint32 { return c.cfg.NodeID }

// Stats returns a snapshot of client counters.
func (c *Client) Stats() Stats {
	return Stats{
		Published:       c.published.Load(),
		Received:        c.received.Load(),
		Duplicates:      c.duplicates.Load(),
		Dropped:         c.dropped.Load(),
		Redirects:       c.redirects.Load(),
		DialFailures:    c.dialFailures.Load(),
		Redials:         c.redials.Load(),
		ReplayRequests:  c.replayRequests.Load(),
		ReplayedFrames:  c.replayedFrames.Load(),
		ReplayGapFrames: c.replayGaps.Load(),
	}
}

// E2ELatency returns the client's publish→deliver latency histogram:
// publications are stamped on send, and the stamp is read back when a data
// message arrives on any subscription.
func (c *Client) E2ELatency() *metrics.Histogram { return c.e2e }

// StageLatencies returns the client-side waterfall legs: ingress (publisher
// send → broker Publish entry), fanout (entry → fan-out enqueue) and deliver
// (fan-out enqueue → this client). Per delivery the three legs sum exactly
// to the e2e observation.
func (c *Client) StageLatencies() (ingress, fanout, deliver *metrics.Histogram) {
	return c.stageIngress, c.stageFanout, c.stageDeliver
}

// SkewClamped reports how many deliveries arrived with a negative e2e
// latency (cross-machine clock skew) that Observe clamped to zero.
func (c *Client) SkewClamped() uint64 { return c.skewClamped.Load() }

// RegisterMetrics exports the client's counters and end-to-end latency
// histogram on r under the dynamoth_client_* namespace. All reads happen at
// scrape time; registration adds nothing to the publish or delivery paths.
func (c *Client) RegisterMetrics(r *obs.Registry) {
	r.Counter("dynamoth_client_published_total",
		"Publications sent (counted per target server).",
		c.published.Load)
	r.Counter("dynamoth_client_received_total",
		"Data messages delivered to the application.",
		c.received.Load)
	r.Counter("dynamoth_client_duplicates_total",
		"Messages suppressed by deduplication.",
		c.duplicates.Load)
	r.Counter("dynamoth_client_dropped_total",
		"Messages dropped on full subscription streams, or discarded as they closed.",
		c.dropped.Load)
	r.Counter("dynamoth_client_redirects_total",
		"Wrong-server and switch notifications processed.",
		c.redirects.Load)
	r.Counter("dynamoth_client_dial_failures_total",
		"Failed dial attempts (each arms redial backoff).",
		c.dialFailures.Load)
	r.Counter("dynamoth_client_redials_total",
		"Successful reconnections after a failure or disconnect.",
		c.redials.Load)
	r.Counter("dynamoth_client_replay_requests_total",
		"Cursor-based resubscribes issued when a subscription was re-homed.",
		c.replayRequests.Load)
	r.Counter("dynamoth_client_replayed_total",
		"Frames brokers replayed to fill re-homing gaps.",
		c.replayedFrames.Load)
	r.Counter("dynamoth_client_replay_gap_unrecoverable_total",
		"Frames declared unrecoverable: the broker ring had already overwritten them.",
		c.replayGaps.Load)
	r.Counter("dynamoth_client_e2e_skew_clamped_total",
		"Deliveries whose e2e latency was negative (clock skew) and clamped to zero.",
		c.skewClamped.Load)
	r.Histogram("dynamoth_client_e2e_latency_seconds",
		"Publish-to-deliver latency observed by this client.",
		c.e2e, 0.5, 0.99, 0.999)
	r.Histogram("dynamoth_stage_latency_ingress_seconds",
		"Waterfall stage: publisher send to broker Publish entry.",
		c.stageIngress, 0.5, 0.99)
	r.Histogram("dynamoth_stage_latency_fanout_seconds",
		"Waterfall stage: broker Publish entry to fan-out enqueue.",
		c.stageFanout, 0.5, 0.99)
	r.Histogram("dynamoth_stage_latency_deliver_seconds",
		"Waterfall stage: broker fan-out enqueue to client delivery.",
		c.stageDeliver, 0.5, 0.99)
	r.RegisterCaches("dynamoth_client",
		hotstate.NamedStats{Name: "local_plan", Stats: c.local.CacheStats},
	)
}

// Flush blocks until every publish the client has issued so far is on the
// wire and acknowledged by its server, or timeout elapses. Publishing is
// pipelined (writes are acked asynchronously), so "Publish returned" does not
// mean "the broker has the message" — callers that need that barrier (a CLI
// about to exit, a harness about to tear the broker down) previously guessed
// with a sleep.
func (c *Client) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		pending := int64(0)
		for _, cc := range c.conns {
			pending += cc.conn.Outstanding()
		}
		c.mu.Unlock()
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dynamoth: flush timed out with %d publishes unacknowledged", pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// Publish sends payload on channel, routed by the client's current plan
// knowledge (explicit entry, else consistent hashing).
//
// The steady-state path reads the local plan and the connection snapshot and
// touches no client-wide lock; it falls back to the locked slow path only
// when a target server has no dialed connection yet.
func (c *Client) Publish(channel string, payload []byte) error {
	rt := c.route.Load()
	if rt == nil {
		return c.publishSlow(channel, payload)
	}
	if rt.closed {
		return ErrClosed
	}
	var version uint64
	var targetArr [1]plan.ServerID
	var targets []plan.ServerID
	if le, ok := c.local.Learned(channel); ok {
		le.Touch(c.cfg.Clock.Now())
		version = le.Version()
		targets = plan.PublishTargets(le.Entry(), c.pick)
	} else {
		// Consistent-hash fallback: one target, no Entry allocation.
		targetArr[0] = c.local.Base().Home(channel)
		targets = targetArr[:]
	}
	var connArr [4]*clientConn
	conns := connArr[:0]
	for _, s := range targets {
		cc, ok := rt.conns[s]
		if !ok {
			return c.publishSlow(channel, payload) // needs a dial (or substitution)
		}
		conns = append(conns, cc)
	}
	return c.sendToConns(channel, payload, version, conns)
}

// publishSlow is the locked publish path: it resolves (dialing or
// substituting) connections for the channel's targets; a dial republishes
// the connection snapshot, so the next Publish takes the fast path.
func (c *Client) publishSlow(channel string, payload []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	dialErr := errUnreachable
	targets, version := c.routes.Publish(channel, c.cfg.Clock.Now(), c.pick, c.reachLocked(channel, &dialErr))
	conns := make([]*clientConn, 0, len(targets))
	for _, s := range targets {
		conns = append(conns, c.conns[s])
	}
	c.mu.Unlock()

	if len(conns) == 0 {
		return fmt.Errorf("dynamoth: publish %q: %w", channel, dialErr)
	}
	return c.sendToConns(channel, payload, version, conns)
}

// sendToConns encodes the publication once, into a pooled buffer, and sends
// it to every target; Publish consumes the bytes before it returns.
func (c *Client) sendToConns(channel string, payload []byte, version uint64, conns []*clientConn) error {
	env := message.Envelope{
		Type:    message.TypeData,
		ID:      c.gen.Next(),
		Channel: channel,
		Payload: payload,
		// Publications carry the plan version the routing decision was
		// based on, so dispatchers can detect stale clients lazily.
		PlanVersion: version,
		// The publish stamp lets every hop (broker fan-out, subscriber
		// delivery) observe end-to-end latency.
		Stamp: c.cfg.Clock.Now().UnixNano(),
	}
	buf := message.GetBuffer()
	data := env.AppendMarshal((*buf)[:0])
	var firstErr error
	for _, cc := range conns {
		if err := cc.conn.Publish(channel, data); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			c.handleDisconnectedConn(cc, err)
			continue
		}
		c.published.Add(1)
	}
	*buf = data[:0]
	message.PutBuffer(buf)
	return firstErr
}

// Subscribe registers interest in channel and returns the delivery stream.
// Subscribing twice to the same channel returns the same stream.
func (c *Client) Subscribe(channel string) (<-chan Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if sub := c.sub(channel); sub != nil {
		return sub.stream.out, nil
	}
	dialErr := errUnreachable
	servers := c.routes.Subscribe(channel, c.cfg.Clock.Now(), c.reachLocked(channel, &dialErr))
	if len(servers) == 0 {
		return nil, fmt.Errorf("dynamoth: subscribe %q: %w", channel, dialErr)
	}
	// The stream is in place before SUBSCRIBE goes out: a server may fan
	// out to us as soon as it has registered the subscription.
	sub := &subscription{}
	sub.stream.init(c.cfg.SubscribeBuffer)
	c.subs.Store(channel, sub)
	if err := c.moveLocked(&move{channel: channel, add: servers}); err != nil {
		c.subs.Delete(channel)
		c.closeOut(sub)
		c.routes.Unsubscribe(channel)
		return nil, err
	}
	return sub.stream.out, nil
}

// Unsubscribe drops interest in channel and closes its stream, which keeps
// at most 32 unread messages readable (Config.SubscribeBuffer).
func (c *Client) Unsubscribe(channel string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	sub := c.sub(channel)
	if sub == nil {
		return ErrNotSubscribed
	}
	c.subs.Delete(channel)
	delete(c.repairs, channel)
	c.leaveLocked(channel, c.routes.Unsubscribe(channel))
	c.closeOut(sub)
	return nil
}

// Close shuts the client down, closing all connections and streams.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]*clientConn, 0, len(c.conns))
	for _, conn := range c.conns {
		conns = append(conns, conn)
	}
	c.conns = make(map[plan.ServerID]*clientConn)
	c.subs.Range(func(ch, sub any) bool {
		c.closeOut(sub.(*subscription))
		c.subs.Delete(ch)
		return true
	})
	c.rebuildRouteLocked()
	c.mu.Unlock()

	close(c.stop)
	for _, conn := range conns {
		_ = conn.conn.Close() // teardown
	}
	<-c.done
	return nil
}

// ---------------------------------------------------------------------------
// internals

// pick selects a replica index via a lock-free xorshift64 step (replacing a
// mutex-guarded math/rand: pick sits on the publish fast path).
func (c *Client) pick(n int) int {
	for {
		old := c.rngState.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if c.rngState.CompareAndSwap(old, x) {
			return int(x % uint64(n))
		}
	}
}

// rebuildRouteLocked republishes the connection snapshot read by Publish.
// Must be called under c.mu whenever c.conns or c.closed changes.
func (c *Client) rebuildRouteLocked() {
	rt := &routeTable{
		conns:  make(map[plan.ServerID]*clientConn, len(c.conns)),
		closed: c.closed,
	}
	for id, cc := range c.conns {
		rt.conns[id] = cc
	}
	c.route.Store(rt)
}

// sub returns channel's subscription, nil when there is none.
func (c *Client) sub(channel string) *subscription {
	sub, _ := c.subs.Load(channel)
	s, _ := sub.(*subscription)
	return s
}

// errUnreachable is the cause reported when routing found no server to use
// and no dial failed to say why.
var errUnreachable = errors.New("no reachable server")

// reachLocked is how the routing table sees the network from this client,
// for one channel: a server is reachable when it is connected or dials now
// (one inside its redial backoff fails fast, so the table moves on to a ring
// successor at once). A stand-in is traced; the last dial failure lands in
// *dialErr, when the caller wants it for its error.
func (c *Client) reachLocked(channel string, dialErr *error) localplan.Reach {
	return func(server, target plan.ServerID) bool {
		if _, err := c.connLocked(server); err != nil {
			if dialErr != nil {
				*dialErr = err
			}
			return false
		}
		if server != target {
			c.rec.Record(trace.KindSubstitute, 0, server, channel, 0, 0)
			c.log.Info("substituted ring successor",
				slog.String("channel", channel),
				slog.String("for", target),
				slog.String("server", server))
		}
		return true
	}
}

// leaveLocked unsubscribes channel on whichever of servers are still
// connected (best effort: a connection may be dying) and not where the
// routing table places it.
func (c *Client) leaveLocked(channel string, servers []plan.ServerID) {
	held, _ := c.routes.Servers(channel)
	for _, s := range servers {
		if conn, ok := c.conns[s]; ok && !slices.Contains(held, s) {
			_ = conn.conn.Unsubscribe(channel)
		}
	}
}

// connLocked returns (dialing if needed) the connection to a server. A
// server inside its redial-backoff window fails fast without touching the
// network, so callers substitute a ring successor immediately; each failed
// dial extends the window exponentially (jittered, capped).
func (c *Client) connLocked(server plan.ServerID) (*clientConn, error) {
	if conn, ok := c.conns[server]; ok {
		return conn, nil
	}
	now := c.cfg.Clock.Now()
	ds := c.dials[server]
	if ds != nil && now.Before(ds.nextTry) {
		return nil, fmt.Errorf("dynamoth: server %s in redial backoff: %w", server, ds.lastErr)
	}
	cc := &clientConn{server: server}
	conn, err := c.dialer.Dial(server, &connHandler{c: c, cc: cc})
	if err != nil {
		c.dialFailures.Add(1)
		c.armBackoffLocked(server, err)
		// The detail stays static so the recorder's intern table cannot grow
		// with error text; the log twin carries the specific error.
		c.rec.Record(trace.KindDialFail, 0, server, "dial", 0, 0)
		c.log.Warn("dial failed", slog.String("server", server), slog.Any("err", err))
		return nil, err
	}
	if ds != nil {
		delete(c.dials, server)
		c.redials.Add(1)
		c.rec.Record(trace.KindRedial, 0, server, "", int64(ds.attempts), 0)
		c.log.Info("reconnected", slog.String("server", server), slog.Int("attempts", ds.attempts))
	}
	cc.conn = conn
	c.conns[server] = cc
	c.rebuildRouteLocked()
	return cc, nil
}

// armBackoffLocked records a dial failure or disconnect for server and
// schedules the earliest next dial attempt.
func (c *Client) armBackoffLocked(server plan.ServerID, cause error) {
	ds := c.dials[server]
	if ds == nil {
		ds = &dialBackoff{}
		c.dials[server] = ds
	}
	ds.lastErr = cause
	ds.nextTry = c.cfg.Clock.Now().Add(c.backoff.Delay(ds.attempts))
	ds.attempts++
}

// move is one routing decision carried out: channel subscribed on add, then
// left on drop. why and planVersion label its replay events.
type move struct {
	channel     string
	add, drop   []plan.ServerID
	why         string
	planVersion uint64

	// What the resume cursor claimed, for the servers' answers.
	track *seqTracker
	sent  map[uint64]uint64
	// waiting counts the cursor subscribes not yet answered, plus one while
	// they are being sent; drop is left when it reaches zero.
	waiting atomic.Int32
}

// moveLocked is the one way a subscription lands on servers, first placement
// and every move alike. When the channel's tracker has consumed frames, each
// server in add is handed its resume cursor and replays the frames we are
// owed before live flow; otherwise — a new subscription, the inbox — it is a
// plain Subscribe. Nothing waits for a server's answer (see replayed). drop
// is left once every cursor subscribe is answered, so the old servers deliver
// until the new ones hold the subscription, and even when the subscribe
// failed: the routing table no longer records it, so no later decision would.
// It fails only when no server took the subscription.
func (c *Client) moveLocked(m *move) error {
	var cur message.Cursor
	resume := false
	if sub := c.sub(m.channel); sub != nil {
		m.track = &sub.track
		cur, m.sent, resume = m.track.cursor()
	}
	m.waiting.Store(1)
	var firstErr error
	okCount := 0
	for _, s := range m.add {
		cc, err := c.connLocked(s)
		if err == nil {
			if resume {
				m.waiting.Add(1)
				if err = cc.conn.SubscribeCursor(m.channel, cur, func(res transport.ReplayResult, err error) {
					c.replayed(m, cc, res, err)
				}); err != nil {
					m.waiting.Add(-1)
				}
			} else {
				err = cc.conn.Subscribe(m.channel)
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		okCount++
	}
	if m.waiting.Add(-1) == 0 {
		c.leaveLocked(m.channel, m.drop)
	}
	if okCount == 0 && firstErr != nil {
		return fmt.Errorf("dynamoth: subscribe %q: %w", m.channel, firstErr)
	}
	return nil
}

// replayed is where a server's answer to one of m's cursor subscribes lands,
// on a transport goroutine and outside c.mu (OnReplayGap is user code). A
// refused cursor left the channel unsubscribed on cc, so it is subscribed
// plainly while the routing table still places it there; the gap, if any,
// stays open in the tracker for the next move to claim. A closed connection
// leaves the channel to the repair of cc's server. The last answer leaves
// m.drop. A gap the broker declares overwritten is forgiven in the tracker
// (asking again can never succeed); what the tracker gave up is counted,
// recorded and reported. An answer that lands after Close is dropped.
func (c *Client) replayed(m *move, cc *clientConn, res transport.ReplayResult, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if err != nil && !errors.Is(err, transport.ErrClosed) {
		if servers, _ := c.routes.Servers(m.channel); c.conns[cc.server] == cc && slices.Contains(servers, cc.server) {
			_ = cc.conn.Subscribe(m.channel) // a failure surfaces as a disconnect
		}
	}
	if m.waiting.Add(-1) == 0 {
		c.leaveLocked(m.channel, m.drop)
	}
	c.mu.Unlock()
	if err != nil {
		return
	}
	c.replayRequests.Add(1)
	c.replayedFrames.Add(uint64(res.Replayed))
	var missed uint64
	if res.Missed > 0 {
		// Missed is relative to the contiguous sequence we claimed for the
		// matched epoch: everything up to sent+missed is gone.
		missed = m.track.forgive(res.Epoch, m.sent[res.Epoch]+res.Missed)
	}
	c.rec.Record(trace.KindReplay, m.planVersion, m.channel, m.why, int64(res.Replayed), int64(missed))
	if missed == 0 {
		return
	}
	c.replayGaps.Add(missed)
	c.rec.Record(trace.KindReplayGap, m.planVersion, m.channel, m.why, int64(missed), 0)
	c.log.Warn("unrecoverable replay gap",
		slog.String("channel", m.channel),
		slog.String("reason", m.why),
		slog.Uint64("missed", missed))
	if c.cfg.OnReplayGap != nil {
		c.cfg.OnReplayGap(m.channel, missed)
	}
}

// ReplayGaps reports the subscriptions' current open sequence holes: frames
// the replay machinery still expects a broker to replay or declare lost. At
// quiescence it is zero; the chaos suite asserts that.
func (c *Client) ReplayGaps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	c.subs.Range(func(_, sub any) bool {
		n += sub.(*subscription).track.openGaps()
		return true
	})
	return n
}

// handleMessage processes every inbound payload from any connection.
func (c *Client) handleMessage(channel string, payload []byte) {
	env, err := message.Unmarshal(payload)
	if err != nil {
		return // not Dynamoth traffic
	}
	switch env.Type {
	case message.TypeData, message.TypeForwarded:
		sub := c.sub(channel)
		if sub != nil {
			// Every copy consumes its broker's (epoch, seq), a suppressed
			// duplicate too: a forwarded frame re-stamped by another broker
			// would otherwise leave a phantom hole in that broker's sequence.
			sub.track.observe(env.Epoch, env.ChannelSeq, env.Stamp)
		}
		if c.dedup.Observe(env.ID) {
			// The one record of a duplicate: the counter, and one event the
			// rebalance timelines attribute to the move that caused it.
			c.duplicates.Add(1)
			c.rec.Record(trace.KindDuplicate, 0, channel, "", 1, 0)
			return
		}
		if env.Stamp != 0 {
			now := c.cfg.Clock.Now().UnixNano()
			age := now - env.Stamp
			if age < 0 {
				// Observe clamps negative durations (cross-machine clock
				// skew); count the clamp so skew is visible, not swallowed.
				c.skewClamped.Add(1)
			}
			c.e2e.Observe(time.Duration(age))
			if env.StageIngressUs != 0 {
				c.stageIngress.Observe(time.Duration(env.StageIngressUs) * time.Microsecond)
				if env.StageFanoutUs >= env.StageIngressUs {
					c.stageFanout.Observe(time.Duration(env.StageFanoutUs-env.StageIngressUs) * time.Microsecond)
					// The deliver leg closes the waterfall: everything after
					// the broker's fan-out enqueue, measured against the same
					// clock read as e2e so the three legs sum to it exactly.
					c.stageDeliver.Observe(time.Duration(now - (env.Stamp + int64(env.StageFanoutUs)*1000)))
				}
			}
		}
		// §IV-A5: receiving a publication resets the channel's entry timer
		// (atomic, so no lock beyond the store's own).
		if le, ok := c.local.Learned(channel); ok {
			le.Touch(c.cfg.Clock.Now())
		}
		if sub != nil { // nil: already unsubscribed, a late delivery
			c.deliver(sub, channel, env)
		}
	case message.TypeSwitch:
		c.redirects.Add(1)
		c.rec.Record(trace.KindSwitchRecv, env.PlanVersion, env.Channel, "", 0, int64(len(env.Servers)))
		c.applyControl(env, true)
	case message.TypeWrongServer:
		c.redirects.Add(1)
		c.applyControl(env, false)
	default:
		// Plans, load reports and drain notifications are for the
		// infrastructure, not clients.
	}
}

// deliver hands one data message to its subscription's stream.
func (c *Client) deliver(sub *subscription, channel string, env *message.Envelope) {
	msg := Message{
		Channel: channel,
		// The transport transferred payload ownership to us (Handler docs)
		// and env.Payload aliases it, so it goes to the application without
		// another copy.
		Payload:      env.Payload,
		Publisher:    env.ID.Node,
		ChannelEpoch: env.Epoch,
		ChannelSeq:   env.ChannelSeq,
	}
	sub.stream.deliver(msg, &c.received, &c.dropped)
}

// applyControl folds a SWITCH (isSwitch) or WRONG-SERVER notification into the
// routing table: the ring it carries, which may re-home the inbox, and the
// channel's new mapping. A SWITCH on a subscribed channel moves the
// subscription: the new servers first, presenting the resume cursor so they
// replay anything the drain window would lose, then the abandoned ones; the
// deduper absorbs the overlap. A failed subscribe surfaces as a disconnect,
// which repairs it.
func (c *Client) applyControl(env *message.Envelope, isSwitch bool) {
	channel := env.Channel
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	inbox := plan.InboxChannel(c.cfg.NodeID)
	add, drop := c.routes.Ring(env.RingServers, env.PlanVersion, c.reachLocked(inbox, nil))
	_ = c.moveLocked(&move{channel: inbox, add: add, drop: drop})
	e := plan.Entry{Strategy: plan.Strategy(env.Strategy), Servers: env.Servers}
	add, drop, moved := c.routes.Learn(channel, e, env.PlanVersion, isSwitch, c.cfg.Clock.Now(), c.reachLocked(channel, nil))
	if !moved {
		c.mu.Unlock()
		return
	}
	_ = c.moveLocked(&move{channel: channel, add: add, drop: drop, why: "switch", planVersion: env.PlanVersion})
	servers, _ := c.routes.Servers(channel)
	c.mu.Unlock()
	c.rec.Record(trace.KindMigrate, env.PlanVersion, channel, "switch", 1, int64(len(servers)))
	c.log.Info("subscription migrated",
		slog.String("channel", channel),
		slog.Uint64("plan", env.PlanVersion),
		slog.Int("targets", len(servers)))
}

// errConnLost is the backoff cause when a connection died without a more
// specific error.
var errConnLost = errors.New("dynamoth: connection lost")

// handleDisconnectedConn drops a dead connection, arms redial backoff for
// its server (stopping hot-spin reconnects), queues every subscription the
// routing table held there — the inbox included — for repair, and wakes the
// maintenance loop to repair them immediately.
func (c *Client) handleDisconnectedConn(cc *clientConn, cause error) {
	if cause == nil {
		cause = errConnLost
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = cc.conn.Close()
		return
	}
	if current, ok := c.conns[cc.server]; ok && current == cc {
		delete(c.conns, cc.server)
	}
	c.armBackoffLocked(cc.server, cause)
	lost := c.routes.Lost(cc.server)
	for _, ch := range lost {
		c.repairs[ch] = struct{}{}
	}
	c.rebuildRouteLocked()
	c.mu.Unlock()
	_ = cc.conn.Close()
	if len(lost) > 0 {
		// Stranded subscriptions move to surviving replicas now, not at the
		// next timer sweep.
		select {
		case c.repairKick <- struct{}{}:
		default:
		}
	}
}

// sweepInterval is the maintenance cadence: entry-timer sweeps and repair
// run on it.
func (c *Client) sweepInterval() time.Duration {
	interval := c.cfg.EntryTimeout / 4
	if interval < time.Second {
		interval = time.Second
	}
	return interval
}

// maintain runs the entry-timer sweep (§IV-A5) and subscription repair.
func (c *Client) maintain() {
	defer close(c.done)
	ticker := c.cfg.Clock.NewTicker(c.sweepInterval())
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C():
			c.sweep()
		case <-c.repairKick:
			c.sweep()
		case <-c.stop:
			return
		}
	}
}

func (c *Client) sweep() {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	c.local.Sweep(now)
	repairs := make([]string, 0, len(c.repairs))
	for ch := range c.repairs {
		repairs = append(repairs, ch)
	}
	sort.Strings(repairs)
	for _, ch := range repairs {
		add, drop := c.routes.Repair(ch, c.reachLocked(ch, nil))
		if len(add) == 0 {
			continue // nothing reachable: retry next sweep
		}
		// The resume cursor turns the failover from "hope the overlap covered
		// it" into an explicit replay of the crash window from the successor's
		// ring (or, after a redial, from the same broker's ring).
		if err := c.moveLocked(&move{channel: ch, add: add, drop: drop, why: "failover"}); err != nil {
			continue // retry next sweep
		}
		delete(c.repairs, ch)
		if c.sub(ch) == nil {
			continue // the inbox: no stream to resume
		}
		// Plan 0: the timeline attributes a failover to the enclosing repair.
		c.rec.Record(trace.KindMigrate, 0, ch, "failover", 1, int64(len(add)))
		c.log.Info("subscription repaired",
			slog.String("channel", ch),
			slog.Int("targets", len(add)))
	}
	c.mu.Unlock()
}

// connHandler routes transport events back into the client.
type connHandler struct {
	c  *Client
	cc *clientConn
}

func (h *connHandler) OnMessage(channel string, payload []byte) {
	h.c.handleMessage(channel, payload)
}

func (h *connHandler) OnDisconnect(err error) {
	h.c.handleDisconnectedConn(h.cc, err)
}
