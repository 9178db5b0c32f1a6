// Package broker implements the standard channel-based pub/sub server that
// Dynamoth deploys on every node — the role Redis played in the paper
// (§II-A). It is deliberately "dumb": brokers are independent, never talk to
// each other, and know nothing about plans, replication, or rebalancing.
// All Dynamoth intelligence lives in the layers above (client library,
// dispatcher, LLA, load balancer), exactly as the paper requires so that any
// broker with the standard pub/sub interface could be substituted.
//
// Semantics mirror Redis pub/sub:
//
//   - PUBLISH is fire-and-forget fan-out to current subscribers; no
//     persistence, no acknowledgement beyond the receiver count.
//   - Each session has a bounded output buffer; a subscriber that cannot
//     keep up is disconnected (client-output-buffer-limit behavior), which
//     is the failure mode behind the paper's Fig. 4b.
//   - An observer hook sees every publication and (un)subscription — the
//     mechanism the LLA uses to gather per-channel metrics without
//     modifying the broker (§III-A).
//
// The delivery pipeline is engineered to be allocation- and contention-free
// in steady state (see DESIGN.md "Hot path"): the subscription registry is
// lock-striped across shards so publishes to different channels never
// contend, the per-publish scratch is pooled, and a TCP session's deliveries
// accumulate in one output buffer that its connection core writes out in as
// few syscalls as the socket allows.
package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dynamoth/dynamoth/internal/hotstate"
	"github.com/dynamoth/dynamoth/internal/message"
)

// Sink receives deliveries for one in-process session. Implementations must
// be fast; Deliver is called from the session's dedicated writer goroutine
// (Connect queues in front of a plain Sink; see EnqueueSink for sinks that
// queue for themselves).
type Sink interface {
	// Deliver hands the session one publication.
	Deliver(channel string, payload []byte)
	// Closed tells the sink its session is gone (overflow, Close, or
	// broker shutdown); no more Deliver calls will follow.
	Closed(reason error)
}

// PatternSink is optionally implemented by sinks that want pattern
// subscription deliveries attributed to the matching pattern (the Redis
// "pmessage" frame). Sinks without it receive pattern matches through
// Deliver like ordinary messages.
type PatternSink interface {
	// DeliverPattern hands the session a publication that matched one of
	// its pattern subscriptions.
	DeliverPattern(pattern, channel string, payload []byte)
}

// EnqueueSink is the one sink shape a Session delivers into: a sink that does
// its own output queueing and flushing. TCP connections implement it with a
// per-connection write buffer their connection core flushes; Connect wraps a
// plain Sink in a bounded queue drained by a writer goroutine. Enqueue must
// not block; returning false signals the session's buffer is full (slow
// consumer) and the broker disconnects it.
type EnqueueSink interface {
	Sink
	// Enqueue queues one delivery without blocking. pattern is non-empty
	// for pattern-subscription matches. It reports false when the session's
	// output buffer is over its limit. payload is borrowed for the call (it
	// may be a connection's read buffer, reused once the publish returns): a
	// sink copies what it queues and must not write to it.
	Enqueue(channel, pattern string, payload []byte) bool
}

// Observer sees broker events. Used by the local load analyzer. Callbacks
// run synchronously on the publishing/subscribing goroutine and must be
// cheap and non-blocking.
type Observer interface {
	// OnPublish fires for every publication with its receiver count. payload
	// is borrowed for the call, like a sink's: read it, copy what is kept.
	OnPublish(channel string, payload []byte, receivers int)
	// OnSubscribe fires when a session subscribes to a channel;
	// subscribers is the channel's subscriber count afterwards.
	OnSubscribe(channel, session string, subscribers int)
	// OnUnsubscribe fires when a session leaves a channel (including on
	// disconnect).
	OnUnsubscribe(channel, session string, subscribers int)
}

// FlushObserver is optionally implemented by Observers that also want the
// writer-flush stage of the latency waterfall: OnFlush fires once per
// delivery as the frame enters the connection's write buffer (the last
// broker-side instant before the socket) or, for an in-process session,
// leaves its queue for the sink. It runs concurrently with publishes, so
// implementations must be cheap and typically sample.
type FlushObserver interface {
	OnFlush(payload []byte)
}

// Session close reasons.
var (
	ErrSlowConsumer  = errors.New("broker: output buffer overflow")
	ErrBrokerClosed  = errors.New("broker: broker shut down")
	ErrSessionClosed = errors.New("broker: session closed")
)

// DefaultOutputBuffer is the output queue limit (messages) of an in-process
// session, calibrated per DESIGN.md §4 so one connection saturates where the
// paper's Redis did. TCP sessions are bounded in bytes instead
// (ServeOptions.WriteBufferLimit).
const DefaultOutputBuffer = 2000

// numShards is the lock-striping factor of the subscription registry. Must
// be a power of two. 32 shards keep the probability of two concurrent
// publishes hashing to the same stripe low at any realistic core count.
const numShards = 32

// Options configures a Broker.
type Options struct {
	// Name identifies the broker in logs and stats (e.g. "pub1").
	Name string
	// OutputBuffer is the outbound queue limit, in messages, of sessions
	// connected with a plain Sink; non-positive selects DefaultOutputBuffer.
	OutputBuffer int
	// ReplayDepth, when positive, keeps the last ReplayDepth data frames of
	// each channel in a replay ring and serves cursor-based resubscribes
	// (Session.SubscribeFrom / the CSUBSCRIBE command). 0 disables replay.
	ReplayDepth int
	// ReplayChannels bounds how many channels may hold a replay ring
	// (0 = DefaultReplayChannels, negative = unbounded). Rings of currently
	// subscribed channels are pinned against eviction.
	ReplayChannels int
	// NowNanos, when set, enables stage stamping: Publish writes the
	// broker-ingress and fanout-enqueue marks of the latency waterfall into
	// every stamped data envelope in place (message.StampStages) while it
	// still exclusively owns the frame. nil disables stamping (frames pass
	// through with zero stage offsets).
	NowNanos func() int64
}

// shard is one stripe of the channel→subscribers registry. Padded so two
// shards never share a cache line under concurrent publishes.
type shard struct {
	mu       sync.RWMutex
	channels map[string]map[*Session]struct{}
	_        [32]byte // pad to 64 bytes
}

// shardIndex hashes a channel name with FNV-1a onto a stripe.
func shardIndex(channel string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(channel); i++ {
		h ^= uint32(channel[i])
		h *= 16777619
	}
	return h & (numShards - 1)
}

// Broker is a single independent pub/sub server.
type Broker struct {
	name      string
	outBuffer int

	shards [numShards]shard

	// mu guards patterns, sessions, observer registration, and the closed
	// transition. It is off the publish hot path unless pattern
	// subscriptions exist.
	mu       sync.RWMutex
	patterns map[string]map[*Session]struct{}
	sessions map[*Session]struct{}

	// observers is copy-on-write: registration is rare, reads happen on
	// every publish. flushObs holds the observers that additionally
	// implement FlushObserver, extracted at registration so the flush path
	// pays one pointer load, not a type switch.
	observers atomic.Pointer[[]Observer]
	flushObs  atomic.Pointer[[]FlushObserver]

	// nowNanos enables in-place stage stamping on Publish (nil = disabled).
	nowNanos func() int64

	// patternSubs counts live (pattern, session) entries so Publish can
	// skip the glob scan entirely when no patterns exist (the common case).
	patternSubs atomic.Int64

	closed atomic.Bool

	// replay holds the per-channel sequenced frame rings (nil when replay
	// is disabled).
	replay *replayStore

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// New creates a broker.
func New(opts Options) *Broker {
	if opts.OutputBuffer <= 0 {
		opts.OutputBuffer = DefaultOutputBuffer
	}
	if opts.Name == "" {
		opts.Name = "broker"
	}
	b := &Broker{
		name:      opts.Name,
		outBuffer: opts.OutputBuffer,
		nowNanos:  opts.NowNanos,
		patterns:  make(map[string]map[*Session]struct{}),
		sessions:  make(map[*Session]struct{}),
	}
	for i := range b.shards {
		b.shards[i].channels = make(map[string]map[*Session]struct{})
	}
	if opts.ReplayDepth > 0 {
		b.replay = newReplayStore(opts.ReplayDepth, opts.ReplayChannels)
	}
	return b
}

// Name returns the broker's name.
func (b *Broker) Name() string { return b.name }

// AddObserver registers an observer (the LLA and the dispatcher each use
// one). Observers cannot be removed; they live as long as the broker.
func (b *Broker) AddObserver(o Observer) {
	if o == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var obs []Observer
	if cur := b.observers.Load(); cur != nil {
		obs = append(obs, *cur...)
	}
	obs = append(obs, o)
	b.observers.Store(&obs)
	if fo, ok := o.(FlushObserver); ok {
		var fos []FlushObserver
		if cur := b.flushObs.Load(); cur != nil {
			fos = append(fos, *cur...)
		}
		fos = append(fos, fo)
		b.flushObs.Store(&fos)
	}
}

// observeFlush hands a delivery frame to the flush observers as it leaves
// the broker's output queue. Called per delivery; one atomic load when no
// observer wants flushes.
func (b *Broker) observeFlush(payload []byte) {
	if obs := b.flushObs.Load(); obs != nil {
		for _, o := range *obs {
			o.OnFlush(payload)
		}
	}
}

func (b *Broker) notifyPublish(channel string, payload []byte, receivers int) {
	if obs := b.observers.Load(); obs != nil {
		for _, o := range *obs {
			o.OnPublish(channel, payload, receivers)
		}
	}
}

func (b *Broker) notifySubscribe(channel, session string, n int) {
	if obs := b.observers.Load(); obs != nil {
		for _, o := range *obs {
			o.OnSubscribe(channel, session, n)
		}
	}
}

func (b *Broker) notifyUnsubscribe(channel, session string, n int) {
	if obs := b.observers.Load(); obs != nil {
		for _, o := range *obs {
			o.OnUnsubscribe(channel, session, n)
		}
	}
}

// Connect opens a session delivering into sink. name labels the session for
// the observer. A sink that implements EnqueueSink is delivered into
// directly; any other gets a queue of Options.OutputBuffer messages and a
// writer goroutine in front of it.
func (b *Broker) Connect(name string, sink Sink) (*Session, error) {
	if sink == nil {
		return nil, errors.New("broker: nil sink")
	}
	es, ok := sink.(EnqueueSink)
	var q *queueSink
	if !ok {
		q = &queueSink{
			b:    b,
			sink: sink,
			out:  make(chan delivery, b.outBuffer),
			done: make(chan struct{}),
		}
		q.psink, _ = sink.(PatternSink)
		es = q
	}
	s := &Session{
		broker: b,
		name:   name,
		sink:   es,
		queued: q != nil,
		done:   make(chan struct{}),
		subs:   make(map[string]struct{}),
		psubs:  make(map[string]struct{}),
	}
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return nil, ErrBrokerClosed
	}
	b.sessions[s] = struct{}{}
	b.mu.Unlock()
	if q != nil {
		go q.writer()
	}
	return s, nil
}

// target pairs a destination session with the pattern that matched it
// (empty for direct channel subscriptions). One slice of pairs replaces the
// parallel receivers/targets slices the fan-out used to build, so the two
// can never drift apart.
type target struct {
	s       *Session
	pattern string
}

// targetPool recycles the per-publish fan-out scratch so steady-state
// Publish performs zero allocations.
var targetPool = sync.Pool{New: func() any { return new([]target) }}

// Publish fans payload out to every subscriber of channel and returns the
// number of sessions it was queued for (the Redis PUBLISH reply). Sessions
// whose output buffer is full are disconnected, not blocked on.
//
// On a replay-enabled broker, a data-envelope payload is stamped in place
// with its (epoch, channelSeq) replay coordinates before fan-out; with
// stage stamping enabled (Options.NowNanos) the broker-ingress and
// fanout-enqueue waterfall marks are written the same way. The caller hands
// payload over: in-process sessions queue the slice itself, so it must not be
// touched again.
func (b *Broker) Publish(channel string, payload []byte) int {
	return b.publish(channel, payload, false)
}

// publish is Publish for either ownership: lent says payload is only borrowed
// for the call (a connection's read buffer, writable meanwhile). Bytes handed
// down the publish path are borrowed; whoever keeps them copies them — the
// replay ring and every connection's write buffer do anyway, so a lent payload
// is copied here only for in-process queues, once, if there are any.
func (b *Broker) publish(channel string, payload []byte, lent bool) int {
	if b.closed.Load() {
		return 0
	}
	var ingressNs int64 // broker-ingress instant (0 = stamping disabled)
	if b.nowNanos != nil {
		ingressNs = b.nowNanos()
	}
	if b.replay != nil {
		// Retain (and sequence-stamp) before reading the subscriber set:
		// SubscribeFrom registers the subscription before snapshotting the
		// ring, so a concurrent publication is always seen by the replay,
		// the live flow, or both — never neither.
		b.replay.retain(channel, payload)
	}
	hasPatterns := b.patternSubs.Load() > 0
	sh := &b.shards[shardIndex(channel)]
	sh.mu.RLock()
	subs := sh.channels[channel]
	if len(subs) == 0 && !hasPatterns {
		// Early exit: nobody could possibly receive this. No slice work.
		sh.mu.RUnlock()
		if ingressNs != 0 {
			message.StampStages(payload, ingressNs, b.nowNanos())
		}
		b.published.Add(1)
		b.notifyPublish(channel, payload, 0)
		return 0
	}
	tp := targetPool.Get().(*[]target)
	ts := (*tp)[:0]
	for s := range subs {
		ts = append(ts, target{s: s})
	}
	sh.mu.RUnlock()

	if hasPatterns {
		b.mu.RLock()
		for pattern, set := range b.patterns {
			if !globMatch(pattern, channel) {
				continue
			}
			for s := range set {
				ts = append(ts, target{s: s, pattern: pattern})
			}
		}
		b.mu.RUnlock()
	}

	// Stage-stamp while the frame is still exclusively ours: ingress at
	// Publish entry, fanout now — the last instant before a subscriber
	// queue (and its concurrently-reading writer) can see the bytes.
	if ingressNs != 0 {
		message.StampStages(payload, ingressNs, b.nowNanos())
	}

	delivered := 0
	var overflowed []*Session
	var owned []byte // the in-process queues' copy of a lent payload
	for i := range ts {
		s := ts[i].s
		if s.closed.Load() {
			continue // session is gone; skip
		}
		p := payload
		if lent && s.queued {
			if owned == nil {
				owned = append([]byte(nil), payload...)
			}
			p = owned
		}
		if !s.sink.Enqueue(channel, ts[i].pattern, p) {
			// Output buffer full: slow consumer, disconnect it.
			overflowed = append(overflowed, s)
			continue
		}
		delivered++
	}
	clear(ts) // drop *Session references so the pool does not pin them
	*tp = ts[:0]
	targetPool.Put(tp)

	for _, s := range overflowed {
		b.dropped.Add(1)
		s.close(ErrSlowConsumer)
	}

	b.published.Add(1)
	b.delivered.Add(uint64(delivered))
	b.notifyPublish(channel, payload, delivered)
	return delivered
}

// Subscribers returns the current subscriber count of a channel.
func (b *Broker) Subscribers(channel string) int {
	sh := &b.shards[shardIndex(channel)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.channels[channel])
}

// Channels returns the names of channels with at least one subscriber.
func (b *Broker) Channels() []string {
	var out []string
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		for ch := range sh.channels {
			out = append(out, ch)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Stats reports broker counters.
type Stats struct {
	Sessions  int
	Channels  int
	Published uint64 // publications accepted
	Delivered uint64 // per-subscriber deliveries queued
	Dropped   uint64 // sessions killed for slow consumption

	// Replay-ring counters (all zero when replay is disabled).
	ReplayRings    int    // channels currently holding a replay ring
	ReplayBytes    int64  // frame bytes those rings currently hold
	ReplayRetained uint64 // data frames appended to replay rings
	ReplayRequests uint64 // cursor subscribes served
	ReplayedFrames uint64 // frames replayed to sessions
	ReplayMissed   uint64 // requested frames already overwritten (gaps)
}

// Stats returns a snapshot of broker counters.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	sessions := len(b.sessions)
	b.mu.RUnlock()
	channels := 0
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		channels += len(sh.channels)
		sh.mu.RUnlock()
	}
	st := Stats{
		Sessions:  sessions,
		Channels:  channels,
		Published: b.published.Load(),
		Delivered: b.delivered.Load(),
		Dropped:   b.dropped.Load(),
	}
	if b.replay != nil {
		st.ReplayRings = b.replay.rings.Len()
		st.ReplayBytes = b.replay.bytes.Load()
		st.ReplayRetained = b.replay.retained.Load()
		st.ReplayRequests = b.replay.requests.Load()
		st.ReplayedFrames = b.replay.replayed.Load()
		st.ReplayMissed = b.replay.missed.Load()
	}
	return st
}

// ReplayEnabled reports whether this broker keeps replay rings.
func (b *Broker) ReplayEnabled() bool { return b.replay != nil }

// ReplayCacheStats snapshots the replay-ring bounding cache's counters for
// metric export (zero when replay is disabled).
func (b *Broker) ReplayCacheStats() hotstate.Stats {
	if b.replay == nil {
		return hotstate.Stats{}
	}
	return b.replay.rings.Stats()
}

// ReplayHead reports channel's current ring position — its epoch and the
// last sequence stamped — so a dispatcher handing a channel off at drain
// completion can record how far the old holder's replay window reaches. ok
// is false when replay is disabled or the channel has no ring (Peek: the
// probe must not disturb eviction order).
func (b *Broker) ReplayHead(channel string) (epoch, head uint64, ok bool) {
	if b.replay == nil {
		return 0, 0, false
	}
	r, found := b.replay.rings.Peek(channel)
	if !found {
		return 0, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch, r.head, true
}

// Close shuts the broker down, closing every session.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	b.closed.Store(true)
	sessions := make([]*Session, 0, len(b.sessions))
	for s := range b.sessions {
		sessions = append(sessions, s)
	}
	b.mu.Unlock()
	for _, s := range sessions {
		s.close(ErrBrokerClosed)
	}
}

// removeSession detaches a session from all state. Called exactly once per
// session from Session.close.
func (b *Broker) removeSession(s *Session, subs, psubs []string) {
	if len(psubs) > 0 {
		b.mu.Lock()
		for _, p := range psubs {
			if set := b.patterns[p]; set != nil {
				if _, ok := set[s]; ok {
					delete(set, s)
					b.patternSubs.Add(-1)
					if len(set) == 0 {
						delete(b.patterns, p)
					}
				}
			}
		}
	} else {
		b.mu.Lock()
	}
	delete(b.sessions, s)
	b.mu.Unlock()
	for _, ch := range subs {
		sh := &b.shards[shardIndex(ch)]
		sh.mu.Lock()
		set := sh.channels[ch]
		if set == nil {
			sh.mu.Unlock()
			continue
		}
		if _, ok := set[s]; !ok {
			sh.mu.Unlock()
			continue
		}
		delete(set, s)
		count := len(set)
		if count == 0 {
			delete(sh.channels, ch)
			if b.replay != nil {
				b.replay.pin(ch, false)
			}
		}
		sh.mu.Unlock()
		b.notifyUnsubscribe(ch, s.name, count)
	}
}

// delivery is one message queued for a plain Sink. pattern is non-empty for
// pattern-subscription matches.
type delivery struct {
	channel string
	payload []byte
	pattern string
}

// queueSink is the EnqueueSink Connect puts in front of a plain Sink: a
// bounded queue drained into the sink by one writer goroutine — the
// in-process counterpart of a connection's write buffer and flusher. A full
// queue is the slow-consumer signal.
type queueSink struct {
	b     *Broker
	sink  Sink
	psink PatternSink // sink's pmessage side; nil when it has none
	out   chan delivery
	done  chan struct{} // closed by Closed; stops the writer
}

func (q *queueSink) Enqueue(channel, pattern string, payload []byte) bool {
	select {
	case q.out <- delivery{channel: channel, payload: payload, pattern: pattern}:
		return true
	default:
		return false
	}
}

// Deliver implements Sink; the broker only ever calls Enqueue.
func (q *queueSink) Deliver(channel string, payload []byte) {
	q.sink.Deliver(channel, payload)
}

// Closed stops the writer and passes the news on. It runs on the closing
// goroutine: the writer may be blocked inside Deliver (that is exactly the
// slow-consumer case) and Closed implementations unblock it.
func (q *queueSink) Closed(reason error) {
	close(q.done)
	q.sink.Closed(reason)
}

// writer drains the queue into the sink. Like a Redis disconnect, Closed
// drops anything still queued.
func (q *queueSink) writer() {
	for {
		select {
		case d := <-q.out:
			// The frame is leaving the output queue: the writer-flush
			// observation point of the latency waterfall (queue wait is the
			// dominant broker-side delay this stage exists to expose).
			q.b.observeFlush(d.payload)
			if d.pattern != "" && q.psink != nil {
				q.psink.DeliverPattern(d.pattern, d.channel, d.payload)
			} else {
				q.sink.Deliver(d.channel, d.payload)
			}
		case <-q.done:
			return
		}
	}
}

// Session is one client connection to a broker.
type Session struct {
	broker *Broker
	name   string
	sink   EnqueueSink
	// queued marks a sink that is Connect's queueSink, the one sink that holds
	// the payload slice itself past Enqueue: it is handed owned bytes only.
	queued bool

	mu    sync.Mutex
	subs  map[string]struct{}
	psubs map[string]struct{}

	closeOnce sync.Once
	closed    atomic.Bool
	done      chan struct{}
	reason    error // set before done is closed
}

// Name returns the session label.
func (s *Session) Name() string { return s.name }

// Broker returns the broker this session is connected to.
func (s *Session) Broker() *Broker { return s.broker }

// Subscribe adds the session to the given channels and returns the session's
// total subscription count (the Redis reply convention).
func (s *Session) Subscribe(channels ...string) (int, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	b := s.broker
	for _, ch := range channels {
		s.mu.Lock()
		_, already := s.subs[ch]
		if !already {
			s.subs[ch] = struct{}{}
		}
		s.mu.Unlock()
		if already {
			continue
		}
		sh := &b.shards[shardIndex(ch)]
		sh.mu.Lock()
		set := sh.channels[ch]
		if set == nil {
			set = make(map[*Session]struct{})
			sh.channels[ch] = set
		}
		set[s] = struct{}{}
		count := len(set)
		if count == 1 && b.replay != nil {
			// First subscriber: pin the channel's replay ring against
			// eviction (under the shard lock so pin/unpin transitions for
			// one channel are serialized).
			b.replay.pin(ch, true)
		}
		sh.mu.Unlock()
		if s.closed.Load() {
			// Lost the race against close(): its registry sweep may have
			// run before our insert. Undo; removal is idempotent.
			sh.mu.Lock()
			if set := sh.channels[ch]; set != nil {
				delete(set, s)
				if len(set) == 0 {
					delete(sh.channels, ch)
					if b.replay != nil {
						b.replay.pin(ch, false)
					}
				}
			}
			sh.mu.Unlock()
			return s.subscriptionCount(), ErrSessionClosed
		}
		b.notifySubscribe(ch, s.name, count)
	}
	return s.subscriptionCount(), nil
}

// Unsubscribe removes the session from the given channels (all current
// subscriptions if none given) and returns the remaining subscription count.
func (s *Session) Unsubscribe(channels ...string) (int, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	if len(channels) == 0 {
		s.mu.Lock()
		channels = make([]string, 0, len(s.subs))
		for ch := range s.subs {
			channels = append(channels, ch)
		}
		s.mu.Unlock()
	}
	b := s.broker
	for _, ch := range channels {
		s.mu.Lock()
		_, had := s.subs[ch]
		delete(s.subs, ch)
		s.mu.Unlock()
		if !had {
			continue
		}
		sh := &b.shards[shardIndex(ch)]
		sh.mu.Lock()
		set := sh.channels[ch]
		var count int
		if set != nil {
			delete(set, s)
			count = len(set)
			if count == 0 {
				delete(sh.channels, ch)
				if b.replay != nil {
					b.replay.pin(ch, false)
				}
			}
		}
		sh.mu.Unlock()
		b.notifyUnsubscribe(ch, s.name, count)
	}
	return s.subscriptionCount(), nil
}

// PSubscribe adds pattern subscriptions (Redis PSUBSCRIBE). It returns the
// session's total subscription count (channels + patterns), Redis-style.
func (s *Session) PSubscribe(patterns ...string) (int, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	b := s.broker
	for _, p := range patterns {
		s.mu.Lock()
		_, already := s.psubs[p]
		if !already {
			s.psubs[p] = struct{}{}
		}
		s.mu.Unlock()
		if already {
			continue
		}
		b.mu.Lock()
		if _, live := b.sessions[s]; !live {
			// Session closed concurrently; its sweep already ran.
			b.mu.Unlock()
			return s.subscriptionCount(), ErrSessionClosed
		}
		set := b.patterns[p]
		if set == nil {
			set = make(map[*Session]struct{})
			b.patterns[p] = set
		}
		if _, ok := set[s]; !ok {
			set[s] = struct{}{}
			b.patternSubs.Add(1)
		}
		b.mu.Unlock()
	}
	return s.subscriptionCount(), nil
}

// PUnsubscribe removes pattern subscriptions (all current patterns if none
// given) and returns the remaining total subscription count.
func (s *Session) PUnsubscribe(patterns ...string) (int, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	if len(patterns) == 0 {
		s.mu.Lock()
		patterns = make([]string, 0, len(s.psubs))
		for p := range s.psubs {
			patterns = append(patterns, p)
		}
		s.mu.Unlock()
	}
	b := s.broker
	for _, p := range patterns {
		s.mu.Lock()
		_, had := s.psubs[p]
		delete(s.psubs, p)
		s.mu.Unlock()
		if !had {
			continue
		}
		b.mu.Lock()
		if set := b.patterns[p]; set != nil {
			if _, ok := set[s]; ok {
				delete(set, s)
				b.patternSubs.Add(-1)
				if len(set) == 0 {
					delete(b.patterns, p)
				}
			}
		}
		b.mu.Unlock()
	}
	return s.subscriptionCount(), nil
}

// PatternSubscriptions returns the session's pattern subscriptions.
func (s *Session) PatternSubscriptions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.psubs))
	for p := range s.psubs {
		out = append(out, p)
	}
	return out
}

func (s *Session) subscriptionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs) + len(s.psubs)
}

// Subscriptions returns the channels this session is subscribed to.
func (s *Session) Subscriptions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.subs))
	for ch := range s.subs {
		out = append(out, ch)
	}
	return out
}

// Close terminates the session gracefully.
func (s *Session) Close() { s.close(ErrSessionClosed) }

// CloseReason returns why the session ended (ErrSlowConsumer,
// ErrBrokerClosed, ErrSessionClosed, …), or nil while it is still open.
func (s *Session) CloseReason() error {
	select {
	case <-s.done:
		return s.reason
	default:
		return nil
	}
}

func (s *Session) close(reason error) {
	first := false
	s.closeOnce.Do(func() {
		first = true
		s.reason = reason
		s.closed.Store(true)
		close(s.done)
		s.mu.Lock()
		subs := make([]string, 0, len(s.subs))
		for ch := range s.subs {
			subs = append(subs, ch)
		}
		s.subs = make(map[string]struct{})
		psubs := make([]string, 0, len(s.psubs))
		for p := range s.psubs {
			psubs = append(psubs, p)
		}
		s.psubs = make(map[string]struct{})
		s.mu.Unlock()
		s.broker.removeSession(s, subs, psubs)
	})
	if first {
		// Runs outside the Once so a sink that re-enters Close (clients
		// tearing down their side) cannot deadlock. Sinks must make Closed
		// non-blocking.
		s.sink.Closed(reason)
	}
}

// String describes the session.
func (s *Session) String() string {
	return fmt.Sprintf("session{%s on %s}", s.name, s.broker.name)
}
