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
// in steady state (see DESIGN.md "Hot path"): a publication resolves its
// channel once, to the channel's record in a lock-striped table, and reads
// everything per-channel from there — the copy-on-write subscriber list, the
// replay ring, and each SlotObserver's state. A TCP session's deliveries
// accumulate in one output buffer that its connection core writes out in as
// few syscalls as the socket allows.
package broker

import (
	"errors"
	"fmt"
	"slices"
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

// maxSlots is how many SlotObservers a channel record has room for (the LLA
// and the dispatcher); one registered past it is called as a plain Observer.
const maxSlots = 2

// SlotObserver is an Observer that keeps per-channel state in the broker's
// channel records: OnPublishSlot, called instead of OnPublish, is handed its
// slot in the channel's record — empty (nil) at first, one concrete type,
// gone with the record when the record is evicted.
type SlotObserver interface {
	Observer
	OnPublishSlot(slot *atomic.Value, channel string, payload []byte, receivers int)
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
	// ChannelCap bounds the channel records (subscribers, replay ring,
	// observer slots; 0 = DefaultChannelCap, negative = unbounded). Past it
	// the coldest unsubscribed record is evicted; subscribed ones are pinned.
	ChannelCap int
	// NowNanos, when set, enables stage stamping: Publish writes the
	// broker-ingress and fanout-enqueue marks of the latency waterfall into
	// every stamped data envelope in place (message.StampStages) while it
	// still exclusively owns the frame. nil disables stamping (frames pass
	// through with zero stage offsets).
	NowNanos func() int64
}

// DefaultChannelCap bounds the channel records when Options.ChannelCap is 0.
const DefaultChannelCap = 65536

// record is what the broker keeps for one channel: the one place a
// publication resolves its channel, once. It holds the interned name, the
// subscriber list, the replay ring and one slot per SlotObserver.
type record struct {
	name string
	// subs is copy-on-write (replaced under the shard's write lock, never
	// mutated), so a publication fans out lock-free.
	subs  atomic.Pointer[[]*Session]
	ring  replayRing
	slots [maxSlots]atomic.Value
	ref   atomic.Bool // CLOCK reference bit
	clock int         // index in the shard's CLOCK ring; under the write lock
}

// shard is one stripe of the channel-record table. Padded so two shards'
// locks never share a cache line under concurrent publishes.
type shard struct {
	mu    sync.RWMutex
	recs  map[string]*record
	clock []*record // CLOCK ring over recs
	hand  int
	live  int // records with at least one subscriber
	_     [56]byte
}

// shardIndex hashes a channel name with FNV-1a onto a stripe.
func shardIndex[T string | []byte](channel T) uint32 {
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
	// pays one pointer load, not a type switch. slotted counts slots given.
	observers atomic.Pointer[[]observer]
	flushObs  atomic.Pointer[[]FlushObserver]
	slotted   int

	// nowNanos enables in-place stage stamping on Publish (nil = disabled).
	nowNanos func() int64

	// patternSubs counts live (pattern, session) entries so Publish can
	// skip the glob scan entirely when no patterns exist (the common case).
	patternSubs atomic.Int64

	closed atomic.Bool

	perShard    int // record cap per shard (0 = unbounded)
	capacity    int
	replayDepth int // 0 = replay disabled
	replay      replayStats
	evictions   atomic.Uint64

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
		capacity:  max(opts.ChannelCap, 0), // negative: unbounded
	}
	if opts.ChannelCap == 0 {
		b.capacity = DefaultChannelCap
	}
	b.perShard = (b.capacity + numShards - 1) / numShards
	for i := range b.shards {
		b.shards[i].recs = make(map[string]*record)
	}
	b.replayDepth = max(opts.ReplayDepth, 0)
	return b
}

// lookup returns name's record, creating it on first use. name may be the
// bytes a command was parsed into: a map index by string(name) does not
// allocate, and the name is copied only into a new record.
func lookup[T string | []byte](b *Broker, name T) *record {
	sh := &b.shards[shardIndex(name)]
	sh.mu.RLock()
	rec := sh.recs[string(name)]
	sh.mu.RUnlock()
	if rec == nil {
		sh.mu.Lock()
		rec, victim := b.recordLocked(sh, string(name))
		sh.mu.Unlock()
		b.retire(victim)
		return rec
	}
	if !rec.ref.Load() {
		rec.ref.Store(true)
	}
	return rec
}

// peek returns name's record without creating it or marking it used.
func (b *Broker) peek(name string) *record {
	sh := &b.shards[shardIndex(name)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.recs[name]
}

// recordLocked returns name's record, creating it when there is none — at the
// shard's share of the cap, after evicting victim by CLOCK. Caller holds sh.mu.
func (b *Broker) recordLocked(sh *shard, name string) (rec, victim *record) {
	if rec = sh.recs[name]; rec != nil {
		return rec, nil
	}
	if b.perShard > 0 && len(sh.clock) >= b.perShard {
		// Two laps always find a victim unless every record is subscribed;
		// then the shard grows past its share rather than refuse.
		for i := 0; i < 2*len(sh.clock) && victim == nil; i++ {
			if sh.hand >= len(sh.clock) {
				sh.hand = 0
			}
			v := sh.clock[sh.hand]
			sh.hand++
			if len(*v.subs.Load()) > 0 {
				continue
			} else if v.ref.Load() {
				v.ref.Store(false)
				continue
			}
			last := sh.clock[len(sh.clock)-1]
			sh.clock[v.clock], last.clock = last, v.clock
			sh.clock = sh.clock[:len(sh.clock)-1]
			delete(sh.recs, v.name)
			victim = v
		}
	}
	rec = &record{name: name, clock: len(sh.clock)}
	rec.subs.Store(new([]*Session))
	if b.replayDepth > 0 {
		rec.ring.epoch = newEpoch()
	}
	sh.recs[name] = rec
	sh.clock = append(sh.clock, rec)
	return rec, victim
}

// retire takes an evicted record's ring out of the replay totals; a
// publication still holding the record finishes on it harmlessly.
func (b *Broker) retire(rec *record) {
	if rec == nil {
		return
	}
	b.evictions.Add(1)
	r := &rec.ring
	r.mu.Lock()
	r.evicted = true
	b.replay.bytes.Add(-r.bytes)
	r.mu.Unlock()
}

// setSubs replaces rec's subscriber list, keeping the shard's count of
// subscribed records. Caller holds sh.mu.
func (sh *shard) setSubs(rec *record, subs []*Session) {
	if was := len(*rec.subs.Load()) > 0; was && len(subs) == 0 {
		sh.live--
	} else if !was && len(subs) > 0 {
		sh.live++
	}
	rec.subs.Store(&subs)
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
	var obs []observer
	if cur := b.observers.Load(); cur != nil {
		obs = append(obs, *cur...)
	}
	ob := observer{o: o}
	if so, ok := o.(SlotObserver); ok && b.slotted < maxSlots {
		ob.so, ob.slot = so, b.slotted
		b.slotted++
	}
	obs = append(obs, ob)
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

// observer is one registration: a SlotObserver given a slot has so set.
type observer struct {
	o    Observer
	so   SlotObserver
	slot int
}

func (b *Broker) notifyPublish(rec *record, payload []byte, receivers int) {
	if obs := b.observers.Load(); obs != nil {
		for i := range *obs {
			if ob := &(*obs)[i]; ob.so != nil {
				ob.so.OnPublishSlot(&rec.slots[ob.slot], rec.name, payload, receivers)
			} else {
				ob.o.OnPublish(rec.name, payload, receivers)
			}
		}
	}
}

func (b *Broker) notifySubscribe(channel, session string, n int) {
	if obs := b.observers.Load(); obs != nil {
		for _, ob := range *obs {
			ob.o.OnSubscribe(channel, session, n)
		}
	}
}

func (b *Broker) notifyUnsubscribe(channel, session string, n int) {
	if obs := b.observers.Load(); obs != nil {
		for _, ob := range *obs {
			ob.o.OnUnsubscribe(channel, session, n)
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
	return b.publish(lookup(b, channel), payload, false)
}

// publish is Publish for either ownership: lent says payload is only borrowed
// for the call (a connection's read buffer, writable meanwhile). Bytes handed
// down the publish path are borrowed; whoever keeps them copies them — the
// replay ring and every connection's write buffer do anyway, so a lent payload
// is copied here only for in-process queues, once, if there are any.
func (b *Broker) publish(rec *record, payload []byte, lent bool) int {
	if b.closed.Load() {
		return 0
	}
	var ingressNs int64 // broker-ingress instant (0 = stamping disabled)
	if b.nowNanos != nil {
		ingressNs = b.nowNanos()
	}
	if b.replayDepth > 0 {
		// Retain (and sequence-stamp) before reading the subscriber list:
		// SubscribeFrom registers the subscription before snapshotting the
		// ring, so a concurrent publication is always seen by the replay,
		// the live flow, or both — never neither.
		b.retain(&rec.ring, payload)
	}
	subs := *rec.subs.Load()
	// Stage-stamp while the frame is still exclusively ours: ingress at
	// Publish entry, fanout now — the last instant before a subscriber
	// queue (and its concurrently-reading writer) can see the bytes.
	if ingressNs != 0 {
		message.StampStages(payload, ingressNs, b.nowNanos())
	}

	delivered := 0
	var overflowed []*Session
	var owned []byte // the in-process queues' copy of a lent payload
	enqueue := func(s *Session, pattern string) {
		if s.closed.Load() {
			return // session is gone; skip
		}
		p := payload
		if lent && s.queued {
			if owned == nil {
				owned = append([]byte(nil), payload...)
			}
			p = owned
		}
		if !s.sink.Enqueue(rec.name, pattern, p) {
			// Output buffer full: slow consumer, disconnect it.
			overflowed = append(overflowed, s)
			return
		}
		delivered++
	}
	for _, s := range subs {
		enqueue(s, "")
	}
	if b.patternSubs.Load() > 0 {
		b.mu.RLock()
		for pattern, set := range b.patterns {
			if globMatch(pattern, rec.name) {
				for s := range set {
					enqueue(s, pattern)
				}
			}
		}
		b.mu.RUnlock()
	}

	for _, s := range overflowed {
		b.dropped.Add(1)
		s.close(ErrSlowConsumer)
	}

	b.published.Add(1)
	b.delivered.Add(uint64(delivered))
	b.notifyPublish(rec, payload, delivered)
	return delivered
}

// Subscribers returns the current subscriber count of a channel.
func (b *Broker) Subscribers(channel string) int {
	if rec := b.peek(channel); rec != nil {
		return len(*rec.subs.Load())
	}
	return 0
}

// Channels returns the names of channels with at least one subscriber.
func (b *Broker) Channels() []string {
	var out []string
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.clock {
			if len(*rec.subs.Load()) > 0 {
				out = append(out, rec.name)
			}
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
	cs := b.ChannelStats()
	st := Stats{
		Sessions:  sessions,
		Channels:  cs.Pinned,
		Published: b.published.Load(),
		Delivered: b.delivered.Load(),
		Dropped:   b.dropped.Load(),
	}
	if b.replayDepth > 0 {
		st.ReplayRings = cs.Size
		st.ReplayBytes = b.replay.bytes.Load()
		st.ReplayRetained = b.replay.retained.Load()
		st.ReplayRequests = b.replay.requests.Load()
		st.ReplayedFrames = b.replay.replayed.Load()
		st.ReplayMissed = b.replay.missed.Load()
	}
	return st
}

// ReplayEnabled reports whether this broker keeps replay rings.
func (b *Broker) ReplayEnabled() bool { return b.replayDepth > 0 }

// ChannelStats snapshots the channel-record table for metric export: Size
// records, Pinned of them subscribed, Evictions so far. Hits and misses are
// not counted: a counter per publication is what the table exists to save.
func (b *Broker) ChannelStats() hotstate.Stats {
	st := hotstate.Stats{Capacity: b.capacity, Evictions: b.evictions.Load()}
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		st.Size += len(sh.clock)
		st.Pinned += sh.live
		sh.mu.RUnlock()
	}
	return st
}

// ReplayHead reports channel's current ring position — its epoch and the
// last sequence stamped — so a dispatcher handing a channel off at drain
// completion can record how far the old holder's replay window reaches. ok
// is false when replay is disabled or the channel has no record (a peek: the
// probe must not disturb eviction order).
func (b *Broker) ReplayHead(channel string) (epoch, head uint64, ok bool) {
	rec := b.peek(channel)
	if b.replayDepth == 0 || rec == nil {
		return 0, 0, false
	}
	r := &rec.ring
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
		if count, had := b.unsubscribe(s, ch); had {
			b.notifyUnsubscribe(ch, s.name, count)
		}
	}
}

// subscribe adds s to channel's subscriber list and returns its length.
func (b *Broker) subscribe(s *Session, channel string) int {
	sh := &b.shards[shardIndex(channel)]
	sh.mu.Lock()
	rec, victim := b.recordLocked(sh, channel)
	subs := append(slices.Clip(*rec.subs.Load()), s) // a new array: readers keep the old
	sh.setSubs(rec, subs)
	sh.mu.Unlock()
	b.retire(victim)
	return len(subs)
}

// unsubscribe takes s off channel's subscriber list: the count left, and
// whether s was on it.
func (b *Broker) unsubscribe(s *Session, channel string) (int, bool) {
	sh := &b.shards[shardIndex(channel)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.recs[channel]
	if rec == nil {
		return 0, false
	}
	subs := *rec.subs.Load()
	i := slices.Index(subs, s)
	if i < 0 {
		return len(subs), false
	}
	subs = slices.Delete(slices.Clone(subs), i, i+1)
	sh.setSubs(rec, subs)
	return len(subs), true
}

// delivery is one message queued for a plain Sink.
type delivery struct {
	channel string
	payload []byte
}

// queueSink is the EnqueueSink Connect puts in front of a plain Sink: a
// bounded queue drained into the sink by one writer goroutine — the
// in-process counterpart of a connection's write buffer and flusher. A full
// queue is the slow-consumer signal.
type queueSink struct {
	b    *Broker
	sink Sink
	out  chan delivery
	done chan struct{} // closed by Closed; stops the writer
}

// Enqueue queues one delivery; a plain Sink receives pattern matches through
// Deliver like ordinary messages.
func (q *queueSink) Enqueue(channel, _ string, payload []byte) bool {
	select {
	case q.out <- delivery{channel: channel, payload: payload}:
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
			q.sink.Deliver(d.channel, d.payload)
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
		// A subscribed channel's record is pinned: its replay ring buffers
		// from the subscription on and keeps its epoch.
		count := b.subscribe(s, ch)
		if s.closed.Load() {
			// Lost the race against close(): its registry sweep may have
			// run before our insert. Undo; removal is idempotent.
			b.unsubscribe(s, ch)
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
		count, _ := b.unsubscribe(s, ch)
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
