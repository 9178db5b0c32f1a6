package broker

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/dynamoth/dynamoth/internal/message"
)

// Replay rings give the "dumb" broker one additional Redis-like capability
// (comparable to Redis Streams' XRANGE backing XREAD resume): each channel
// keeps the last ReplayDepth stamped data frames in a fixed ring, and a
// session may subscribe with a cursor to have the gap since its last-seen
// sequence replayed before live flow resumes. The broker still knows nothing
// about plans or rebalancing — which sequence a client has seen, and when to
// present a cursor, is entirely client/dispatcher intelligence.
//
// Sequencing contract: the broker stamps every data envelope it retains with
// (epoch, channelSeq) — epoch names one ring incarnation on one broker,
// channelSeq is dense within it. A ring lives in its channel's record; a
// record evicted from the table and later recreated gets a NEW epoch, so
// clients can never mistake the recreated ring's restarting sequence for
// stale duplicates of the old one.

// ReplayResult reports what a cursor subscribe replayed.
type ReplayResult struct {
	// Replayed is the number of retained frames queued to the session.
	Replayed int
	// Missed counts frames the cursor asked for that the ring had already
	// overwritten — a definite, unrecoverable gap (only detectable when the
	// cursor's epoch matches the ring's; a cross-epoch resume starts a fresh
	// baseline instead).
	Missed uint64
	// Epoch is the ring's current epoch (0 when the channel has no ring), so
	// the client can attribute Missed to the right sequence track.
	Epoch uint64
}

// replayRing is one channel's bounded frame history. head is the last
// assigned sequence; sequence s lives in slots[(s-1) % depth], stripped of
// what replay rebuilds (message.AppendStripped): the position implies the
// sequence, the ring the epoch, and a retained frame's stage block is zero.
// A slot's buffer is reused across ring wraps, so a channel at steady state
// retains its window with zero allocations. The slot array grows by about a
// quarter with the frames retained on the first lap and stops at depth, so
// a ring costs what it holds: a channel that saw one frame has one slot.
type replayRing struct {
	mu      sync.Mutex
	epoch   uint64
	head    uint64
	slots   [][]byte
	bytes   int64 // frame bytes a replay of every slot would hand out
	evicted bool  // its record was evicted; its bytes left the broker's total
}

// newEpoch names a new ring incarnation.
func newEpoch() uint64 {
	// 63 bits so the epoch survives a round trip through a RESP integer
	// (int64); 0 is reserved — on the wire it means "never stamped".
	return max(rand.Uint64()>>1, 1)
}

// slot returns the slot of sequence seq, growing the array by a quarter (and
// never past depth) when seq is the first to reach it.
func (r *replayRing) slot(seq uint64, depth int) *[]byte {
	i := int((seq - 1) % uint64(depth))
	if i == len(r.slots) {
		if i == cap(r.slots) {
			grown := make([][]byte, i, min(i+i/4+1, depth))
			copy(grown, r.slots)
			r.slots = grown
		}
		r.slots = r.slots[:i+1]
	}
	return &r.slots[i]
}

// frame rebuilds retained sequence q as a fresh copy: slots are reused and
// must never escape the lock.
func (r *replayRing) frame(q, depth uint64) []byte {
	body := r.slots[(q-1)%depth]
	return message.AppendRestamped(make([]byte, 0, len(body)+message.StrippedLen), body, r.epoch, q)
}

// replayStats are the broker's replay counters, across every ring.
type replayStats struct {
	bytes    atomic.Int64  // frame bytes currently held by rings of live records
	retained atomic.Uint64 // frames appended to rings
	requests atomic.Uint64 // cursor subscribes served
	replayed atomic.Uint64 // frames replayed to sessions
	missed   atomic.Uint64 // frames requested but already overwritten
}

// retain assigns the channel's next sequence, stamps payload in place with
// (epoch, seq), and copies the frame's body into the ring — only data
// envelopes, told by one peek of the fixed header (raw payloads and control
// envelopes pass through the broker unstamped and unretained). payload must
// be the caller's to write for the duration of the call; the ring keeps its
// own copy. Steady state is allocation-free: slot buffers are reused once the
// ring has wrapped.
func (b *Broker) retain(r *replayRing, payload []byte) {
	t, _, ok := message.PeekStamp(payload)
	if !ok || (t != message.TypeData && t != message.TypeForwarded) {
		return
	}
	r.mu.Lock()
	r.head++
	message.StampChannelSeq(payload, r.epoch, r.head)
	s := r.slot(r.head, b.replayDepth)
	delta := int64(len(payload))
	if len(*s) > 0 {
		delta -= int64(len(*s) + message.StrippedLen)
	}
	*s = message.AppendStripped((*s)[:0], payload)
	r.bytes += delta
	if !r.evicted {
		b.replay.bytes.Add(delta)
	}
	r.mu.Unlock()
	b.replay.retained.Add(1)
}

// collect rebuilds the frames a cursor is owed out of channel's ring.
//
// Epoch match: replay exactly (cursorSeq, head]; anything below the ring
// tail is counted missed. Epoch miss (client arrives from another broker or
// a recreated ring): replay retained frames stamped at or after
// cur.SinceStamp — the overlap is suppressed by client-side dedup, and the
// client baselines the new epoch from the first sequence it sees.
func (b *Broker) collect(channel string, cur message.Cursor) (frames [][]byte, missed, epoch uint64) {
	st := &b.replay
	st.requests.Add(1)
	rec := b.peek(channel)
	if rec == nil {
		return nil, 0, 0
	}
	r := &rec.ring
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch = r.epoch
	depth := uint64(b.replayDepth)
	tail := uint64(1)
	if r.head > depth {
		tail = r.head - depth + 1
	}
	if seq, ok := cur.SeqFor(r.epoch); ok {
		from := seq + 1
		if from > r.head {
			return nil, 0, epoch // cursor current (or claims the future): nothing owed
		}
		if from < tail {
			missed = tail - from
			st.missed.Add(missed)
			from = tail
		}
		for q := from; q <= r.head; q++ {
			frames = append(frames, r.frame(q, depth))
		}
		st.replayed.Add(uint64(len(frames)))
		return frames, missed, epoch
	}
	if cur.SinceStamp == 0 {
		return nil, 0, epoch
	}
	for q := tail; q <= r.head; q++ {
		f := r.frame(q, depth)
		if _, stamp, _ := message.PeekStamp(f); stamp >= cur.SinceStamp {
			frames = append(frames, f)
		}
	}
	st.replayed.Add(uint64(len(frames)))
	return frames, 0, epoch
}

// SubscribeFrom subscribes the session to channel and replays the gap the
// cursor names from the channel's replay ring, queueing replayed frames on
// the session's ordinary output path before (in sequence terms) live flow
// takes over. The subscription is registered before the ring is snapshotted,
// and Publish appends to the ring before it reads the subscriber set — so
// every concurrent publication lands in the replay, the live flow, or both
// (overlap is the client's to dedup), never neither.
//
// On a broker without replay rings it degrades to a plain Subscribe.
func (s *Session) SubscribeFrom(channel string, cur message.Cursor) (ReplayResult, error) {
	if _, err := s.Subscribe(channel); err != nil {
		return ReplayResult{}, err
	}
	if !s.broker.ReplayEnabled() {
		return ReplayResult{}, nil
	}
	frames, missed, epoch := s.broker.collect(channel, cur)
	res := ReplayResult{Missed: missed, Epoch: epoch}
	for _, f := range frames {
		if s.closed.Load() {
			return res, ErrSessionClosed
		}
		if !s.sink.Enqueue(channel, "", f) {
			s.broker.dropped.Add(1)
			s.close(ErrSlowConsumer)
			return res, ErrSlowConsumer
		}
		res.Replayed++
	}
	s.broker.delivered.Add(uint64(res.Replayed))
	return res, nil
}
