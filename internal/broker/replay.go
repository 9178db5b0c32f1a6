package broker

import (
	"math"
	"math/rand/v2"
	"slices"
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
// assigned sequence; sequence s lives in slot (s-1) % depth, stripped of
// what replay rebuilds (message.AppendStripped): the position implies the
// sequence, the ring the epoch, and a retained frame's stage block is zero.
//
// A ring has two forms, told apart by whether it has wrapped. On its first
// lap each body has a buffer of its own in slots, an array that grows by
// about a quarter with the frames retained and stops at depth, so a ring
// costs what it holds: a channel that saw one frame has one slot. When the
// first lap is complete, the next retain lays the bodies out, in sequence
// order, in one buffer of their sum plus replayHeadroom; from then on buf
// holds every body back to back and circularly, offs[i] is where slot i's
// body begins, and a new body goes where the newest one ended, over the
// headroom and then the oldest's bytes. The buffer is laid out anew only when a
// body no longer fits. Either form retains a warm window with zero
// allocations. Only rings that wrap are laid out because the layout's
// growth copies, paid by every ring from its first frame, fragment the heap
// of a node with thousands of barely-used rings (DESIGN §16).
type replayRing struct {
	mu      sync.Mutex
	epoch   uint64
	head    uint64
	slots   [][]byte // first lap: one buffer per body
	buf     []byte   // wrapped: every body, back to back and circularly
	offs    []uint32 // wrapped: where each slot's body begins in buf
	end     uint32   // wrapped: where the newest body ends in buf
	bytes   int64    // frame bytes a replay of every slot would hand out
	evicted bool     // its record was evicted; its bytes left the broker's total
}

// replayHeadroom is the slack a laid-out buffer keeps past its bodies' sum
// (more comes free when the allocation rounds up to a size class), so a
// window whose frames vary by a few bytes is not laid out again each time
// one of them grows. DESIGN §16 has the sweep that chose it.
const replayHeadroom = 256

// maxLaidOut bounds a laid-out buffer so uint32 offsets index all of it; a
// ring that would need more keeps, or goes back to, one buffer per body. A
// variable only so a test can lower it.
var maxLaidOut int64 = math.MaxUint32

// newEpoch names a new ring incarnation.
func newEpoch() uint64 {
	// 63 bits so the epoch survives a round trip through a RESP integer
	// (int64); 0 is reserved — on the wire it means "never stamped".
	return max(rand.Uint64()>>1, 1)
}

// slot returns first-lap slot i, growing the array by a quarter (and never
// past depth) when i is the first to reach it.
func (r *replayRing) slot(i, depth int) *[]byte {
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

// body returns slot i's body; laid out, in the two pieces it straddles the
// end of buf in (tail is empty when it does not). A body never has length 0,
// so start == stop means one that fills the whole buffer.
func (r *replayRing) body(i int) (head, tail []byte) {
	if r.buf == nil {
		return r.slots[i], nil
	}
	start, stop := r.offs[i], r.end
	if newest := int((r.head - 1) % uint64(len(r.offs))); i != newest {
		stop = r.offs[(i+1)%len(r.offs)]
	}
	if start < stop {
		return r.buf[start:stop], nil
	}
	return r.buf[start:], r.buf[:stop]
}

// put stores frame's body as sequence r.head+1 in slot i, replacing old
// bytes of body there (0 on the first lap); the caller then advances head
// and bytes.
func (r *replayRing) put(frame []byte, i, old, depth int) {
	n := len(frame) - message.StrippedLen
	if r.head >= uint64(depth) {
		// Wrapped: the body takes the oldest's place.
		need := r.bytes - int64(depth*message.StrippedLen) - int64(old) + int64(n)
		if (r.buf != nil && need <= int64(len(r.buf))) || r.layOut(i, need, depth) {
			start := int(r.end)
			stop := start + n
			wrap := max(stop-len(r.buf), 0)
			message.PutStrippedSplit(r.buf[start:stop-wrap], r.buf[:wrap], frame)
			r.offs[i], r.end = r.end, uint32(stop%len(r.buf))
			return
		}
	}
	s := r.slot(i, depth)
	*s = message.AppendStripped((*s)[:0], frame)
}

// layOut moves every body but slot i's — the oldest, which the next body
// replaces — into a new buffer of need bytes plus replayHeadroom, oldest
// first, leaving end where the next body goes. When the buffer would
// outgrow its offsets it declines, and a laid-out ring goes back to one
// buffer per body.
func (r *replayRing) layOut(i int, need int64, depth int) bool {
	if need+replayHeadroom > maxLaidOut {
		if r.buf != nil {
			slots := make([][]byte, depth)
			for j := range slots {
				head, tail := r.body(j)
				slots[j] = append(append([]byte(nil), head...), tail...)
			}
			r.slots, r.buf, r.offs = slots, nil, nil
		}
		return false
	}
	buf := slices.Grow([]byte(nil), int(need)+replayHeadroom)
	buf = buf[:min(int64(cap(buf)), maxLaidOut)]
	offs := r.offs
	if offs == nil {
		offs = make([]uint32, depth)
	}
	at := 0
	for k := 1; k < depth; k++ {
		// body(j) reads offs[j] and its successor's, so slot j's offset
		// may be rewritten once its body is copied.
		j := (i + k) % depth
		head, tail := r.body(j)
		offs[j] = uint32(at)
		at += copy(buf[at:], head)
		at += copy(buf[at:], tail)
	}
	r.slots, r.buf, r.offs, r.end = nil, buf, offs, uint32(at)
	return true
}

// frame rebuilds retained sequence q as a fresh copy: bodies are reused and
// must never escape the lock.
func (r *replayRing) frame(q, depth uint64) []byte {
	head, tail := r.body(int((q - 1) % depth))
	dst := make([]byte, 0, len(head)+len(tail)+message.StrippedLen)
	return message.AppendRestamped(dst, head, tail, r.epoch, q)
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
// own copy. Steady state is allocation-free: a wrapped ring writes into the
// buffer it laid out, or the slot buffers it is reusing.
func (b *Broker) retain(r *replayRing, payload []byte) {
	t, _, ok := message.PeekStamp(payload)
	if !ok || (t != message.TypeData && t != message.TypeForwarded) {
		return
	}
	depth := b.replayDepth
	r.mu.Lock()
	message.StampChannelSeq(payload, r.epoch, r.head+1)
	i, old := int(r.head%uint64(depth)), 0
	delta := int64(len(payload))
	if r.head >= uint64(depth) {
		head, tail := r.body(i)
		old = len(head) + len(tail)
		delta -= int64(old + message.StrippedLen)
	}
	r.put(payload, i, old, depth)
	r.head++
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
