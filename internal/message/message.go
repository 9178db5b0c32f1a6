// Package message defines the wire-level envelope that all Dynamoth traffic —
// application publications as well as control messages (switch notifications,
// wrong-server redirects, plans, load reports) — is wrapped in before being
// handed to the underlying pub/sub substrate.
//
// The paper (§IV-3) requires globally unique message identifiers so that the
// client library can deliver each publication exactly once even when a
// reconfiguration causes it to arrive over two servers. IDs here are a
// (node, sequence) pair which is unique without coordination.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Type discriminates envelope kinds on the wire.
type Type uint8

// Envelope types. TypeData carries an application payload; all others are
// Dynamoth control traffic (§IV of the paper).
const (
	// TypeData is an application publication.
	TypeData Type = iota + 1
	// TypeSwitch asks subscribers of a channel to move to new server(s);
	// emitted by a dispatcher on the first post-plan publication (§IV-A2).
	TypeSwitch
	// TypeWrongServer tells a publisher it used an outdated server for a
	// channel and names the correct one (§IV "Publishing on old server").
	TypeWrongServer
	// TypePlan carries a new global plan from the load balancer to the
	// dispatchers (§IV-A1).
	TypePlan
	// TypeLoadReport carries aggregated LLA metrics to the load balancer
	// (§III-A).
	TypeLoadReport
	// TypeDrained notifies the dispatcher of the new server that the old
	// server has no subscribers left for a channel, so new→old forwarding
	// can stop (§IV-A5).
	TypeDrained
	// TypeForwarded marks a publication relayed between dispatchers during
	// reconfiguration so it is not re-forwarded (loop prevention).
	TypeForwarded
)

// String returns a short human-readable name for the envelope type.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeSwitch:
		return "switch"
	case TypeWrongServer:
		return "wrong-server"
	case TypePlan:
		return "plan"
	case TypeLoadReport:
		return "load-report"
	case TypeDrained:
		return "drained"
	case TypeForwarded:
		return "forwarded"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ID is a globally unique message identifier: the originating node's numeric
// ID plus a per-node sequence number.
type ID struct {
	Node uint32
	Seq  uint64
}

// IsZero reports whether the ID is the zero value (no ID assigned).
func (id ID) IsZero() bool { return id.Node == 0 && id.Seq == 0 }

// String formats the ID as "node:seq".
func (id ID) String() string { return fmt.Sprintf("%d:%d", id.Node, id.Seq) }

// Envelope is the unit of transmission. Exactly which fields are meaningful
// depends on Type; unused fields are zero and cost one byte each on the wire.
type Envelope struct {
	Type    Type
	ID      ID
	Channel string // application channel the envelope concerns
	Payload []byte // application payload or encoded control body

	// Stamp is the publish time in Unix nanoseconds (0 = unstamped). Clients
	// stamp data publications on send so every hop — broker fan-out,
	// dispatcher forwarding, subscriber delivery — can observe end-to-end
	// latency against its own clock (the quantity behind the paper's latency
	// CDFs). Across real machines the measurement inherits clock skew;
	// in-process and simulated deployments share one clock.
	Stamp int64

	// Servers names pub/sub servers for TypeSwitch (the new server set) and
	// TypeWrongServer (the correct server set).
	Servers []string
	// RingServers carries the plan's consistent-hash ring membership on
	// switch/redirect notifications, so clients keep their fallback ring in
	// step with the active server set (§II-C: clients hash over the
	// current servers).
	RingServers []string
	// Strategy is the plan.Strategy for the channel, carried with switch and
	// wrong-server messages so clients can honor replication (encoded as a
	// raw byte here to avoid an import cycle).
	Strategy uint8
	// PlanVersion is the plan version this control message derives from.
	PlanVersion uint64

	// Epoch and ChannelSeq are the broker-assigned per-channel replay
	// coordinates. Publishers encode zeros; the home broker stamps both in
	// place (StampChannelSeq) when it appends the frame to the channel's
	// replay ring. Epoch identifies one ring incarnation on one broker, so a
	// client can tell "same stream, later sequence" from "different broker
	// (or recreated ring), start a fresh baseline". They live in a
	// fixed-width header region so stamping never shifts the encoding.
	Epoch      uint64
	ChannelSeq uint64

	// StageIngressUs, StageFanoutUs and StageFlushUs are the per-stage
	// latency waterfall marks: microsecond offsets from Stamp at which the
	// frame crossed broker ingress (Publish entry), fanout enqueue (handed to
	// the first subscriber queue) and writer flush. Publishers encode zeros;
	// the home broker stamps ingress and fanout in place (StampStages) while
	// it still exclusively owns the frame. The flush slot exists for sinks
	// that own a private copy of the frame; the shared-fanout cores instead
	// observe flush age broker-side. 0 means "not stamped"; real marks are
	// clamped to >= 1µs. Like the replay coordinates they live in a
	// fixed-width header region so stamping never shifts the encoding.
	StageIngressUs uint32
	StageFanoutUs  uint32
	StageFlushUs   uint32
}

// envelopeMagic opens every encoded envelope.
const envelopeMagic = 0xD8

// seqHeaderLen is the fixed-width (epoch, channelSeq) region after the
// magic/type bytes: two little-endian uint64s at offsets [2,10) and [10,18).
// Fixed width is what makes in-place broker stamping possible on an
// already-encoded frame.
const seqHeaderLen = 16

// stageHeaderLen is the fixed-width stage block: three little-endian uint32
// microsecond offsets (ingress, fanout, flush) at [18,22), [22,26), [26,30).
const stageHeaderLen = 12

// envelopeHeaderLen is the full fixed header — magic, type, sequence header,
// stage block — after which the uvarint fields begin.
const envelopeHeaderLen = 2 + seqHeaderLen + stageHeaderLen

// Stage block byte offsets within an envelope.
const (
	stageIngressOff = 2 + seqHeaderLen
	stageFanoutOff  = stageIngressOff + 4
	stageFlushOff   = stageIngressOff + 8
)

// peekHeader reports whether data opens with a complete envelope header;
// false for non-envelope payloads.
func peekHeader(data []byte) bool {
	return len(data) >= envelopeHeaderLen && data[0] == envelopeMagic
}

// Encoding errors.
var (
	ErrTruncated  = errors.New("message: truncated envelope")
	ErrBadMagic   = errors.New("message: bad envelope magic byte")
	ErrFieldRange = errors.New("message: field exceeds sane bounds")
)

// maxFieldLen bounds string/slice fields to keep a corrupted length prefix
// from allocating unbounded memory.
const maxFieldLen = 1 << 24

// Marshal encodes the envelope into a compact binary form.
//
// Layout: magic, type, epoch(8, LE), channelSeq(8, LE), ingressUs(4, LE),
// fanoutUs(4, LE), flushUs(4, LE), planVersion(uvarint), node(uvarint),
// seq(uvarint), stamp(uvarint), channel(len-prefixed), strategy,
// servers(count + len-prefixed each), payload (remainder).
func (e *Envelope) Marshal() []byte {
	n := envelopeHeaderLen +
		binary.MaxVarintLen64*4 +
		binary.MaxVarintLen32 + len(e.Channel) +
		1 + // strategy
		2*binary.MaxVarintLen32
	for _, s := range e.Servers {
		n += binary.MaxVarintLen32 + len(s)
	}
	for _, s := range e.RingServers {
		n += binary.MaxVarintLen32 + len(s)
	}
	n += len(e.Payload)
	return e.AppendMarshal(make([]byte, 0, n))
}

// AppendMarshal appends the envelope's encoding to dst and returns the
// extended slice (append semantics, like strconv.AppendInt). A caller with a
// reusable scratch buffer — e.g. one from GetBuffer — encodes a publication
// with zero allocations.
func (e *Envelope) AppendMarshal(dst []byte) []byte {
	dst = append(dst, envelopeMagic, byte(e.Type))
	dst = binary.LittleEndian.AppendUint64(dst, e.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, e.ChannelSeq)
	dst = binary.LittleEndian.AppendUint32(dst, e.StageIngressUs)
	dst = binary.LittleEndian.AppendUint32(dst, e.StageFanoutUs)
	dst = binary.LittleEndian.AppendUint32(dst, e.StageFlushUs)
	dst = binary.AppendUvarint(dst, e.PlanVersion)
	dst = binary.AppendUvarint(dst, uint64(e.ID.Node))
	dst = binary.AppendUvarint(dst, e.ID.Seq)
	dst = binary.AppendUvarint(dst, uint64(e.Stamp))
	dst = appendString(dst, e.Channel)
	dst = append(dst, e.Strategy)
	dst = binary.AppendUvarint(dst, uint64(len(e.Servers)))
	for _, s := range e.Servers {
		dst = appendString(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.RingServers)))
	for _, s := range e.RingServers {
		dst = appendString(dst, s)
	}
	return append(dst, e.Payload...)
}

// maxPooledBuf bounds the capacity of buffers kept in the marshal pool, so
// one giant payload does not pin its buffer forever.
const maxPooledBuf = 64 << 10

// marshalPool recycles AppendMarshal scratch buffers for publish hot paths.
var marshalPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetBuffer returns a pooled scratch buffer for AppendMarshal. Encode with
// buf := message.GetBuffer(); data := env.AppendMarshal((*buf)[:0]) and hand
// the buffer back with PutBuffer once nothing references the encoded bytes —
// only safe when every consumer of data finishes with it before the release
// (e.g. a transport that copies the payload out before Publish returns).
func GetBuffer() *[]byte { return marshalPool.Get().(*[]byte) }

// PutBuffer returns a GetBuffer buffer to the pool. Store the final slice
// back first (*buf = data) so the grown capacity is what gets recycled.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	marshalPool.Put(b)
}

// Unmarshal decodes an envelope previously produced by Marshal. The returned
// envelope's Payload aliases data; callers that retain the payload past the
// lifetime of data must copy it.
func Unmarshal(data []byte) (*Envelope, error) {
	if len(data) < 2 {
		return nil, ErrTruncated
	}
	if data[0] != envelopeMagic {
		return nil, ErrBadMagic
	}
	if !peekHeader(data) {
		return nil, ErrTruncated
	}
	e := &Envelope{
		Type:           Type(data[1]),
		Epoch:          binary.LittleEndian.Uint64(data[2:10]),
		ChannelSeq:     binary.LittleEndian.Uint64(data[10:18]),
		StageIngressUs: binary.LittleEndian.Uint32(data[stageIngressOff:]),
		StageFanoutUs:  binary.LittleEndian.Uint32(data[stageFanoutOff:]),
		StageFlushUs:   binary.LittleEndian.Uint32(data[stageFlushOff:]),
	}
	rest := data[envelopeHeaderLen:]

	var err error
	var u uint64
	if u, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	e.PlanVersion = u
	if u, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	if u > math.MaxUint32 {
		return nil, ErrFieldRange
	}
	e.ID.Node = uint32(u)
	if u, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	e.ID.Seq = u
	if u, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	e.Stamp = int64(u)
	if e.Channel, rest, err = readString(rest); err != nil {
		return nil, err
	}
	if len(rest) < 1 {
		return nil, ErrTruncated
	}
	e.Strategy = rest[0]
	rest = rest[1:]
	if u, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	if u > maxFieldLen {
		return nil, ErrFieldRange
	}
	if u > 0 {
		e.Servers = make([]string, u)
		for i := range e.Servers {
			if e.Servers[i], rest, err = readString(rest); err != nil {
				return nil, err
			}
		}
	}
	if u, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	if u > maxFieldLen {
		return nil, ErrFieldRange
	}
	if u > 0 {
		e.RingServers = make([]string, u)
		for i := range e.RingServers {
			if e.RingServers[i], rest, err = readString(rest); err != nil {
				return nil, err
			}
		}
	}
	if len(rest) > 0 {
		e.Payload = rest
	}
	return e, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readUvarint(data []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return u, data[n:], nil
}

func readString(data []byte) (string, []byte, error) {
	u, rest, err := readUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if u > maxFieldLen {
		return "", nil, ErrFieldRange
	}
	if uint64(len(rest)) < u {
		return "", nil, ErrTruncated
	}
	return string(rest[:u]), rest[u:], nil
}

// PeekRouting extracts what a dispatcher decides on — the envelope type, the
// plan version its publisher stamped and the originating node ID — from an
// encoded envelope without decoding it. Like PeekStamp it is allocation-free:
// it runs on the broker's publish hot path for every message, where a full
// Unmarshal would heap-allocate an Envelope per publication. ok is false for
// non-envelope payloads.
func PeekRouting(data []byte) (t Type, planVersion uint64, node uint32, ok bool) {
	if !peekHeader(data) {
		return 0, 0, 0, false
	}
	rest := data[envelopeHeaderLen:]
	planVersion, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, 0, false
	}
	u, n := binary.Uvarint(rest[n:])
	if n <= 0 || u > math.MaxUint32 {
		return 0, 0, 0, false
	}
	return Type(data[1]), planVersion, uint32(u), true
}

// PeekNode is PeekRouting for callers that want only the originating node ID
// (the LLA, per publication).
func PeekNode(data []byte) (node uint32, ok bool) {
	_, _, node, ok = PeekRouting(data)
	return node, ok
}

// PeekStamp extracts the envelope type and publish stamp from an encoded
// envelope without decoding (or allocating) anything else. It exists for the
// broker-side latency observer, which runs on the publish hot path and must
// not pay the full Unmarshal. ok is false for non-envelope payloads.
func PeekStamp(data []byte) (t Type, stamp int64, ok bool) {
	if !peekHeader(data) {
		return 0, 0, false
	}
	t = Type(data[1])
	rest := data[envelopeHeaderLen:]
	for i := 0; i < 3; i++ { // skip planVersion, node, seq
		u, n := binary.Uvarint(rest)
		if n <= 0 || i == 1 && u > math.MaxUint32 { // a node ID Unmarshal rejects
			return 0, 0, false
		}
		rest = rest[n:]
	}
	u, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, false
	}
	return t, int64(u), true
}

// StageStamp is the zero-alloc view of a frame's latency waterfall marks:
// the publisher's send stamp plus the broker's in-place stage offsets.
// Offsets are microseconds from Stamp; 0 means the stage was never stamped
// (control envelope, or a broker without stage stamping).
type StageStamp struct {
	Type      Type
	Stamp     int64 // publisher send time, Unix nanoseconds (0 = unstamped)
	IngressUs uint32
	FanoutUs  uint32
	FlushUs   uint32
}

// FanoutAt returns the absolute Unix-nanosecond instant of the fanout mark
// (0 when the frame is unstamped or the stage was never marked).
func (s StageStamp) FanoutAt() int64 {
	if s.Stamp == 0 || s.FanoutUs == 0 {
		return 0
	}
	return s.Stamp + int64(s.FanoutUs)*1000
}

// PeekStageStamp extracts the full multi-stage stamp from an encoded
// envelope without decoding (or allocating) anything else — the stage
// sibling of PeekStamp, and like it safe to call on the hot path. ok is
// false for non-envelope payloads.
func PeekStageStamp(data []byte) (s StageStamp, ok bool) {
	t, stamp, ok := PeekStamp(data)
	if !ok {
		return StageStamp{}, false
	}
	return StageStamp{
		Type:      t,
		Stamp:     stamp,
		IngressUs: binary.LittleEndian.Uint32(data[stageIngressOff:]),
		FanoutUs:  binary.LittleEndian.Uint32(data[stageFanoutOff:]),
		FlushUs:   binary.LittleEndian.Uint32(data[stageFlushOff:]),
	}, true
}

// stageDeltaUs converts an absolute stage instant into the on-wire
// microsecond offset from stamp: clamped to [1, MaxUint32] so a genuine
// mark is never encoded as "unstamped" and clock skew never wraps.
func stageDeltaUs(stamp, at int64) uint32 {
	d := (at - stamp) / 1000
	if d < 1 {
		return 1
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// StampStages writes the broker's ingress and fanout-enqueue marks into an
// already-encoded data envelope in place, and returns the frame's
// publisher stamp so the caller can derive stage ages without a second
// peek. It stamps only TypeData and TypeForwarded frames whose publisher
// stamp is set; everything else (control envelopes, raw payloads) is left
// untouched with ok false. Like StampChannelSeq, the
// caller must exclusively own data — the broker stamps before the first
// subscriber queue sees the frame.
func StampStages(data []byte, ingressNanos, fanoutNanos int64) (stamp int64, ok bool) {
	if !peekHeader(data) {
		return 0, false
	}
	if t := Type(data[1]); t != TypeData && t != TypeForwarded {
		return 0, false
	}
	_, stamp, ok = PeekStamp(data)
	if !ok || stamp == 0 {
		return 0, false
	}
	binary.LittleEndian.PutUint32(data[stageIngressOff:], stageDeltaUs(stamp, ingressNanos))
	binary.LittleEndian.PutUint32(data[stageFanoutOff:], stageDeltaUs(stamp, fanoutNanos))
	return stamp, true
}

// StampFlush writes the writer-flush mark into a data envelope in place. It is only safe on frames the caller exclusively owns (a sink's
// private copy); the shared-fanout delivery cores must not call it and
// instead observe flush age broker-side.
func StampFlush(data []byte, flushNanos int64) bool {
	if !peekHeader(data) {
		return false
	}
	if t := Type(data[1]); t != TypeData && t != TypeForwarded {
		return false
	}
	_, stamp, ok := PeekStamp(data)
	if !ok || stamp == 0 {
		return false
	}
	binary.LittleEndian.PutUint32(data[stageFlushOff:], stageDeltaUs(stamp, flushNanos))
	return true
}

// StampChannelSeq writes the broker-assigned replay coordinates into an
// already-encoded data envelope in place. It stamps only TypeData and
// TypeForwarded frames (control envelopes and raw payloads are left
// untouched) and reports whether it stamped. The caller must exclusively own
// data: the broker's publish path stamps the frame it is about to fan out,
// before any subscriber sees it.
func StampChannelSeq(data []byte, epoch, seq uint64) bool {
	if !peekHeader(data) {
		return false
	}
	if t := Type(data[1]); t != TypeData && t != TypeForwarded {
		return false
	}
	binary.LittleEndian.PutUint64(data[2:10], epoch)
	binary.LittleEndian.PutUint64(data[10:18], seq)
	return true
}

// StrippedLen is how many bytes AppendStripped drops from a frame: the
// replay coordinates and the stage block.
const StrippedLen = seqHeaderLen + stageHeaderLen

// AppendStripped appends frame to dst without its fixed [2,30) region — the
// replay coordinates and stage block, which a replay ring writes back with
// AppendRestamped rather than stores. frame must open with a complete header.
func AppendStripped(dst, frame []byte) []byte {
	dst = slices.Grow(dst, len(frame)-StrippedLen)
	dst = append(dst, frame[:2]...)
	return append(dst, frame[envelopeHeaderLen:]...)
}

// PutStrippedSplit is AppendStripped into space a buffer hands out in two
// pieces — the run to its end, then the rest from its start: it writes
// frame's stripped body across head and then tail, which together must be
// exactly len(frame)-StrippedLen bytes long.
func PutStrippedSplit(head, tail, frame []byte) {
	putAt(head, tail, 0, frame[:2])
	putAt(head, tail, 2, frame[envelopeHeaderLen:])
}

// putAt copies src to position at of the concatenation head+tail.
func putAt(head, tail []byte, at int, src []byte) {
	if at < len(head) {
		n := copy(head[at:], src)
		src, at = src[n:], len(head)
	}
	copy(tail[at-len(head):], src)
}

// AppendRestamped is the inverse of AppendStripped and PutStrippedSplit: it
// appends the frame the body head+tail was stripped from, stamped with
// (epoch, seq) and a zero stage block. tail is empty unless the body is
// stored in two pieces.
func AppendRestamped(dst, head, tail []byte, epoch, seq uint64) []byte {
	k := min(len(head), 2)
	dst = append(dst, head[:k]...)
	dst = append(dst, tail[:2-k]...)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, make([]byte, stageHeaderLen)...)
	dst = append(dst, head[k:]...)
	return append(dst, tail[2-k:]...)
}

// PeekChannelSeq extracts the replay coordinates from an encoded envelope
// without decoding anything else. ok is false for non-envelope payloads and
// for envelopes never stamped by a replay-enabled broker (epoch 0).
func PeekChannelSeq(data []byte) (epoch, seq uint64, ok bool) {
	if !peekHeader(data) {
		return 0, 0, false
	}
	epoch = binary.LittleEndian.Uint64(data[2:10])
	seq = binary.LittleEndian.Uint64(data[10:18])
	return epoch, seq, epoch != 0
}

// Generator allocates globally unique message IDs for one node. The zero
// value is not usable; create one with NewGenerator.
type Generator struct {
	node uint32
	seq  atomic.Uint64
}

// NewGenerator returns an ID generator for the given non-zero node ID.
func NewGenerator(node uint32) *Generator {
	if node == 0 {
		panic("message: node ID must be non-zero")
	}
	return &Generator{node: node}
}

// Next returns a fresh unique ID. It is safe for concurrent use.
func (g *Generator) Next() ID {
	return ID{Node: g.node, Seq: g.seq.Add(1)}
}

// Node returns the node component embedded in IDs from this generator.
func (g *Generator) Node() uint32 { return g.node }
