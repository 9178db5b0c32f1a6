package broker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/dynamoth/dynamoth/internal/message"
)

// recordSink keeps a copy of everything enqueued to its session, in order.
type recordSink struct{ frames [][]byte }

func (s *recordSink) Deliver(_ string, payload []byte) { s.Enqueue("", "", payload) }
func (s *recordSink) Closed(error)                     {}
func (s *recordSink) Enqueue(_, _ string, payload []byte) bool {
	s.frames = append(s.frames, append([]byte(nil), payload...))
	return true
}

// modelFrame is one retained publication as published: its wire bytes before
// the broker stamped them, and its publisher stamp.
type modelFrame struct {
	wire  []byte
	stamp int64
}

// modelRing is what a channel's ring should hold: every retained frame since
// the ring's epoch began, oldest first (frame i has sequence i+1).
type modelRing struct {
	epoch  uint64
	frames []modelFrame
}

// replayed is what a replay of sequence seq hands out: the frame as
// published, with the ring's (epoch, seq) and a zero stage block.
func (m *modelRing) replayed(seq uint64) []byte {
	f := append([]byte(nil), m.frames[seq-1].wire...)
	binary.LittleEndian.PutUint64(f[2:], m.epoch)
	binary.LittleEndian.PutUint64(f[10:], seq)
	clear(f[18:30])
	return f
}

// FuzzReplayRing checks the replay rings against a plain list of what each
// channel was published. Its input drives one broker with a small ring depth
// and a channel cap that makes same-shard channels evict each other's
// records: publications of data, forwarded and control frames (and raw
// payloads) of random sizes, some with non-zero stage marks; cursor
// subscribes at the ring's epoch below the tail, at the head, in the future
// and in between; and foreign-epoch cursor subscribes with a SinceStamp.
// Every replay must equal the model's frames in order, restamped with the
// ring's (epoch, seq) and zero stage marks; Missed must be exact; and
// ReplayBytes must equal the bytes of the frames the model's rings hold.
// The seeds run in tier-1; `go test -fuzz FuzzReplayRing ./internal/broker/`
// explores.
func FuzzReplayRing(f *testing.F) {
	// Depth 2, five frames on the unevictable channel, then cursors below
	// the tail, in the window, in the future and from a foreign epoch.
	f.Add([]byte{1, 0, 3, 0, 5, 1, 0, 3, 4, 6, 2, 1, 3, 1, 7, 3, 0, 3, 0, 8, 4, 0, 3, 5, 9, 5,
		2, 3, 0, 2, 3, 7, 2, 3, 1, 2, 3, 6, 3, 3, 4, 3, 3, 0})
	// Two same-shard channels evicting each other between cursors.
	f.Add([]byte{3, 0, 0, 0, 40, 5, 0, 1, 0, 20, 6, 2, 0, 1, 0, 0, 0, 9, 7, 2, 0, 0, 3, 1, 1, 3, 0, 9})
	f.Add([]byte{0, 0, 0, 4, 10, 1, 0, 1, 4, 10, 2, 0, 2, 4, 10, 3, 2, 0, 0, 2, 1, 2})
	f.Add([]byte{7, 0, 0, 0, 200, 1, 0, 0, 1, 200, 2, 0, 0, 2, 9, 3, 0, 0, 3, 50, 4, 2, 0, 3, 2, 3, 2, 2, 0, 3, 0, 2, 3, 0, 1})
	f.Add([]byte{1, 0, 1, 5, 60, 8, 0, 2, 6, 60, 9, 1, 3, 7, 0, 0, 3, 1, 9, 2, 1, 1, 2, 2, 3})
	f.Add(bytes.Repeat([]byte{0, 1, 4, 33, 7}, 40))
	// Depth 3: a lap and one more frame lay the ring out; then cursors
	// below the tail, at the head and from a foreign epoch.
	f.Add(ringOps(2, fuzzPub(3, 10, 1), fuzzPub(3, 10, 2), fuzzPub(3, 10, 3), fuzzPub(3, 10, 4),
		fuzzCursor(3, 0), fuzzCursor(3, 1), fuzzSince(3, 2)))
	// Depth 2, same-size frames: the write position walks round the
	// laid-out buffer until a body straddles its end; a cursor after each.
	var walk [][]byte
	for k := byte(1); k <= 24; k++ {
		walk = append(walk, fuzzPub(3, 5, k), fuzzCursor(3, 0))
	}
	f.Add(ringOps(1, walk...))
	// Depth 3, laid out on small frames, then a body larger than the whole
	// buffer: the ring is laid out again around it.
	f.Add(ringOps(2, fuzzPub(3, 10, 1), fuzzPub(3, 10, 2), fuzzPub(3, 10, 3), fuzzPub(3, 10, 4),
		fuzzPub(3, 255, 5), fuzzCursor(3, 0), fuzzPub(3, 10, 6), fuzzCursor(3, 0)))
	// Depth 2: the lap's largest body is the one the layout drops, so the
	// buffer is sized to the survivors alone.
	f.Add(ringOps(1, fuzzPub(3, 250, 1), fuzzPub(3, 2, 2), fuzzPub(3, 2, 3), fuzzCursor(3, 0), fuzzPub(3, 2, 4), fuzzCursor(3, 0)))
	// Depth 2: a laid-out record evicted by a same-shard channel, then
	// recreated.
	f.Add(ringOps(1, fuzzPub(0, 8, 1), fuzzPub(0, 8, 2), fuzzPub(0, 8, 3), fuzzCursor(0, 1),
		fuzzPub(1, 8, 4), fuzzCursor(0, 0), fuzzPub(0, 8, 5), fuzzCursor(0, 0)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512] // enough operations to wrap, evict and resume; keeps minimizing fast
		}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		depth := 1 + int(next()%8)
		b := New(Options{ReplayDepth: depth, ChannelCap: 1})
		// Three channels share a's shard and so one record; the fourth lives
		// elsewhere.
		channels := append(sameShardChannels("a", 3), "z.other")
		model := make([]modelRing, len(channels))

		// refresh folds what the broker reports about its records into the
		// model after an operation on channels[target]: a record gone
		// (evicted) or under a new epoch (recreated) starts an empty ring.
		// Only the target's record can appear, and only another's can go.
		refresh := func(target int) {
			for i, ch := range channels {
				epoch, _, ok := b.ReplayHead(ch)
				if !ok {
					epoch = 0
				}
				switch was := model[i].epoch; {
				case epoch == was:
					continue
				case was != 0 && epoch != 0:
					t.Fatalf("%s: ring replaced in one operation (epoch %d → %d)", ch, was, epoch)
				case epoch == 0 && i == target:
					t.Fatalf("%s: record evicted by an operation on itself", ch)
				case epoch != 0 && i != target:
					t.Fatalf("%s: record created by an operation on %s", ch, channels[target])
				}
				model[i] = modelRing{epoch: epoch}
			}
		}
		// window is the model's retained sequence range [tail, head].
		window := func(m *modelRing) (tail, head uint64) {
			head = uint64(len(m.frames))
			return max(head, uint64(depth)) - uint64(depth) + 1, head
		}
		check := func(op string) {
			var held int64
			for i, ch := range channels {
				m := &model[i]
				_, head, _ := b.ReplayHead(ch)
				if m.epoch != 0 && head != uint64(len(m.frames)) {
					t.Fatalf("%s: %s head %d, model holds %d frames", op, ch, head, len(m.frames))
				}
				tail, head := window(m)
				for q := tail; q <= head; q++ {
					held += int64(len(m.frames[q-1].wire))
				}
			}
			if got := b.Stats().ReplayBytes; got != held {
				t.Fatalf("%s: ReplayBytes = %d, model rings hold %d", op, got, held)
			}
		}

		for n := 0; len(ops) > 0; n++ {
			kind, i := next()%4, int(next())%len(channels)
			ch, m := channels[i], &model[i]
			switch kind {
			case 0, 1: // publish
				form, size, stamp := next(), 4*int(next()), int64(next())
				env := &message.Envelope{Type: message.TypeData, ID: message.ID{Node: 1, Seq: uint64(n)},
					Channel: ch, Payload: bytes.Repeat([]byte{byte(n)}, size), Stamp: stamp}
				switch form % 4 {
				case 1:
					env.Type = message.TypeForwarded
				case 2:
					env.Type = message.TypeSwitch
					env.Servers = []string{"pub2"}
				}
				if form&4 != 0 {
					env.StageIngressUs, env.StageFanoutUs, env.StageFlushUs = 3, 5, 8
				}
				wire := env.Marshal()
				if form%4 == 3 {
					wire = wire[envelopeHeaderOffset(form):] // not an envelope
				}
				published := append([]byte(nil), wire...)
				b.Publish(ch, wire)
				refresh(i)
				if typ, _, ok := message.PeekStamp(published); ok && (typ == message.TypeData || typ == message.TypeForwarded) {
					m.frames = append(m.frames, modelFrame{wire: published, stamp: stamp})
				}
				check(fmt.Sprintf("op %d publish %s", n, ch))
			case 2, 3: // cursor subscribe
				var cur message.Cursor
				if kind == 2 {
					_, head := window(m)
					seq := uint64(next())
					switch seq % 4 {
					case 0:
						seq = 0
					case 1:
						seq = head
					case 2:
						seq = head + 1 + seq/4
					default:
						seq %= head + 1
					}
					cur.Seen = []message.EpochSeq{{Epoch: m.epoch, Seq: seq}}
				} else {
					cur.SinceStamp = int64(next())
					cur.Seen = []message.EpochSeq{{Epoch: m.epoch + 1, Seq: 1}}
				}
				sink := &recordSink{}
				s, err := b.Connect("cursor", sink)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.SubscribeFrom(ch, cur)
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				refresh(i)
				op := fmt.Sprintf("op %d cursor %+v on %s", n, cur, ch)

				var want [][]byte
				var missed uint64
				tail, head := window(m)
				if seq, ok := cur.SeqFor(m.epoch); ok {
					from := seq + 1
					if from <= head && from < tail {
						missed, from = tail-from, tail
					}
					for q := from; q <= head; q++ {
						want = append(want, m.replayed(q))
					}
				} else if cur.SinceStamp != 0 {
					for q := tail; q <= head; q++ {
						if m.frames[q-1].stamp >= cur.SinceStamp {
							want = append(want, m.replayed(q))
						}
					}
				}
				if res.Epoch != m.epoch || res.Missed != missed || res.Replayed != len(want) {
					t.Fatalf("%s: %+v, want epoch %d, %d missed, %d replayed", op, res, m.epoch, missed, len(want))
				}
				if len(sink.frames) != len(want) {
					t.Fatalf("%s: sink got %d frames, want %d", op, len(sink.frames), len(want))
				}
				for k := range want {
					if !bytes.Equal(sink.frames[k], want[k]) {
						t.Fatalf("%s: replayed frame %d\n got %x\nwant %x", op, k, sink.frames[k], want[k])
					}
				}
				check(op)
			}
		}
	})
}

// envelopeHeaderOffset cuts a frame somewhere inside its fixed header, so
// what remains is a raw payload the broker must neither stamp nor retain.
func envelopeHeaderOffset(form byte) int { return 1 + int(form>>3)%16 }

// ringOps spells a FuzzReplayRing input: the depth byte (depth 1 + d%8),
// then the operations in order.
func ringOps(d byte, ops ...[]byte) []byte {
	return append([]byte{d}, bytes.Join(ops, nil)...)
}

// fuzzPub publishes a data frame with a 4×size-byte payload on channel ch.
func fuzzPub(ch, size, stamp byte) []byte { return []byte{0, ch, 0, size, stamp} }

// fuzzCursor subscribes to ch with a cursor at the ring's epoch: sel 0 asks
// from sequence 1, sel 1 from the head.
func fuzzCursor(ch, sel byte) []byte { return []byte{2, ch, sel} }

// fuzzSince subscribes to ch from a foreign epoch, since stamp.
func fuzzSince(ch, stamp byte) []byte { return []byte{3, ch, stamp} }
