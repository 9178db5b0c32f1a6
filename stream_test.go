package dynamoth

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// eagerDialer wraps a dialer so that subscribing to channel delivers frame
// on the connection before Subscribe returns: a server fanning out the
// moment it has registered the subscription, ahead of the client.
type eagerDialer struct {
	inner   transport.Dialer
	channel string
	frame   []byte
}

func (d eagerDialer) Dial(server plan.ServerID, h transport.Handler) (transport.Conn, error) {
	conn, err := d.inner.Dial(server, h)
	if err != nil {
		return nil, err
	}
	return eagerConn{Conn: conn, d: d, h: h}, nil
}

type eagerConn struct {
	transport.Conn
	d eagerDialer
	h transport.Handler
}

func (c eagerConn) Subscribe(channels ...string) error {
	if err := c.Conn.Subscribe(channels...); err != nil {
		return err
	}
	for _, ch := range channels {
		if ch == c.d.channel {
			c.h.OnMessage(ch, append([]byte(nil), c.d.frame...))
		}
	}
	return nil
}

// A frame that arrives while Subscribe is still in flight reaches the new
// stream: the stream exists before SUBSCRIBE goes out.
func TestSubscribeKeepsFirstDelivery(t *testing.T) {
	d := newTestDeployment(t, "s1")
	frame := (&message.Envelope{
		Type:    message.TypeData,
		ID:      message.ID{Node: 7, Seq: 1},
		Channel: "tile",
		Payload: []byte("first"),
	}).Marshal()
	dialer := eagerDialer{inner: d.dialer, channel: "tile", frame: frame}
	c, err := ConnectWithDialer(dialer, d.servers, Config{NodeID: 900})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msgs, err := c.Subscribe("tile")
	if err != nil {
		t.Fatal(err)
	}
	if m := recvMsg(t, msgs); string(m.Payload) != "first" || m.Publisher != 7 {
		t.Fatalf("message %+v, want the frame delivered during Subscribe", m)
	}
	if st := c.Stats(); st.Received != 1 || st.Dropped != 0 || st.Duplicates != 0 {
		t.Fatalf("stats %+v, want 1 received", st)
	}
}

// streamHarness drives one subscription's stream directly through the
// client's delivery step, with message i carrying ChannelSeq i.
type streamHarness struct {
	t    testing.TB
	c    *Client
	sub  *subscription
	msgs <-chan Message
	next uint64
}

func newStreamHarness(t testing.TB, d *testDeployment, node uint32, buffer int) *streamHarness {
	t.Helper()
	c, err := ConnectWithDialer(d.dialer, d.servers, Config{NodeID: node, SubscribeBuffer: buffer})
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := c.Subscribe("stream")
	if err != nil {
		t.Fatal(err)
	}
	return &streamHarness{t: t, c: c, sub: c.sub("stream"), msgs: msgs}
}

func (h *streamHarness) deliver(n int) {
	for i := 0; i < n; i++ {
		h.c.deliver(h.sub, "stream", &message.Envelope{Type: message.TypeData, ChannelSeq: h.next})
		h.next++
	}
}

// read takes the next message, which must carry seq.
func (h *streamHarness) read(seq uint64) {
	h.t.Helper()
	select {
	case m, ok := <-h.msgs:
		if !ok {
			h.t.Fatalf("stream closed, want message %d", seq)
		}
		if m.ChannelSeq != seq {
			h.t.Fatalf("read message %d, want %d", m.ChannelSeq, seq)
		}
	case <-time.After(5 * time.Second):
		h.t.Fatalf("message %d never became readable", seq)
	}
}

// readClosed drains a closed stream, which must hold exactly want.
func (h *streamHarness) readClosed(want []uint64) {
	h.t.Helper()
	for _, seq := range want {
		h.read(seq)
	}
	select {
	case m, ok := <-h.msgs:
		if ok {
			h.t.Fatalf("read message %d past the end of the closed stream", m.ChannelSeq)
		}
	case <-time.After(5 * time.Second):
		h.t.Fatal("stream not closed")
	}
}

// empty checks that nothing is readable now.
func (h *streamHarness) empty() {
	h.t.Helper()
	select {
	case m := <-h.msgs:
		h.t.Fatalf("read message %d, want nothing readable", m.ChannelSeq)
	default:
	}
}

// eventually waits for cond, which pump progress makes true.
func eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func seqs(from, to uint64) []uint64 {
	var s []uint64
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

// TestSubscriptionStream pins the stream's contract with SubscribeBuffer
// below, at and above the channel's depth: at most SubscribeBuffer messages
// wait and the newest overflow is dropped, reads come in delivery order, a
// drained stream flows again, and Unsubscribe/Close return with the stream
// closed, the backlog discarded into Dropped and no pump left running.
func TestSubscriptionStream(t *testing.T) {
	d := newTestDeployment(t, "s1")
	const k = 5
	node := uint32(2000)
	for _, buffer := range []int{8, streamDepth, 3*streamDepth + 1} {
		b := uint64(buffer)
		kept := uint64(min(buffer, streamDepth)) // readable after a close
		rows := []struct {
			name string
			run  func(t *testing.T, h *streamHarness)
		}{
			{"bound", func(t *testing.T, h *streamHarness) {
				h.deliver(buffer + k)
				if st := h.c.Stats(); st.Dropped != k {
					t.Fatalf("dropped %d of %d unread, want %d", st.Dropped, buffer+k, k)
				}
			}},
			{"order", func(t *testing.T, h *streamHarness) {
				h.deliver(buffer + k)
				for _, seq := range seqs(0, b) {
					h.read(seq)
				}
				h.empty()
				eventually(t, "received to count every read", func() bool { return h.c.Stats().Received == b })
			}},
			{"drain_then_flow", func(t *testing.T, h *streamHarness) {
				h.deliver(buffer + k)
				for _, seq := range seqs(0, b) {
					h.read(seq)
				}
				h.deliver(buffer)
				for _, seq := range seqs(b+k, 2*b+k) {
					h.read(seq)
				}
				if st := h.c.Stats(); st.Dropped != k {
					t.Fatalf("dropped %d, want the first overflow's %d only", st.Dropped, k)
				}
			}},
			{"unsubscribe_with_backlog", func(t *testing.T, h *streamHarness) {
				h.deliver(buffer + k)
				if err := h.c.Unsubscribe("stream"); err != nil {
					t.Fatal(err)
				}
				h.readClosed(seqs(0, kept))
				if st := h.c.Stats(); st.Received != kept || st.Dropped != b+k-kept {
					t.Fatalf("stats %+v, want %d received and %d dropped", st, kept, b+k-kept)
				}
			}},
			{"close_with_backlog", func(t *testing.T, h *streamHarness) {
				h.deliver(buffer + k)
				if err := h.c.Close(); err != nil {
					t.Fatal(err)
				}
				h.readClosed(seqs(0, kept))
				if st := h.c.Stats(); st.Received != kept || st.Dropped != b+k-kept {
					t.Fatalf("stats %+v, want %d received and %d dropped", st, kept, b+k-kept)
				}
			}},
		}
		for _, row := range rows {
			node++
			t.Run(row.name+"/buffer="+strconv.Itoa(buffer), func(t *testing.T) {
				goroutines := runtime.NumGoroutine()
				h := newStreamHarness(t, d, node, buffer)
				defer h.c.Close()
				row.run(t, h)
				h.c.Close()
				h.sub.stream.mu.Lock()
				pumping := h.sub.stream.pumping
				h.sub.stream.mu.Unlock()
				if pumping {
					t.Fatal("the pump outlived its closed stream")
				}
				h.deliver(1) // a late delivery to a closed stream is ignored
				eventually(t, "goroutines to settle", func() bool { return runtime.NumGoroutine() <= goroutines })
			})
		}
	}
}

// FuzzSubscriptionStream checks a stream against a plain slice of bound
// SubscribeBuffer under random interleavings of deliveries, reads,
// Unsubscribe and Close: reads come in order, Dropped is exact after every
// step, and a closed stream holds exactly what the model keeps readable,
// with Received and Dropped then exact too.
func FuzzSubscriptionStream(f *testing.F) {
	d := newTestDeployment(f, "s1")
	f.Add([]byte{3, 0, 40, 1, 8, 0, 40, 1, 255, 2})
	f.Add([]byte{4, 0, 255, 1, 3, 0, 9, 3, 0, 1})
	f.Add([]byte{1, 0, 3, 1, 1, 0, 2, 2, 0, 5})
	f.Add([]byte{2, 0, 31, 1, 1, 0, 2, 1, 40, 0, 70})
	buffers := []int{1, streamDepth - 1, streamDepth, streamDepth + 1, 3 * streamDepth, 1024}
	node := uint32(5000)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		buffer := buffers[int(ops[0])%len(buffers)]
		node++
		h := newStreamHarness(t, d, node, buffer)
		defer h.c.Close()
		var (
			queue             []uint64 // what waits, in order
			accepted, dropped uint64
			closed            bool
		)
		closeModel := func() {
			closed = true
			keep := min(len(queue), streamDepth)
			dropped += uint64(len(queue) - keep)
			accepted -= uint64(len(queue) - keep)
			queue = queue[:keep]
		}
		for i := 1; i+1 < len(ops); i += 2 {
			n := int(ops[i+1])
			switch ops[i] % 4 {
			case 0: // deliver n
				for j := 0; j < n; j++ {
					seq := h.next
					h.deliver(1)
					switch {
					case closed:
					case len(queue) >= buffer:
						dropped++
					default:
						queue = append(queue, seq)
						accepted++
					}
				}
			case 1: // read n
				for j := 0; j < n && len(queue) > 0; j++ {
					h.read(queue[0])
					queue = queue[1:]
				}
				if !closed && len(queue) == 0 {
					h.empty()
				}
			case 2:
				if !closed {
					if err := h.c.Unsubscribe("stream"); err != nil {
						t.Fatal(err)
					}
					closeModel()
				}
			case 3:
				if err := h.c.Close(); err != nil {
					t.Fatal(err)
				}
				if !closed {
					closeModel()
				}
			}
			if got := h.c.Stats().Dropped; got != dropped {
				t.Fatalf("op %d: dropped %d, model %d", i/2, got, dropped)
			}
		}
		if !closed {
			h.c.Close()
			closeModel()
		}
		h.readClosed(queue)
		if st := h.c.Stats(); st.Received != accepted || st.Dropped != dropped {
			t.Fatalf("closed: received %d dropped %d, model %d and %d", st.Received, st.Dropped, accepted, dropped)
		}
	})
}
