//go:build linux

package broker

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/resp"
)

// These tests pin the reactor's park protocol and flusher choice (DESIGN.md
// §14). Two harnesses: startTwoShards serves a real two-shard reactor, where
// sequentially dialled connections alternate between the shards; handReactor
// builds the shards without their goroutines, so the test plays every shard
// loop itself and every interleaving it needs is deterministic.

// twoShardCore is the reactor core with exactly two shards, whatever
// GOMAXPROCS is; the reactor it starts is sent on the channel.
func twoShardCore() (connCore, <-chan *reactor) {
	made := make(chan *reactor, 1) // Serve starts its core once
	return connCore{name: "reactor", start: func(cs *ConnServer) (func(*net.TCPConn), func(), error) {
		r, err := newReactor(cs, 2)
		if err != nil {
			return nil, nil, err
		}
		made <- r
		return r.attach, r.start(), nil
	}}, made
}

// startTwoShards serves a fresh broker on a two-shard reactor.
func startTwoShards(t *testing.T, sopts ServeOptions) (string, *Broker, *ConnServer, *reactor) {
	t.Helper()
	core, made := twoShardCore()
	addr, b, cs := startCore(t, core, Options{}, sopts)
	return addr, b, cs, <-made
}

// sessionOf finds the reactor session behind a client connection that has
// completed at least one command.
func sessionOf(t *testing.T, b *Broker, c *respClient) *rsession {
	t.Helper()
	name := c.conn.LocalAddr().String()
	b.mu.RLock()
	defer b.mu.RUnlock()
	for s := range b.sessions {
		if s.name == name {
			return s.sink.(*rsession)
		}
	}
	t.Fatalf("no session named %s", name)
	return nil
}

// dialOn dials until the connection lands on shard want of r.
func dialOn(t *testing.T, addr string, b *Broker, r *reactor, want int) (*respClient, *rsession) {
	t.Helper()
	for i := 0; i <= len(r.shards); i++ {
		c := dialRESP(t, addr)
		c.cmd(t, "PING")
		if rs := sessionOf(t, b, c); rs.sh == r.shards[want] {
			return c, rs
		}
	}
	t.Fatalf("round-robin attach never reached shard %d", want)
	return nil, nil
}

// TestReactorCrossShardAdoption: publisher and subscriber on different
// shards, one message in flight at a time. The subscriber's shard never has a
// reason to wake, so the publisher's shard — awake for the read — flushes the
// delivery itself: every message arrives, and almost none rings a doorbell.
func TestReactorCrossShardAdoption(t *testing.T) {
	addr, b, cs, r := startTwoShards(t, ServeOptions{})
	pub, _ := dialOn(t, addr, b, r, 0)
	sub, _ := dialOn(t, addr, b, r, 1)
	sub.cmd(t, "SUBSCRIBE", "x")

	const n = 1000
	base := cs.Stats()
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("m%d", i)
		if v := pub.cmd(t, "PUBLISH", "x", want); v.Int != 1 {
			t.Fatalf("PUBLISH %d => %+v", i, v)
		}
		if v := sub.read(t); string(v.Array[2].Str) != want {
			t.Fatalf("delivery %d = %q", i, v.Array[2].Str)
		}
	}
	st := cs.Stats()
	doorbells, adopted := st.Doorbells-base.Doorbells, st.AdoptedFlushes-base.AdoptedFlushes
	t.Logf("%d deliveries: %d doorbells, %d adopted flushes", n, doorbells, adopted)
	if doorbells > n/10 {
		t.Errorf("%d doorbells for %d deliveries: awake shards are still being rung", doorbells, n)
	}
	if adopted == 0 {
		t.Error("no flush was adopted by the awake shard")
	}
}

// TestReactorAdoptedFlushEAGAIN: an adopted flush that fills the peer's
// kernel buffers leaves its remainder to the owner. Once publishing has
// stopped, only the owner's EPOLLOUT edge can move the rest, so receiving
// everything, in order, is the proof; and EPOLLOUT is disarmed afterwards.
func TestReactorAdoptedFlushEAGAIN(t *testing.T) {
	addr, b, cs, r := startTwoShards(t, ServeOptions{WriteBufferLimit: 64 << 20})
	pub, _ := dialOn(t, addr, b, r, 0)
	sub, rs := dialOn(t, addr, b, r, 1)
	sub.cmd(t, "SUBSCRIBE", "big")
	// Pin the send buffer (setting it switches autotuning off), so 2 MiB is
	// sure to overrun it; not so small that TCP stalls on delayed ACKs.
	syscall.SetsockoptInt(rs.fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 64<<10) //nolint:errcheck // best-effort

	const msgs = 128
	payload := func(i int) []byte {
		return append(bytes.Repeat([]byte{byte('a' + i%26)}, 16<<10), fmt.Sprintf("#%d", i)...)
	}
	base := cs.Stats().AdoptedFlushes
	for i := 0; i < msgs; i++ {
		// One at a time, each read short of rbuf: the publisher's shard is
		// awake and not backlogged, the stalled subscriber's shard parked.
		if v := pub.cmd(t, "PUBLISH", "big", string(payload(i))); v.Int != 1 {
			t.Fatalf("PUBLISH %d => %+v", i, v)
		}
	}
	rs.mu.Lock()
	stalled, armed := len(rs.wbuf), rs.wantWrite
	rs.mu.Unlock()
	if stalled == 0 || !armed {
		t.Fatalf("%d MiB never filled the peer's buffers (pending %d, EPOLLOUT armed %v)", msgs*16>>10, stalled, armed)
	}
	if cs.Stats().AdoptedFlushes == base {
		t.Fatal("no flush was adopted")
	}

	for i := 0; i < msgs; i++ {
		sub.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		v, err := sub.r.ReadValue()
		if err != nil {
			t.Fatalf("message %d: the owner never finished the adopted flush: %v", i, err)
		}
		if !bytes.Equal(v.Array[2].Str, payload(i)) {
			t.Fatalf("message %d out of order or corrupted (tail %q)", i, v.Array[2].Str[16<<10:])
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		rs.mu.Lock()
		pending, armed := len(rs.wbuf), rs.wantWrite
		rs.mu.Unlock()
		if pending == 0 && !armed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after full delivery: %d bytes pending, EPOLLOUT armed %v", pending, armed)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReactorWriteBufferHysteresis: on a live session, a buffer grown by
// large frames survives the flush that empties it and goes once the traffic
// has been small for wbufLeanFlushes flushes.
func TestReactorWriteBufferHysteresis(t *testing.T) {
	addr, b, _, r := startTwoShards(t, ServeOptions{})
	pub, _ := dialOn(t, addr, b, r, 0)
	sub, rs := dialOn(t, addr, b, r, 0)
	sub.cmd(t, "SUBSCRIBE", "x")
	retained := func() int {
		rs.mu.Lock()
		defer rs.mu.Unlock()
		return cap(rs.wbuf)
	}
	pingPong := func(payload string) {
		t.Helper()
		pub.cmd(t, "PUBLISH", "x", payload)
		if v := sub.read(t); len(v.Array[2].Str) != len(payload) {
			t.Fatalf("delivery of %d bytes, want %d", len(v.Array[2].Str), len(payload))
		}
		pub.cmd(t, "PING") // its reply follows the delivery's flush on the one shard
	}
	big := string(bytes.Repeat([]byte{'z'}, 4*wbufRetain))
	for i := 0; i < 3; i++ {
		pingPong(big)
		if got := retained(); got <= wbufRetain {
			t.Fatalf("large frame %d: buffer dropped to %d bytes right after its flush", i, got)
		}
	}
	for i := 0; i < 2*wbufLeanFlushes; i++ {
		pingPong("tiny")
	}
	if got := retained(); got > wbufRetain {
		t.Fatalf("still holding %d bytes after %d small flushes", got, 2*wbufLeanFlushes)
	}
}

// TestReactorShutdownUnderCrossShardTraffic closes the listener while
// sessions keep landing on foreign shards' pending lists — adopted there, or
// on their way back to the owner in a hand-off: Serve must still return with
// every connection accounted for and no goroutine left behind.
func TestReactorShutdownUnderCrossShardTraffic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pubs    int // publishers, alternating between the shards, one channel each
		subs    int // subscribers per channel, all on the shard opposite the publisher
		crossed func(ConnStats) bool
	}{
		// Each shard adopts for the other.
		{"pairs", 4, 1, func(st ConnStats) bool { return st.AdoptedFlushes >= 100 }},
		// A backlog per publication: whenever the subscribers' shard has
		// parked, the publisher's hands the lot back to it.
		{"wide fan-out", 1, 2 * handOffMin, func(st ConnStats) bool { return st.Handoffs >= 10*handOffMin }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			b := New(Options{Name: "shutdown-" + tc.name})
			core, made := twoShardCore()
			ln, cs, served := serveCore(t, core, b, ServeOptions{}, nil)
			r := <-made
			addr := ln.Addr().String()

			// Every client goroutine ends when the server closes its connection.
			var clients sync.WaitGroup
			for i := 0; i < tc.pubs; i++ {
				pub, _ := dialOn(t, addr, b, r, i%2)
				ch := fmt.Sprintf("c%d", i)
				for j := 0; j < tc.subs; j++ {
					sub, _ := dialOn(t, addr, b, r, 1-i%2)
					sub.cmd(t, "SUBSCRIBE", ch)
					clients.Add(1)
					go func() {
						defer clients.Done()
						for {
							if _, err := sub.r.ReadValue(); err != nil {
								return
							}
						}
					}()
				}
				clients.Add(1)
				go func() {
					defer clients.Done()
					for {
						pub.w.WriteCommand([]byte("PUBLISH"), []byte(ch), []byte("x")) //nolint:errcheck
						if err := pub.w.Flush(); err != nil {
							return
						}
						pub.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
						if _, err := pub.r.ReadValue(); err != nil {
							return
						}
					}
				}()
			}
			deadline := time.Now().Add(5 * time.Second)
			for !tc.crossed(cs.Stats()) {
				if time.Now().After(deadline) {
					t.Fatalf("traffic never crossed shards: %+v", cs.Stats())
				}
				time.Sleep(time.Millisecond)
			}

			ln.Close()
			select {
			case <-served:
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return after listener close")
			}
			if st := cs.Stats(); st.Conns != 0 || st.Closes != st.Accepts {
				t.Fatalf("after Serve returned: %+v, want 0 conns and closes == accepts", st)
			}
			clients.Wait()
			b.Close()
			deadline = time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+2 {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("goroutines %d > baseline %d after shutdown\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// handReactor is a reactor whose shard loops are not running: the test
// drives each shard's steps itself, on its own goroutine.
type handReactor struct {
	t  *testing.T
	b  *Broker
	cs *ConnServer
	r  *reactor
	ln net.Listener
}

func newHandReactor(t *testing.T, shards int) *handReactor {
	t.Helper()
	b := New(Options{Name: "hand"})
	cs := NewConnServer(b, ServeOptions{})
	r, err := newReactor(cs, shards)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		b.Close() // ends every session still open
		for _, sh := range r.shards {
			sh.processDead()
			sh.destroy()
		}
	})
	return &handReactor{t: t, b: b, cs: cs, r: r, ln: ln}
}

// connect attaches a new connection to shard `shard` and registers it there.
func (h *handReactor) connect(shard int) (*respClient, *rsession) {
	h.t.Helper()
	c := dialRESP(h.t, h.ln.Addr().String())
	conn, err := h.ln.Accept()
	if err != nil {
		h.t.Fatal(err)
	}
	h.r.next = uint64(shard) // attach's round-robin cursor; only this goroutine attaches
	h.r.attach(conn.(*net.TCPConn))
	rs := sessionOf(h.t, h.b, c)
	rs.sh.processIncoming()
	return c, rs
}

// subscribe connects a subscriber of channel "x" to shard `shard` and plays
// the owner until the acknowledgement has been read.
func (h *handReactor) subscribe(shard int) (*respClient, *rsession) {
	h.t.Helper()
	c, rs := h.connect(shard)
	h.send(c, rs, "SUBSCRIBE", "x")
	rs.sh.flushPending()
	c.read(h.t)
	return c, rs
}

// send writes one command to the server side of c and has the owner shard
// service the read event, as its loop would.
func (h *handReactor) send(c *respClient, rs *rsession, args ...string) {
	h.t.Helper()
	h.deliver(c, rs, resp.AppendCommandStrings(nil, args[0], args[1:]...))
}

// deliver writes raw to the server side of c and, once all of it has arrived,
// has the owner shard service the one read event.
func (h *handReactor) deliver(c *respClient, rs *rsession, raw []byte) {
	h.t.Helper()
	if _, err := c.conn.Write(raw); err != nil {
		h.t.Fatal(err)
	}
	h.awaitInput(rs, len(raw))
	rs.sh.handleEvent(rs.fd, uint32(syscall.EPOLLIN))
}

// awaitInput waits until n bytes sit unread in rs's socket.
func (h *handReactor) awaitInput(rs *rsession, n int) {
	h.t.Helper()
	peek := make([]byte, n)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, _, _ := syscall.Recvfrom(rs.fd, peek, syscall.MSG_PEEK|syscall.MSG_DONTWAIT); got >= n {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("%d bytes never reached the server socket", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// quiesce flushes every shard, parks those listed and leaves the rest in the
// state a loop has between epoll_wait returning and park.
func (h *handReactor) quiesce(parked ...int) {
	h.t.Helper()
	for _, sh := range h.r.shards {
		sh.flushPending()
		setAwake(sh, true)
	}
	for _, i := range parked {
		if h.r.shards[i].park() != -1 {
			h.t.Fatalf("shard %d has work left and would not park", i)
		}
	}
}

// setAwake puts a shard in the state its loop has between epoll_wait
// returning and park.
func setAwake(sh *rshard, awake bool) {
	sh.qmu.Lock()
	sh.awake = awake
	sh.qmu.Unlock()
}

func queued(sh *rshard) int {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	return len(sh.pending)
}

// statsDelta is what the counters the flusher choice moves gained since base.
type statsDelta struct{ doorbells, adopted, handoffs, writes uint64 }

func (h *handReactor) since(base ConnStats) statsDelta {
	st := h.cs.Stats()
	return statsDelta{st.Doorbells - base.Doorbells, st.AdoptedFlushes - base.AdoptedFlushes,
		st.Handoffs - base.Handoffs, st.EpollWrites - base.EpollWrites}
}

// TestReactorBacklogDeclinesAdoption steps one awake shard through the rule
// for taking a foreign session, reading real input: only a read that filled
// rbuf makes it ring the parked owner instead; with short input it adopts,
// however long its own pending list already is.
func TestReactorBacklogDeclinesAdoption(t *testing.T) {
	h := newHandReactor(t, 2)
	pub, pubRS := h.connect(0)
	sub, subRS := h.subscribe(1)
	sh0 := h.r.shards[0]

	deliveries := 0
	publishes := func(bytes, count int) []byte {
		var burst []byte
		for i := 0; len(burst) < bytes || i < count; i++ {
			burst = resp.AppendCommandStrings(burst, "PUBLISH", "x", "0123456789abcdef")
			deliveries++
		}
		return burst
	}
	steps := []struct {
		name    string
		input   []byte
		stuffed int // own sessions already on the reader's pending list
		want    statsDelta
	}{
		{"one publish", publishes(0, 1), 0, statsDelta{adopted: 1, writes: 2}},
		{"a read and a half of pipelined publishes", publishes(shardReadBuffer*3/2, 0), 0, statsDelta{doorbells: 1, writes: 1}},
		{"one publish after the full reads", publishes(0, 1), 0, statsDelta{adopted: 1, writes: 2}},
		{"a short read of many publishes", publishes(0, 64), 0, statsDelta{adopted: 1, writes: 2}},
		{"one publish, a long list of its own already pending", publishes(0, 1), 2 * handOffMin, statsDelta{adopted: 1, writes: 2}},
	}
	for _, st := range steps {
		// Both shards flushed, the subscriber's parked, the publisher's awake.
		h.quiesce(1)
		sh0.qmu.Lock()
		for i := 0; i < st.stuffed; i++ {
			sh0.pending = append(sh0.pending, pubRS)
		}
		sh0.qmu.Unlock()

		base := h.cs.Stats()
		h.deliver(pub, pubRS, st.input)
		sh0.flushPending()
		if got := h.since(base); got != st.want {
			t.Fatalf("%s: %+v, want %+v", st.name, got, st.want)
		}
	}
	// Nothing was lost on the way. No loop serves the owner's EPOLLOUT here,
	// so keep flushing by hand.
	for i := 0; i < deliveries; i++ {
		subRS.flush(subRS.sh)
		sub.read(t)
	}
}

// fanOut subscribes n connections to channel "x", alternating between the two
// shards, and returns them with a publisher on shard 0.
func (h *handReactor) fanOut(n int) (pub *respClient, pubRS *rsession, subs []*respClient) {
	h.t.Helper()
	pub, pubRS = h.connect(0)
	for i := 0; i < n; i++ {
		c, _ := h.subscribe(i % 2)
		subs = append(subs, c)
	}
	return pub, pubRS, subs
}

// TestReactorNarrowFanOutRingsNobody: one publication to 32 subscribers, half
// of them a parked shard's, is not a backlog. The awake shard writes all 32
// and the publisher's reply, and the owner sleeps on.
func TestReactorNarrowFanOutRingsNobody(t *testing.T) {
	h := newHandReactor(t, 2)
	pub, pubRS, subs := h.fanOut(32)
	sh0, sh1 := h.r.shards[0], h.r.shards[1]
	h.quiesce(1)

	base := h.cs.Stats()
	h.send(pub, pubRS, "PUBLISH", "x", "m")
	sh0.flushPending()
	if got, want := h.since(base), (statsDelta{adopted: 16, writes: 32 + 1}); got != want {
		t.Fatalf("one publication to 32: %+v, want %+v", got, want)
	}
	if n := queued(sh1); n != 0 {
		t.Fatalf("%d sessions were left to the parked owner", n)
	}
	for _, c := range subs {
		if v := c.read(t); string(v.Array[2].Str) != "m" {
			t.Fatalf("delivery = %q", v.Array[2].Str)
		}
	}
	if v := pub.read(t); v.Int != 32 {
		t.Fatalf("PUBLISH => %+v", v)
	}
}

// TestReactorWideFanOutHandsOffOnce: one read carrying three publications to
// 2*handOffMin subscribers, half of them a parked shard's. That half goes back
// to its owner in one piece, after the last publication has fanned out: one
// ring, and one write per socket carrying all three frames.
func TestReactorWideFanOutHandsOffOnce(t *testing.T) {
	h := newHandReactor(t, 2)
	pub, pubRS, subs := h.fanOut(2 * handOffMin)
	sh0, sh1 := h.r.shards[0], h.r.shards[1]
	h.quiesce(1)

	var burst []byte
	for _, m := range []string{"m0", "m1", "m2"} {
		burst = resp.AppendCommandStrings(burst, "PUBLISH", "x", m)
	}
	base := h.cs.Stats()
	h.deliver(pub, pubRS, burst)
	if got := h.since(base); got != (statsDelta{}) {
		t.Fatalf("before the flush: %+v, want nothing rung, written or handed off yet", got)
	}
	sh0.flushPending()
	if got, want := h.since(base), (statsDelta{doorbells: 1, handoffs: handOffMin, writes: handOffMin + 1}); got != want {
		t.Fatalf("after the awake shard's flush: %+v, want %+v", got, want)
	}
	if n := queued(sh1); n != handOffMin {
		t.Fatalf("the rung owner holds %d sessions, want its %d", n, handOffMin)
	}
	sh1.flushPending() // the rung owner's pass
	if got, want := h.since(base), (statsDelta{doorbells: 1, handoffs: handOffMin, writes: 2*handOffMin + 1}); got != want {
		t.Fatalf("after the owner's flush: %+v, want %+v (one write per socket)", got, want)
	}
	for i, c := range subs {
		for _, m := range []string{"m0", "m1", "m2"} {
			if v := c.read(t); string(v.Array[2].Str) != m {
				t.Fatalf("subscriber %d: delivery %q, want %q", i, v.Array[2].Str, m)
			}
		}
	}
}

// TestReactorAdoptionSpreadsOverAwakeShards: the search for an awake shard
// starts just past the parked owner, so with several awake the adopted
// sessions do not all pile on the lowest-numbered one.
func TestReactorAdoptionSpreadsOverAwakeShards(t *testing.T) {
	h := newHandReactor(t, 4)
	for _, owner := range []int{1, 1, 3, 3} {
		h.subscribe(owner)
	}
	h.quiesce(1, 3)
	base := h.cs.Stats()
	if n := h.b.Publish("x", []byte("m")); n != 4 {
		t.Fatalf("Publish = %d", n)
	}
	// Shard 1's sessions go to shard 2, shard 3's wrap around to shard 0.
	for i, want := range []int{2, 0, 2, 0} {
		if got := queued(h.r.shards[i]); got != want {
			t.Errorf("shard %d holds %d sessions, want %d", i, got, want)
		}
	}
	if got := h.since(base); got != (statsDelta{}) {
		t.Errorf("%+v, want nobody rung", got)
	}
}

// TestReactorAdoptedSessionReleasedByOwner: a session waits on a pending list
// — a foreign shard's that adopted it, or its owner's after a hand-off — while
// its owner closes it and releases the fd. The flusher must then not touch the
// descriptor — which the kernel has already handed to someone else — and
// nothing closes it a second time.
func TestReactorAdoptedSessionReleasedByOwner(t *testing.T) {
	for _, tc := range []struct {
		name string
		subs int // all on shard 1; the last one is released
	}{
		{"adopted", 1},
		{"handed off", handOffMin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHandReactor(t, 2)
			var subRS *rsession
			for i := 0; i < tc.subs; i++ {
				_, subRS = h.subscribe(1)
			}
			sh0, sh1 := h.r.shards[0], h.r.shards[1]
			h.quiesce(1)

			if n := h.b.Publish("x", []byte("stranded")); n != tc.subs {
				t.Fatalf("Publish = %d", n)
			}
			if queued(sh0) != tc.subs {
				t.Fatalf("the deliveries were not taken by the awake shard: %+v", h.cs.Stats())
			}
			holder := sh0
			if tc.subs >= handOffMin {
				base := h.cs.Stats()
				sh0.flushPending()
				if got, want := h.since(base), (statsDelta{doorbells: 1, handoffs: handOffMin}); got != want || queued(sh1) != tc.subs {
					t.Fatalf("the backlog was not handed to its owner: %+v, want %+v", got, want)
				}
				holder = sh1
			}

			// Plug every free descriptor below the session's, so that once released
			// it is the lowest free one and the next descriptor opened reuses it.
			fd := subRS.fd
			for {
				d, err := syscall.Dup(fd)
				if err != nil {
					t.Fatal(err)
				}
				defer syscall.Close(d) //nolint:errcheck
				if d > fd {
					break
				}
			}
			// The owner ends the session and releases its descriptor...
			subRS.end(nil)
			sh1.processDead()
			// ...and the number is taken at once.
			sp, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer syscall.Close(sp[0]) //nolint:errcheck
			defer syscall.Close(sp[1]) //nolint:errcheck
			if sp[0] != fd {
				t.Skipf("descriptor %d was not reused (got %d): cannot observe a stray write", fd, sp[0])
			}

			base := h.cs.Stats()
			holder.flushPending()
			if got := h.since(base).writes; got != uint64(tc.subs-1) {
				t.Fatalf("%d write(s) for %d live sessions and a released one", got, tc.subs-1)
			}
			var buf [64]byte
			if n, err := syscall.Read(sp[1], buf[:]); err != syscall.EAGAIN {
				t.Fatalf("the descriptor's new owner received %d bytes (err %v): a write hit the released fd", n, err)
			}

			// A second release is a no-op: the reused descriptor stays open and the
			// close is counted once.
			sh1.releaseFD(subRS)
			if _, err := syscall.Write(sp[0], []byte("alive")); err != nil {
				t.Fatalf("the reused descriptor was closed by a second release: %v", err)
			}
			if st := h.cs.Stats(); st.Closes != 1 || st.Conns != int64(tc.subs-1) {
				t.Fatalf("after one session ended: %+v, want 1 close and %d open connections", st, tc.subs-1)
			}
		})
	}
}
