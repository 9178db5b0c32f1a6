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
// builds the shards without their goroutines, so the test plays both shard
// loops itself and every interleaving it needs is deterministic.

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
// sessions keep landing on foreign shards' pending lists: Serve must still
// return with every connection accounted for and no goroutine left behind.
func TestReactorShutdownUnderCrossShardTraffic(t *testing.T) {
	before := runtime.NumGoroutine()
	b := New(Options{Name: "shutdown-adopted"})
	core, made := twoShardCore()
	ln, cs, served := serveCore(t, core, b, ServeOptions{}, nil)
	r := <-made
	addr := ln.Addr().String()

	// Publishers on shard 0 feeding subscribers on shard 1, and the reverse:
	// each shard adopts for the other. Every client goroutine ends when the
	// server closes its connection.
	const pairs = 4
	var clients sync.WaitGroup
	for i := 0; i < pairs; i++ {
		pub, _ := dialOn(t, addr, b, r, i%2)
		sub, _ := dialOn(t, addr, b, r, 1-i%2)
		ch := fmt.Sprintf("c%d", i)
		sub.cmd(t, "SUBSCRIBE", ch)
		clients.Add(2)
		go func() {
			defer clients.Done()
			for {
				if _, err := sub.r.ReadValue(); err != nil {
					return
				}
			}
		}()
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
	for cs.Stats().AdoptedFlushes < 100 {
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
}

// handReactor is a two-shard reactor whose loops are not running: the test
// drives each shard's steps itself, on its own goroutine.
type handReactor struct {
	t  *testing.T
	b  *Broker
	cs *ConnServer
	r  *reactor
	ln net.Listener
}

func newHandReactor(t *testing.T) *handReactor {
	t.Helper()
	b := New(Options{Name: "hand"})
	cs := NewConnServer(b, ServeOptions{})
	r, err := newReactor(cs, 2)
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

// connect attaches a new connection (round-robin: the first lands on shard
// 0) and registers it with its owner.
func (h *handReactor) connect() (*respClient, *rsession) {
	h.t.Helper()
	c := dialRESP(h.t, h.ln.Addr().String())
	conn, err := h.ln.Accept()
	if err != nil {
		h.t.Fatal(err)
	}
	h.r.attach(conn.(*net.TCPConn))
	rs := sessionOf(h.t, h.b, c)
	rs.sh.processIncoming()
	return c, rs
}

// send writes one command to the server side of c and has the owner shard
// service the read event, as its loop would.
func (h *handReactor) send(c *respClient, rs *rsession, args ...string) {
	h.t.Helper()
	raw := resp.AppendCommandStrings(nil, args[0], args[1:]...)
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

// TestReactorBacklogDeclinesAdoption steps one awake shard through the
// backlog rule, reading real input: a read that filled rbuf, or a pending
// list already adoptMax long, makes it ring the parked owner instead of
// adopting; with short input and a short list it adopts.
func TestReactorBacklogDeclinesAdoption(t *testing.T) {
	h := newHandReactor(t)
	pub, pubRS := h.connect()
	sub, subRS := h.connect()
	sh0, sh1 := h.r.shards[0], h.r.shards[1]
	if pubRS.sh != sh0 || subRS.sh != sh1 {
		t.Fatal("round-robin attach did not split the pair")
	}
	h.send(sub, subRS, "SUBSCRIBE", "x")
	sh1.flushPending()
	sub.read(t)

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
		name             string
		input            []byte
		stuffed          int // sessions already on the reader's pending list
		doorbells, adopt uint64
	}{
		{"one publish", publishes(0, 1), 0, 0, 1},
		{"a read and a half of pipelined publishes", publishes(shardReadBuffer*3/2, 0), 0, 1, 0},
		{"one publish after the full reads", publishes(0, 1), 0, 0, 1},
		{"a short read of many publishes", publishes(0, 64), 0, 0, 1},
		{"one publish, adoptMax sessions already pending", publishes(0, 1), adoptMax, 1, 0},
	}
	for _, st := range steps {
		// Both shards flushed, the subscriber's parked, the publisher's awake.
		sh0.flushPending()
		sh1.flushPending()
		if sh1.park() != -1 {
			t.Fatalf("%s: subscriber's shard has work left and would not park", st.name)
		}
		setAwake(sh0, true)
		sh0.qmu.Lock()
		for i := 0; i < st.stuffed; i++ {
			sh0.pending = append(sh0.pending, pubRS)
		}
		sh0.qmu.Unlock()

		if _, err := pub.conn.Write(st.input); err != nil {
			t.Fatal(err)
		}
		h.awaitInput(pubRS, len(st.input))
		before := h.cs.Stats()
		sh0.handleEvent(pubRS.fd, uint32(syscall.EPOLLIN))
		after := h.cs.Stats()
		if d, a := after.Doorbells-before.Doorbells, after.AdoptedFlushes-before.AdoptedFlushes; d != st.doorbells || a != st.adopt {
			t.Fatalf("%s: %d doorbells and %d adoptions, want %d and %d", st.name, d, a, st.doorbells, st.adopt)
		}
	}
	// Nothing was lost on the way. No loop serves the owner's EPOLLOUT here,
	// so keep flushing by hand.
	sh0.flushPending()
	for i := 0; i < deliveries; i++ {
		subRS.flush()
		sub.read(t)
	}
}

// TestReactorAdoptedSessionReleasedByOwner: a session waits on a foreign
// shard's pending list while its owner closes it and releases the fd. The
// adopter must then not touch the descriptor — which the kernel has already
// handed to someone else — and nothing closes it a second time.
func TestReactorAdoptedSessionReleasedByOwner(t *testing.T) {
	h := newHandReactor(t)
	h.connect() // shard 0's; the subscriber below lands on shard 1
	sub, subRS := h.connect()
	sh0, sh1 := h.r.shards[0], h.r.shards[1]
	if subRS.sh != sh1 {
		t.Fatal("round-robin attach did not reach shard 1")
	}
	h.send(sub, subRS, "SUBSCRIBE", "x")
	sh1.flushPending()
	sub.read(t)
	if sh1.park() != -1 {
		t.Fatal("owner would not park")
	}
	setAwake(sh0, true)

	if n := h.b.Publish("x", []byte("stranded")); n != 1 {
		t.Fatalf("Publish = %d", n)
	}
	if h.cs.Stats().AdoptedFlushes != 1 || queued(sh0) != 1 {
		t.Fatalf("the delivery was not adopted by the awake shard: %+v", h.cs.Stats())
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

	writes := h.cs.Stats().EpollWrites
	sh0.flushPending()
	if got := h.cs.Stats().EpollWrites; got != writes {
		t.Fatalf("the adopter issued %d write(s) for a released session", got-writes)
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
	if st := h.cs.Stats(); st.Closes != 1 || st.Conns != 1 {
		t.Fatalf("after one session ended: %+v, want 1 close and 1 open connection", st)
	}
}
