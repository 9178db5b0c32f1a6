package broker

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/resp"
)

// testCores lists the connection cores to exercise on this platform: the
// portable one everywhere, plus the platform's own where that is another.
func testCores() []connCore {
	cores := []connCore{goroutineCore}
	if platformCore.name != goroutineCore.name {
		cores = append(cores, platformCore)
	}
	return cores
}

// serveCore serves b on a fresh loopback listener (wrapped by wrap, if given)
// with the given connection core. The returned channel closes when Serve
// returns.
func serveCore(t *testing.T, core connCore, b *Broker, sopts ServeOptions, wrap func(net.Listener) net.Listener) (net.Listener, *ConnServer, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	cs := NewConnServer(b, sopts)
	cs.core = core
	done := make(chan struct{})
	go func() {
		defer close(done)
		cs.Serve(ln) //nolint:errcheck // returns on listener close
	}()
	return ln, cs, done
}

// startCore serves a fresh broker with the given connection core and returns
// the address plus the live handles; cleanup shuts everything down.
func startCore(t *testing.T, core connCore, bopts Options, sopts ServeOptions) (string, *Broker, *ConnServer) {
	t.Helper()
	if bopts.Name == "" {
		bopts.Name = "core-test"
	}
	b := New(bopts)
	ln, cs, done := serveCore(t, core, b, sopts, nil)
	t.Cleanup(func() {
		b.Close()
		ln.Close()
		<-done
	})
	return ln.Addr().String(), b, cs
}

// TestConnCoreConformance is the one table both connection cores answer to:
// every case runs the same assertions against each core, so the reactor and
// the portable core stay wire- and counter-identical.
func TestConnCoreConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, core connCore)
	}{
		{"protocol", conformProtocol},
		{"pipelined", conformPipelined},
		{"slow consumer", conformSlowConsumer},
		{"replay precedes ack", conformReplayPrecedesAck},
		{"borrowed publish", conformBorrowedPublish},
		{"flush observed", conformFlushObserved},
		{"observer", conformObserver},
		{"transient accept error", conformTransientAccept},
		{"shutdown", conformShutdown},
		{"large fan-out", conformLargeFanout},
		{"churn", conformChurn},
		{"pattern under churn", conformPatternUnderChurn},
		{"lost wake-up", conformLostWakeup},
	}
	for _, core := range testCores() {
		for _, tc := range cases {
			t.Run(core.name+"/"+tc.name, func(t *testing.T) { tc.run(t, core) })
		}
	}
}

// conformProtocol runs the full command surface.
func conformProtocol(t *testing.T, core connCore) {
	addr, _, cs := startCore(t, core, Options{}, ServeOptions{})

	c := dialRESP(t, addr)
	if v := c.cmd(t, "PING"); v.Kind != resp.KindSimpleString || string(v.Str) != "PONG" {
		t.Fatalf("PING => %+v", v)
	}
	if v := c.cmd(t, "ECHO", "hello"); v.Kind != resp.KindBulkString || string(v.Str) != "hello" {
		t.Fatalf("ECHO => %+v", v)
	}
	for _, bad := range [][]string{{"SUBSCRIBE"}, {"PSUBSCRIBE"}, {"PUBLISH", "ch"}, {"ECHO"}, {"CSUBSCRIBE", "ch"}} {
		if v := c.cmd(t, bad...); v.Kind != resp.KindError || !strings.Contains(string(v.Str), "wrong number of arguments") {
			t.Fatalf("%v => %+v", bad, v)
		}
	}
	if v := c.cmd(t, "CSUBSCRIBE", "ch", "\xff\xff\xff"); v.Kind != resp.KindError || !strings.Contains(string(v.Str), "malformed cursor") {
		t.Fatalf("bad cursor => %+v", v)
	}

	// REGION is what a client older than the command's removal still sends on
	// its subscriber socket; the session must keep serving after the refusal.
	sub := dialRESP(t, addr)
	for _, unknown := range [][]string{{"NOPE"}, {"REGION", "eu-west"}} {
		if v := sub.cmd(t, unknown...); v.Kind != resp.KindError || !strings.Contains(string(v.Str), "unknown command") {
			t.Fatalf("%v => %+v", unknown, v)
		}
		if v := sub.cmd(t, "PING"); string(v.Str) != "PONG" {
			t.Fatalf("PING after %v => %+v", unknown, v)
		}
	}
	ack := sub.cmd(t, "SUBSCRIBE", "news")
	if ack.Kind != resp.KindArray || string(ack.Array[0].Str) != "subscribe" || ack.Array[2].Int != 1 {
		t.Fatalf("subscribe ack %+v", ack)
	}
	pack := sub.cmd(t, "PSUBSCRIBE", "sport.*")
	if string(pack.Array[0].Str) != "psubscribe" || pack.Array[2].Int != 2 {
		t.Fatalf("psubscribe ack %+v", pack)
	}

	if v := c.cmd(t, "PUBLISH", "news", "breaking"); v.Int != 1 {
		t.Fatalf("PUBLISH news => %+v", v)
	}
	msg := sub.read(t)
	if string(msg.Array[0].Str) != "message" || string(msg.Array[1].Str) != "news" || string(msg.Array[2].Str) != "breaking" {
		t.Fatalf("message frame %+v", msg)
	}
	if v := c.cmd(t, "PUBLISH", "sport.f1", "lights out"); v.Int != 1 {
		t.Fatalf("PUBLISH sport.f1 => %+v", v)
	}
	pmsg := sub.read(t)
	if string(pmsg.Array[0].Str) != "pmessage" || string(pmsg.Array[1].Str) != "sport.*" ||
		string(pmsg.Array[2].Str) != "sport.f1" || string(pmsg.Array[3].Str) != "lights out" {
		t.Fatalf("pmessage frame %+v", pmsg)
	}

	if v := sub.cmd(t, "UNSUBSCRIBE", "news"); string(v.Array[0].Str) != "unsubscribe" || v.Array[2].Int != 1 {
		t.Fatalf("unsubscribe ack %+v", v)
	}
	if v := sub.cmd(t, "PUNSUBSCRIBE", "sport.*"); string(v.Array[0].Str) != "punsubscribe" || v.Array[2].Int != 0 {
		t.Fatalf("punsubscribe ack %+v", v)
	}

	info := c.cmd(t, "INFO")
	if info.Kind != resp.KindBulkString || !strings.Contains(string(info.Str), "sessions:") {
		t.Fatalf("INFO => %+v", info)
	}
	if v := c.cmd(t, "QUIT"); string(v.Str) != "OK" {
		t.Fatalf("QUIT => %+v", v)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := c.r.ReadValue(); err == nil {
		t.Fatal("connection alive after QUIT")
	}

	// A malformed frame gets one error reply, then the connection closes.
	bad := dialRESP(t, addr)
	if _, err := bad.conn.Write([]byte("*1\r\n$99999999999\r\n")); err != nil {
		t.Fatal(err)
	}
	if v := bad.read(t); v.Kind != resp.KindError || !strings.Contains(string(v.Str), "protocol error") {
		t.Fatalf("malformed frame => %+v", v)
	}
	if _, err := bad.r.ReadValue(); err == nil {
		t.Fatal("connection alive after protocol error")
	}

	st := cs.Stats()
	if st.Core != core.name || st.Accepts < 3 || st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("stats %+v", st)
	}
}

// conformPipelined sends a pipelined burst in one TCP segment and expects
// every reply: many commands parsed out of one read, replies coalesced.
func conformPipelined(t *testing.T, core connCore) {
	addr, _, _ := startCore(t, core, Options{}, ServeOptions{})
	c := dialRESP(t, addr)

	const n = 200
	var burst []byte
	for i := 0; i < n; i++ {
		burst = resp.AppendCommandStrings(burst, "ECHO", fmt.Sprintf("m%d", i))
	}
	if _, err := c.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := c.read(t)
		if want := fmt.Sprintf("m%d", i); string(v.Str) != want {
			t.Fatalf("reply %d = %q, want %q", i, v.Str, want)
		}
	}
}

// conformSlowConsumer: a subscriber that never reads is disconnected once
// its pending bytes pass the limit, instead of wedging the publisher, and
// the counter and the observer both record it in bytes.
func conformSlowConsumer(t *testing.T, core connCore) {
	const limit = 4 << 10
	obs := &countingObserver{}
	addr, b, cs := startCore(t, core, Options{}, ServeOptions{WriteBufferLimit: limit, Observer: obs})

	sub := dialRESP(t, addr)
	sub.cmd(t, "SUBSCRIBE", "firehose")
	// Stop reading: deliveries pile up server-side.

	payload := make([]byte, 1024)
	deadline := time.Now().Add(10 * time.Second)
	for b.Stats().Sessions > 0 {
		b.Publish("firehose", payload)
		if time.Now().After(deadline) {
			t.Fatal("slow consumer was never disconnected")
		}
	}
	if st := b.Stats(); st.Dropped != 1 {
		t.Fatalf("broker dropped = %d, want 1", st.Dropped)
	}
	if n := cs.Stats().Backpressure; n < 1 {
		t.Fatalf("backpressure counter = %d, want >= 1", n)
	}
	if got := obs.buffered.Load(); got <= limit {
		t.Fatalf("OnBackpressure saw %d buffered bytes, want > %d", got, limit)
	}
}

// conformReplayPrecedesAck: a cursor subscribe's replayed frames are on the
// wire before its ack, in sequence order.
func conformReplayPrecedesAck(t *testing.T, core connCore) {
	addr, b, _ := startCore(t, core, Options{ReplayDepth: 16}, ServeOptions{})
	const n = 5
	for i := 1; i <= n; i++ {
		b.Publish("ch", dataFrame("ch", fmt.Sprintf("m%d", i), int64(i)))
	}
	epoch, head, ok := b.ReplayHead("ch")
	if !ok || head != n {
		t.Fatalf("ReplayHead = %d, %d, %v", epoch, head, ok)
	}

	c := dialRESP(t, addr)
	cur := message.MarshalCursor(message.Cursor{Seen: []message.EpochSeq{{Epoch: epoch, Seq: 0}}})
	first := c.cmd(t, "CSUBSCRIBE", "ch", string(cur))
	for want := uint64(1); want <= n; want++ {
		v := first
		if want > 1 {
			v = c.read(t)
		}
		if v.Kind != resp.KindArray || string(v.Array[0].Str) != "message" {
			t.Fatalf("frame %d on the wire is %+v, want a replayed message", want, v)
		}
		if e, seq, ok := message.PeekChannelSeq(v.Array[2].Str); !ok || e != epoch || seq != want {
			t.Fatalf("replayed (%d, %d, %v), want (%d, %d)", e, seq, ok, epoch, want)
		}
	}
	ack := c.read(t)
	if len(ack.Array) != 6 || string(ack.Array[0].Str) != "csubscribe" || string(ack.Array[1].Str) != "ch" ||
		ack.Array[2].Int != 1 || ack.Array[3].Int != n || ack.Array[4].Int != 0 || uint64(ack.Array[5].Int) != epoch {
		t.Fatalf("csubscribe ack %+v", ack)
	}
}

// holdingSink keeps the very slices it is delivered, as an in-process
// subscriber is entitled to.
type holdingSink struct {
	got chan []byte
}

func (s holdingSink) Deliver(_ string, payload []byte) { s.got <- payload }
func (holdingSink) Closed(error)                       {}

// conformBorrowedPublish: a PUBLISH is parsed, stamped and fanned out where
// it lies in the connection's read buffer, so everyone who keeps it longer
// than the call must have taken a copy. Two same-length publications arrive
// in one write; a TCP subscriber, an in-process subscriber that holds on to
// what it was delivered, and a later cursor replay must each see the first
// then the second, intact — also after the publisher's next write has landed
// on the same bytes of the read buffer.
func conformBorrowedPublish(t *testing.T, core connCore) {
	addr, b, _ := startCore(t, core, Options{ReplayDepth: 16, NowNanos: func() int64 { return time.Now().UnixNano() }}, ServeOptions{})

	held := holdingSink{got: make(chan []byte, 4)}
	inproc, err := b.Connect("inproc", held)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inproc.Subscribe("ch"); err != nil {
		t.Fatal(err)
	}
	sub := dialRESP(t, addr)
	sub.cmd(t, "SUBSCRIBE", "ch")

	want := []string{"payload-one", "payload-two"}
	// Live deliveries carry the stage marks stamped after the ring took its
	// copy; replayed frames carry none.
	check := func(who string, i int, frame []byte, staged bool) {
		t.Helper()
		env, err := message.Unmarshal(frame)
		if err != nil {
			t.Fatalf("%s: frame %d: %v", who, i+1, err)
		}
		if string(env.Payload) != want[i] || env.ChannelSeq != uint64(i+1) || (env.StageIngressUs != 0) != staged {
			t.Fatalf("%s: frame %d is %q seq %d ingress %dus, want %q seq %d, stage-stamped %v",
				who, i+1, env.Payload, env.ChannelSeq, env.StageIngressUs, want[i], i+1, staged)
		}
	}
	// One publisher connection throughout: its second write lands in the read
	// buffer the first pair was parsed in.
	pub := dialRESP(t, addr)
	publishPair := func(ch, first, second string) {
		t.Helper()
		stamp := time.Now().UnixNano()
		burst := resp.AppendCommandStrings(nil, "PUBLISH", ch, string(dataFrame(ch, first, stamp)))
		burst = resp.AppendCommandStrings(burst, "PUBLISH", ch, string(dataFrame(ch, second, stamp)))
		if _, err := pub.conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		pub.read(t)
		pub.read(t)
	}
	publishPair("ch", want[0], want[1])
	var kept [][]byte
	for i := range want {
		check("TCP subscriber", i, sub.read(t).Array[2].Str, true)
		select {
		case p := <-held.got:
			kept = append(kept, p)
		case <-time.After(2 * time.Second):
			t.Fatalf("in-process subscriber: delivery %d never arrived", i+1)
		}
	}
	publishPair("xx", "scribble-11", "scribble-22")
	for i, p := range kept {
		check("in-process subscriber", i, p, true)
	}

	epoch, _, _ := b.ReplayHead("ch")
	late := dialRESP(t, addr)
	cur := message.MarshalCursor(message.Cursor{Seen: []message.EpochSeq{{Epoch: epoch, Seq: 0}}})
	first := late.cmd(t, "CSUBSCRIBE", "ch", string(cur))
	check("replay", 0, first.Array[2].Str, false)
	check("replay", 1, late.read(t).Array[2].Str, false)
}

// flushCounter counts OnFlush calls; the no-op embedded observer makes it
// registrable.
type flushCounter struct {
	recordingObserver
	flushes atomic.Int64
}

func (f *flushCounter) OnFlush([]byte) { f.flushes.Add(1) }

// conformFlushObserved: every TCP delivery passes the flush observation
// point exactly once.
func conformFlushObserved(t *testing.T, core connCore) {
	addr, b, _ := startCore(t, core, Options{}, ServeOptions{})
	fc := &flushCounter{}
	b.AddObserver(fc)

	sub := dialRESP(t, addr)
	sub.cmd(t, "SUBSCRIBE", "a")
	sub.cmd(t, "PSUBSCRIBE", "a*")
	const n = 20
	for i := 0; i < n; i++ {
		if got := b.Publish("a", []byte("x")); got != 2 {
			t.Fatalf("Publish = %d, want 2", got)
		}
	}
	for i := 0; i < 2*n; i++ {
		sub.read(t)
	}
	if got := fc.flushes.Load(); got != 2*n {
		t.Fatalf("OnFlush fired %d times for %d deliveries", got, 2*n)
	}
}

// conformObserver checks accept/close observer plumbing: an ordinary
// disconnect is reported once, with a nil reason.
func conformObserver(t *testing.T, core connCore) {
	obs := &countingObserver{}
	addr, _, _ := startCore(t, core, Options{}, ServeOptions{Observer: obs})
	c := dialRESP(t, addr)
	c.cmd(t, "PING")
	c.conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for obs.closes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("observer: accepts=%d closes=%d", obs.accepts.Load(), obs.closes.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if obs.accepts.Load() != 1 || obs.closes.Load() != 1 || obs.abnormal.Load() != 0 {
		t.Fatalf("accepts=%d closes=%d abnormal=%d, want 1/1/0",
			obs.accepts.Load(), obs.closes.Load(), obs.abnormal.Load())
	}
}

type countingObserver struct {
	accepts, closes, abnormal, buffered atomic.Int64
}

func (o *countingObserver) OnAccept(string) { o.accepts.Add(1) }
func (o *countingObserver) OnConnClose(_ string, reason error) {
	o.closes.Add(1)
	if reason != nil {
		o.abnormal.Add(1)
	}
}
func (o *countingObserver) OnBackpressure(_ string, buffered int) { o.buffered.Store(int64(buffered)) }

// abortOnceListener fails its first Accept the way the kernel reports a
// handshake the peer aborted.
type abortOnceListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *abortOnceListener) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.ECONNABORTED)}
	}
	return l.Listener.Accept()
}

// conformTransientAccept: a passing accept error does not end the server.
func conformTransientAccept(t *testing.T, core connCore) {
	b := New(Options{Name: "accept-test"})
	ln, _, done := serveCore(t, core, b, ServeOptions{}, func(ln net.Listener) net.Listener {
		return &abortOnceListener{Listener: ln}
	})
	t.Cleanup(func() {
		b.Close()
		ln.Close()
		<-done
	})
	c := dialRESP(t, ln.Addr().String())
	if v := c.cmd(t, "PING"); string(v.Str) != "PONG" {
		t.Fatalf("PING after a transient accept error => %+v", v)
	}
	if !ln.(*abortOnceListener).failed.Load() {
		t.Fatal("the stub never injected its error")
	}
}

func TestIsTransientAccept(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EMFILE, syscall.ENFILE, syscall.ECONNABORTED, syscall.EINTR} {
		err := &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", errno)}
		if !isTransientAccept(err) {
			t.Errorf("isTransientAccept(%v) = false", err)
		}
	}
	for _, err := range []error{net.ErrClosed, io.EOF, &net.OpError{Op: "accept", Err: syscall.EINVAL}} {
		if isTransientAccept(err) {
			t.Errorf("isTransientAccept(%v) = true", err)
		}
	}
}

// conformShutdown holds live (and subscribed) connections open and closes
// only the listener: Serve must end every connection itself before it
// returns, the counters must balance, and once the broker is closed too the
// goroutine count returns to baseline — the regression guard for
// reader/flusher/shard goroutines outliving the server.
func conformShutdown(t *testing.T, core connCore) {
	before := runtime.NumGoroutine()

	b := New(Options{Name: "leak-test"})
	ln, cs, served := serveCore(t, core, b, ServeOptions{}, nil)

	const conns = 32
	clients := make([]*respClient, 0, conns)
	for i := 0; i < conns; i++ {
		c := dialRESP(t, ln.Addr().String())
		if i%2 == 0 {
			c.cmd(t, "SUBSCRIBE", fmt.Sprintf("ch%d", i))
		} else {
			c.cmd(t, "PING")
		}
		clients = append(clients, c)
	}

	ln.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
	if st := cs.Stats(); st.Conns != 0 || st.Accepts != conns || st.Closes != st.Accepts {
		t.Fatalf("after Serve returned: %+v, want 0 conns and closes == accepts == %d", st, conns)
	}
	if n := b.Stats().Sessions; n != 0 {
		t.Fatalf("%d sessions outlived Serve", n)
	}
	for _, c := range clients {
		c.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		if _, err := c.r.ReadValue(); err == nil {
			t.Fatal("a connection survived Serve's return")
		}
		c.conn.Close() //nolint:errcheck
	}
	b.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > baseline %d after shutdown\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// conformLargeFanout pushes payloads big enough to overrun the kernel socket
// buffer, exercising partial writes (the reactor's EPOLLOUT re-arm, the
// portable core's blocked flusher) under a raised limit.
func conformLargeFanout(t *testing.T, core connCore) {
	addr, b, _ := startCore(t, core, Options{}, ServeOptions{WriteBufferLimit: 64 << 20})

	sub := dialRESP(t, addr)
	sub.cmd(t, "SUBSCRIBE", "big")

	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	const msgs = 8
	go func() {
		for i := 0; i < msgs; i++ {
			b.Publish("big", payload)
		}
	}()
	for i := 0; i < msgs; i++ {
		sub.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		v, err := sub.r.ReadValue()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if string(v.Array[0].Str) != "message" || len(v.Array[2].Str) != len(payload) {
			t.Fatalf("message %d: kind=%s len=%d", i, v.Array[0].Str, len(v.Array[2].Str))
		}
		if string(v.Array[2].Str) != string(payload) {
			t.Fatalf("message %d payload corrupted", i)
		}
	}
}

// conformChurn hammers the core with connections subscribing, publishing,
// and vanishing concurrently; every one must be accounted closed.
func conformChurn(t *testing.T, core connCore) {
	addr, _, cs := startCore(t, core, Options{}, ServeOptions{})

	const workers = 16
	iters := 30
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					continue
				}
				cl := &respClient{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}
				ch := fmt.Sprintf("churn%d", w%4)
				cl.w.WriteCommand([]byte("SUBSCRIBE"), []byte(ch))            //nolint:errcheck
				cl.w.WriteCommand([]byte("PUBLISH"), []byte(ch), []byte("x")) //nolint:errcheck
				if i%3 == 0 {
					cl.w.WriteCommand([]byte("QUIT")) //nolint:errcheck
				}
				cl.w.Flush()                                          //nolint:errcheck
				conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
				cl.r.ReadValue()                                      //nolint:errcheck // the subscribe ack
				conn.Close()
			}
		}(w)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for cs.Stats().Conns > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("conns stuck at %d after churn", cs.Stats().Conns)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := cs.Stats(); st.Closes != st.Accepts {
		t.Fatalf("closes %d != accepts %d after churn", st.Closes, st.Accepts)
	}
}

// conformPatternUnderChurn: a PSUBSCRIBE reader gets every publication its
// pattern matches exactly once, in per-channel order, while another
// connection keeps subscribing to and unsubscribing from those same channels
// and every one of its acks arrives. A sentinel published after the last
// message bounds the stream, so the count is exact, not "at least".
func conformPatternUnderChurn(t *testing.T, core connCore) {
	addr, _, _ := startCore(t, core, Options{}, ServeOptions{})

	const channels, batch = 64, 64
	n := 2048
	if testing.Short() {
		n = 512
	}
	psub := dialRESP(t, addr)
	if v := psub.cmd(t, "PSUBSCRIBE", "room.*"); v.Kind != resp.KindArray || string(v.Array[0].Str) != "psubscribe" {
		t.Fatalf("psubscribe ack %+v", v)
	}
	churn, pub := dialRESP(t, addr), dialRESP(t, addr)

	// The churn connection cycles SUBSCRIBE/UNSUBSCRIBE pairs over the
	// pattern's channels until the pattern reader is done. It holds one
	// channel at a time, so its acks count 1 then 0; the messages it receives
	// while subscribed are skipped.
	stop, churning := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			ch := "room." + strconv.Itoa(i%channels)
			churn.w.WriteCommand([]byte("SUBSCRIBE"), []byte(ch))   //nolint:errcheck // Flush reports it
			churn.w.WriteCommand([]byte("UNSUBSCRIBE"), []byte(ch)) //nolint:errcheck
			if err := churn.w.Flush(); err != nil {
				t.Errorf("churn cycle %d: %v", i, err)
				return
			}
			for _, want := range []struct {
				kind  string
				count int64
			}{{"subscribe", 1}, {"unsubscribe", 0}} {
				churn.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
				v, err := churn.r.ReadValue()
				for err == nil && len(v.Array) == 3 && string(v.Array[0].Str) == "message" {
					v, err = churn.r.ReadValue()
				}
				if err != nil {
					t.Errorf("churn cycle %d: %s ack never arrived: %v", i, want.kind, err)
					return
				}
				if len(v.Array) != 3 || string(v.Array[0].Str) != want.kind ||
					string(v.Array[1].Str) != ch || v.Array[2].Int != want.count {
					t.Errorf("churn cycle %d: got %+v, want %s %s %d", i, v, want.kind, ch, want.count)
					return
				}
			}
			if i == 0 {
				close(churning)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// The publisher starts once churn is under way and pipelines the
	// sequence-numbered messages round-robin over the channels in batches,
	// reading each batch's receiver counts (the pattern reader, plus the
	// churn connection when it holds the channel), then a sentinel on a
	// channel the pattern matches.
	go func() {
		defer wg.Done()
		select {
		case <-churning:
		case <-stop:
			return
		}
		for from := 0; from <= n; from += batch {
			to := min(from+batch, n+1)
			for seq := from; seq < to; seq++ {
				ch, payload := "room."+strconv.Itoa(seq%channels), strconv.Itoa(seq)
				if seq == n {
					ch, payload = "room.end", "end"
				}
				pub.w.WriteCommand([]byte("PUBLISH"), []byte(ch), []byte(payload)) //nolint:errcheck // Flush reports it
			}
			if err := pub.w.Flush(); err != nil {
				t.Errorf("publish batch at %d: %v", from, err)
				return
			}
			for seq := from; seq < to; seq++ {
				pub.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
				v, err := pub.r.ReadValue()
				if err != nil || v.Kind != resp.KindInteger || v.Int < 1 || v.Int > 2 {
					t.Errorf("PUBLISH %d => %+v, %v", seq, v, err)
					return
				}
			}
		}
	}()

	last := make([]int, channels)
	for i := range last {
		last[i] = -1
	}
	for got := 0; ; got++ {
		v := psub.read(t)
		if len(v.Array) != 4 || string(v.Array[0].Str) != "pmessage" || string(v.Array[1].Str) != "room.*" {
			t.Fatalf("pattern frame %d: %+v", got, v)
		}
		if string(v.Array[2].Str) == "room.end" {
			if got != n {
				t.Fatalf("pattern reader got %d of %d messages", got, n)
			}
			return
		}
		seq, err := strconv.Atoi(string(v.Array[3].Str))
		if err != nil || seq < 0 || seq >= n {
			t.Fatalf("pattern frame %d: payload %q", got, v.Array[3].Str)
		}
		ch := seq % channels
		if want := "room." + strconv.Itoa(ch); string(v.Array[2].Str) != want {
			t.Fatalf("message %d arrived on %s, want %s", seq, v.Array[2].Str, want)
		}
		if seq <= last[ch] {
			t.Fatalf("room.%d: message %d after %d", ch, seq, last[ch])
		}
		last[ch] = seq
	}
}

// conformLostWakeup hunts for a flush that only further traffic would
// trigger — which is a lost flush. Subscribers sit idle on every shard; TCP
// publishers (a shard is awake when their publish dirties the subscriber) and
// in-process Publish callers (no shard is awake: the owner must be woken) each
// send their next message only after the previous one arrived, so nothing
// else is in flight to push a stranded frame out, and every wait is bounded.
func conformLostWakeup(t *testing.T, core connCore) {
	addr, b, _ := startCore(t, core, Options{}, ServeOptions{})

	const senders, subsPerSender = 4, 2
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	subs := make([][]*respClient, senders)
	pubs := make([]*respClient, senders)
	for s := range subs {
		// Dial order interleaves publishers and subscribers, so round-robin
		// attach spreads both kinds over every shard.
		if s%2 == 0 {
			pubs[s] = dialRESP(t, addr)
			pubs[s].cmd(t, "PING")
		}
		for i := 0; i < subsPerSender; i++ {
			c := dialRESP(t, addr)
			c.cmd(t, "SUBSCRIBE", fmt.Sprintf("s%d.%d", s, i))
			subs[s] = append(subs[s], c)
		}
	}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				i := n % subsPerSender
				ch, want := fmt.Sprintf("s%d.%d", s, i), fmt.Sprintf("m%d", n)
				if pub := pubs[s]; pub != nil {
					pub.w.WriteCommand([]byte("PUBLISH"), []byte(ch), []byte(want)) //nolint:errcheck
					pub.w.Flush()                                                   //nolint:errcheck
				} else if got := b.Publish(ch, []byte(want)); got != 1 {
					t.Errorf("sender %d round %d: Publish = %d, want 1", s, n, got)
					return
				}
				sub := subs[s][i]
				sub.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
				v, err := sub.r.ReadValue()
				if err != nil {
					t.Errorf("sender %d round %d: delivery never flushed: %v", s, n, err)
					return
				}
				if len(v.Array) != 3 || string(v.Array[2].Str) != want {
					t.Errorf("sender %d round %d: got %+v, want %q", s, n, v, want)
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestWriteBufferHysteresis pins respConn.recycle: a grown buffer survives as
// long as flushes keep using it, and is released only after wbufLeanFlushes
// lean flushes in a row.
func TestWriteBufferHysteresis(t *testing.T) {
	var c respConn
	small := make([]byte, 100, wbufRetain)
	for i := 0; i < 3*wbufLeanFlushes; i++ {
		if got := c.recycle(small, 1); cap(got) != wbufRetain || len(got) != 0 {
			t.Fatalf("a buffer within wbufRetain was not kept: len %d cap %d", len(got), cap(got))
		}
	}
	big := make([]byte, 0, 4*wbufRetain)
	for i := 0; i < 3*wbufLeanFlushes; i++ {
		if got := c.recycle(big, 2*wbufRetain); cap(got) != cap(big) {
			t.Fatalf("flush %d of a sustained large stream dropped the buffer", i)
		}
	}
	// A lean streak cut short by one large flush starts over.
	for i := 0; i < wbufLeanFlushes-1; i++ {
		if c.recycle(big, 64) == nil {
			t.Fatalf("released after only %d lean flushes", i+1)
		}
	}
	if c.recycle(big, 2*wbufRetain) == nil {
		t.Fatal("released on a large flush")
	}
	for i := 0; i < wbufLeanFlushes-1; i++ {
		if c.recycle(big, 64) == nil {
			t.Fatalf("streak did not restart: released after %d lean flushes", i+1)
		}
	}
	if got := c.recycle(big, 64); got != nil {
		t.Fatalf("still holding %d bytes after %d lean flushes", cap(got), wbufLeanFlushes)
	}
}

// TestInfoAppendNoAlloc guards the pooled INFO path: rendering into a
// pre-grown scratch must not allocate.
func TestInfoAppendNoAlloc(t *testing.T) {
	st := Stats{Sessions: 12, Channels: 34, Published: 56, Delivered: 78, Dropped: 9}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendInfo(buf[:0], "bench", st)
	})
	if allocs != 0 {
		t.Fatalf("appendInfo allocs = %v, want 0", allocs)
	}
	want := "# Server\r\nname:bench\r\n# Stats\r\nsessions:12\r\nchannels:34\r\npublished:56\r\ndelivered:78\r\ndropped:9\r\n"
	if string(buf) != want {
		t.Fatalf("appendInfo body:\n%q\nwant:\n%q", buf, want)
	}
}

func TestFDTable(t *testing.T) {
	var tbl fdTable[int]
	if tbl.get(5) != nil || tbl.get(-1) != nil {
		t.Fatal("empty table returned entry")
	}
	a, b, c := 1, 2, 3
	tbl.put(5, &a)
	tbl.put(700, &b)
	tbl.put(0, &c)
	if tbl.get(5) != &a || tbl.get(700) != &b || tbl.get(0) != &c {
		t.Fatal("lookup mismatch")
	}
	if tbl.size() != 3 {
		t.Fatalf("size = %d, want 3", tbl.size())
	}
	seen := map[int]bool{}
	tbl.each(func(fd int, _ *int) { seen[fd] = true })
	if !seen[5] || !seen[700] || !seen[0] || len(seen) != 3 {
		t.Fatalf("each visited %v", seen)
	}
	tbl.del(5)
	tbl.del(9999) // no-op
	if tbl.get(5) != nil || tbl.size() != 2 {
		t.Fatal("del failed")
	}
}
