package broker

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ConnObserver sees connection-layer events. Callbacks run on hot paths
// (accept loop, publish fan-out) and must be cheap and non-blocking; the
// server layer uses one to emit flight-recorder events.
type ConnObserver interface {
	// OnAccept fires when a connection is accepted; addr is the remote.
	OnAccept(addr string)
	// OnConnClose fires when a connection is torn down. reason is nil for
	// an ordinary peer disconnect.
	OnConnClose(addr string, reason error)
	// OnBackpressure fires when a session is about to be disconnected
	// because its output buffer is over its limit; buffered is the pending
	// byte count.
	OnBackpressure(addr string, buffered int)
}

const (
	// DefaultWriteBufferLimit is the per-connection pending-output cap in
	// bytes; a connection exceeding it is disconnected as a slow consumer
	// (client-output-buffer-limit behavior).
	DefaultWriteBufferLimit = 1 << 20
	// wbufRetain is the largest write-buffer capacity a connection always
	// keeps after a full flush; a larger one is released once wbufLeanFlushes
	// flushes in a row have left most of it unused (respConn.recycle).
	wbufRetain      = 64 << 10
	wbufLeanFlushes = 8
	// connReadBuffer is the portable core's per-connection read buffer.
	connReadBuffer = 16 << 10
	// farewellTimeout bounds a closing connection's last write on the
	// portable core (QUIT's +OK, a protocol-error reply), and is how long a
	// write blocked on a peer that stopped reading outlives its session.
	farewellTimeout = time.Second
)

// ServeOptions configures a ConnServer.
type ServeOptions struct {
	// WriteBufferLimit is the per-connection pending-output cap in bytes —
	// the one slow-consumer limit of TCP sessions; non-positive selects
	// DefaultWriteBufferLimit.
	WriteBufferLimit int
	// Observer receives connection lifecycle events (may be nil).
	Observer ConnObserver
}

// ConnStats is a snapshot of connection-layer counters.
type ConnStats struct {
	// Core names the connection core in use ("reactor" or "goroutine").
	Core string
	// Conns is the number of currently open connections.
	Conns int64
	// Accepts and Closes count connection lifecycle events.
	Accepts, Closes uint64
	// Backpressure counts sessions disconnected for output overflow.
	Backpressure uint64
	// BytesIn and BytesOut count wire bytes.
	BytesIn, BytesOut uint64
	// EpollWakeups counts epoll_wait returns across shards (reactor only).
	EpollWakeups uint64
	// EpollEvents counts epoll events dispatched (reactor only).
	EpollEvents uint64
	// EpollWrites counts flush write syscalls (reactor only); deliveries
	// divided by this is the write-coalescing factor.
	EpollWrites uint64
	// Doorbells counts wake-ups rung on a parked shard's eventfd, AdoptedFlushes
	// writes made by an awake shard other than the session's owner, Handoffs
	// sessions such a shard returned to their owner at flush time instead
	// (reactor only).
	Doorbells, AdoptedFlushes, Handoffs uint64
}

// connCore is what a connection core supplies to the shared accept loop.
// start readies the core and returns attach, which takes over one accepted
// socket (and closes it if the broker refuses the session), and stop, which
// closes every connection still open and returns once they are gone.
type connCore struct {
	name  string
	start func(cs *ConnServer) (attach func(*net.TCPConn), stop func(), err error)
}

// ConnServer serves a broker's RESP protocol over TCP. Both connection cores
// run the same accept loop, the same respConn output seam and the same
// command dispatch; the core is chosen by platform — the sharded epoll
// reactor on Linux (reactor_linux.go), elsewhere the portable
// goroutine-per-connection core below. One ConnServer serves one listener;
// Stats exposes the counters the node exports as
// dynamoth_broker_conn_*/epoll_* metrics.
type ConnServer struct {
	b    *Broker
	opts ServeOptions
	core connCore

	conns        atomic.Int64
	accepts      atomic.Uint64
	closes       atomic.Uint64
	backpressure atomic.Uint64
	bytesIn      atomic.Uint64
	bytesOut     atomic.Uint64
	epollWakeups atomic.Uint64
	epollEvents  atomic.Uint64
	epollWrites  atomic.Uint64
	doorbells    atomic.Uint64
	adopted      atomic.Uint64
	handoffs     atomic.Uint64
}

// NewConnServer builds a connection server for b on the platform's
// connection core.
func NewConnServer(b *Broker, opts ServeOptions) *ConnServer {
	if opts.WriteBufferLimit <= 0 {
		opts.WriteBufferLimit = DefaultWriteBufferLimit
	}
	return &ConnServer{b: b, opts: opts, core: platformCore}
}

// Stats snapshots the connection counters.
func (cs *ConnServer) Stats() ConnStats {
	return ConnStats{
		Core:           cs.core.name,
		Conns:          cs.conns.Load(),
		Accepts:        cs.accepts.Load(),
		Closes:         cs.closes.Load(),
		Backpressure:   cs.backpressure.Load(),
		BytesIn:        cs.bytesIn.Load(),
		BytesOut:       cs.bytesOut.Load(),
		EpollWakeups:   cs.epollWakeups.Load(),
		EpollEvents:    cs.epollEvents.Load(),
		EpollWrites:    cs.epollWrites.Load(),
		Doorbells:      cs.doorbells.Load(),
		AdoptedFlushes: cs.adopted.Load(),
		Handoffs:       cs.handoffs.Load(),
	}
}

// Serve accepts and serves TCP connections on ln until the listener is
// closed, closes every connection still open, and returns the accept error
// (wrapping net.ErrClosed on clean shutdown). Accept errors that pass —
// descriptor exhaustion, a handshake aborted by the peer — are retried after
// a short back-off instead of ending the server.
func (cs *ConnServer) Serve(ln net.Listener) error {
	attach, stop, err := cs.core.start(cs)
	if err != nil {
		return err
	}
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			if isTransientAccept(err) {
				time.Sleep(10 * time.Millisecond) // back off instead of spinning
				continue
			}
			return fmt.Errorf("broker: accept: %w", err)
		}
		tc, ok := conn.(*net.TCPConn)
		if !ok {
			conn.Close() //nolint:errcheck // refusing it
			return fmt.Errorf("broker: serving needs TCP connections, listener produced %T", conn)
		}
		// Explicit, even though Go defaults to it: delivery latency must
		// never ride on Nagle coalescing (the flushers already batch writes).
		tc.SetNoDelay(true) //nolint:errcheck // best-effort
		attach(tc)
	}
}

// isTransientAccept reports whether an accept error is worth retrying.
func isTransientAccept(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.EINTR)
}

// connect opens the broker session behind a freshly accepted connection and
// counts it. sink is the core's connection type embedding c. On a broker
// that has shut down it tells the peer so and reports false; the caller
// closes the socket.
func (cs *ConnServer) connect(c *respConn, sink EnqueueSink, conn *net.TCPConn) bool {
	c.cs = cs
	c.name = conn.RemoteAddr().String()
	sess, err := cs.b.Connect(c.name, sink)
	if err != nil {
		conn.Write([]byte("-ERR broker unavailable\r\n")) //nolint:errcheck // refusing it
		return false
	}
	c.sess = sess
	cs.accepts.Add(1)
	cs.conns.Add(1)
	if cs.opts.Observer != nil {
		cs.opts.Observer.OnAccept(c.name)
	}
	return true
}

// disconnected counts a connection whose socket the core has released.
func (cs *ConnServer) disconnected(c *respConn) {
	c.mu.Lock()
	reason := c.reason
	c.mu.Unlock()
	cs.conns.Add(-1)
	cs.closes.Add(1)
	if cs.opts.Observer != nil {
		cs.opts.Observer.OnConnClose(c.name, reason)
	}
}

// Serve accepts connections on ln and serves the Redis pub/sub protocol
// against b until the listener is closed, using the portable
// goroutine-per-connection core on every platform. It returns the listener's
// accept error (net.ErrClosed on clean shutdown). NewConnServer serves the
// platform's default core instead.
//
// Supported commands: SUBSCRIBE, UNSUBSCRIBE, PSUBSCRIBE, PUNSUBSCRIBE,
// CSUBSCRIBE, PUBLISH, PING, ECHO, INFO, QUIT. Push messages use the
// standard ["message", channel, payload] and ["pmessage", pattern, channel,
// payload] frames, subscription confirmations ["subscribe"/"unsubscribe"/
// "psubscribe"/"punsubscribe", name, count].
func Serve(ln net.Listener, b *Broker) error {
	cs := NewConnServer(b, ServeOptions{})
	cs.core = goroutineCore
	return cs.Serve(ln)
}

// goroutineCore is the portable fallback: a read loop and a flush loop per
// connection, nothing else. Its per-connection cost (two goroutine stacks
// and a read buffer) is what the reactor exists to avoid.
var goroutineCore = connCore{name: "goroutine", start: startGoroutineCore}

// gserver tracks the portable core's open connections so stop can end them.
type gserver struct {
	cs *ConnServer
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[*gconn]struct{}
}

func startGoroutineCore(cs *ConnServer) (func(*net.TCPConn), func(), error) {
	g := &gserver{cs: cs, conns: make(map[*gconn]struct{})}
	return g.attach, g.stop, nil
}

// gconn is one portable-core connection.
type gconn struct {
	respConn
	conn *net.TCPConn
	// kick wakes the flush loop; one buffered token stands for any number
	// of wake calls since the loop last took the buffer.
	kick chan struct{}
}

func (g *gserver) attach(conn *net.TCPConn) {
	c := &gconn{conn: conn, kick: make(chan struct{}, 1)}
	c.wake = c.kickFlusher
	if !g.cs.connect(&c.respConn, c, conn) {
		conn.Close() //nolint:errcheck // refused
		return
	}
	g.mu.Lock()
	g.conns[c] = struct{}{}
	g.mu.Unlock()
	g.wg.Add(1)
	go g.serve(c)
}

// serve runs one connection to its end: the flush loop beside the read
// loop, then the books.
func (g *gserver) serve(c *gconn) {
	defer g.wg.Done()
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		c.flushLoop()
	}()
	c.readLoop()
	<-flushed
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
	g.cs.disconnected(&c.respConn)
}

func (g *gserver) stop() {
	g.mu.Lock()
	open := make([]*gconn, 0, len(g.conns))
	for c := range g.conns {
		open = append(open, c)
	}
	g.mu.Unlock()
	for _, c := range open {
		c.end(ErrSessionClosed)
	}
	g.wg.Wait()
}

func (c *gconn) kickFlusher() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Closed implements Sink: called exactly once by the broker when the session
// ends (overflow, QUIT, broker shutdown). It must not block, so it leaves
// the socket to the flush loop: the write deadline bounds the loop's last
// write and aborts one that is blocked on a peer that stopped reading.
func (c *gconn) Closed(reason error) {
	c.shut(reason)
	c.conn.SetWriteDeadline(time.Now().Add(farewellTimeout)) //nolint:errcheck // best-effort
	c.kickFlusher()
}

// readLoop feeds the socket to the command parser until the connection ends.
func (c *gconn) readLoop() {
	buf := make([]byte, connReadBuffer)
	for {
		n, err := c.conn.Read(buf)
		if n > 0 {
			c.cs.bytesIn.Add(uint64(n))
			if done, reason := c.feed(buf[:n]); done {
				c.end(reason)
				return
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = nil // peer hung up, or the flush loop closed the socket
			}
			c.end(err)
			return
		}
	}
}

// flushLoop writes out whatever accumulated since its last pass — however
// many deliveries that was, in one write — and closes the socket once the
// connection has ended.
func (c *gconn) flushLoop() {
	defer c.conn.Close() //nolint:errcheck // teardown; unblocks readLoop
	var spare []byte
	for range c.kick {
		c.mu.Lock()
		buf := c.wbuf
		c.wbuf = spare[:0]
		c.dirty = false
		closed := c.closed.Load()
		c.mu.Unlock()
		if len(buf) > 0 {
			n, err := c.conn.Write(buf)
			c.cs.bytesOut.Add(uint64(n))
			if err != nil && !closed {
				c.end(err)
				return
			}
		}
		if closed {
			return
		}
		spare = c.recycle(buf, len(buf))
	}
}
