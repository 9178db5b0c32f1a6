package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/resp"
)

// TCPDialer connects to RESP pub/sub servers over TCP. Like standard Redis
// clients, each logical Conn uses two sockets: one in subscriber mode
// (SUBSCRIBE/UNSUBSCRIBE plus pushed messages) and one for PUBLISH
// request/reply traffic.
type TCPDialer struct {
	mu    sync.RWMutex
	addrs map[plan.ServerID]string

	// DialTimeout bounds connection establishment (default 5 s).
	DialTimeout time.Duration
}

// NewTCPDialer creates a dialer from a server→address table.
func NewTCPDialer(addrs map[plan.ServerID]string) *TCPDialer {
	d := &TCPDialer{addrs: make(map[plan.ServerID]string, len(addrs)), DialTimeout: 5 * time.Second}
	for id, a := range addrs {
		d.addrs[id] = a
	}
	return d
}

// AddServer registers a server address at runtime.
func (d *TCPDialer) AddServer(id plan.ServerID, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs[id] = addr
}

// RemoveServer removes a server's address.
func (d *TCPDialer) RemoveServer(id plan.ServerID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.addrs, id)
}

// Probe checks a server's liveness with a RESP PING under a hard deadline:
// dial, PING, and the PONG read must all complete within timeout. It is the
// probe the failure detector feeds on — a wedged server that accepts
// connections but never answers counts as dead, not slow.
func (d *TCPDialer) Probe(server plan.ServerID, timeout time.Duration) error {
	d.mu.RLock()
	addr, ok := d.addrs[server]
	d.mu.RUnlock()
	if !ok {
		return ErrUnknownServer
	}
	return ProbeTCP(addr, timeout)
}

// ProbeTCP performs one RESP PING round trip against addr with an overall
// deadline covering dial, write, and read.
func ProbeTCP(addr string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	deadline := time.Now().Add(timeout)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return fmt.Errorf("transport: probe dial %s: %w", addr, err)
	}
	defer conn.Close() //nolint:errcheck // teardown
	if err := conn.SetDeadline(deadline); err != nil {
		return err
	}
	w := resp.NewWriter(conn)
	if err := w.WriteCommandStrings("PING"); err != nil {
		return fmt.Errorf("transport: probe %s: %w", addr, err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("transport: probe %s: %w", addr, err)
	}
	v, err := resp.NewReader(conn).ReadValue()
	if err != nil {
		return fmt.Errorf("transport: probe %s: %w", addr, err)
	}
	if v.Kind == resp.KindError {
		return fmt.Errorf("transport: probe %s: server error: %s", addr, v.Str)
	}
	return nil
}

// Dial implements Dialer.
func (d *TCPDialer) Dial(server plan.ServerID, h Handler) (Conn, error) {
	d.mu.RLock()
	addr, ok := d.addrs[server]
	d.mu.RUnlock()
	if !ok {
		return nil, ErrUnknownServer
	}
	subSock, err := net.DialTimeout("tcp", addr, d.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", server, addr, err)
	}
	pubSock, err := net.DialTimeout("tcp", addr, d.DialTimeout)
	if err != nil {
		subSock.Close() //nolint:errcheck // teardown
		return nil, fmt.Errorf("transport: dial %s (%s): %w", server, addr, err)
	}
	c := &tcpConn{
		handler: h,
		subSock: subSock,
		pubSock: pubSock,
		subW:    resp.NewWriter(subSock),
		pubR:    resp.NewReader(pubSock),
		pubW:    resp.NewWriter(pubSock),
		flushCh: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	go c.ackLoop()
	go c.flushLoop()
	return c, nil
}

// tcpConn pipelines the publish path: Publish only appends the command to
// the buffered publisher socket and returns; a flusher goroutine coalesces
// buffered commands into one write syscall (mirroring the broker's
// per-connection flusher), and an ack-reader goroutine drains the
// integer replies, counting outstanding publishes and capturing the first
// server error or disconnect, which subsequent Publish calls surface.
type tcpConn struct {
	handler Handler

	subSock net.Conn
	pubSock net.Conn

	subMu sync.Mutex // guards subW
	subW  *resp.Writer

	pubMu sync.Mutex // guards pubW buffered writes (never held across a read)
	pubW  *resp.Writer
	pubR  *resp.Reader // owned by ackLoop

	// outstanding counts publishes written but not yet acknowledged by the
	// server — the pipeline depth.
	outstanding atomic.Int64
	// pubErr is the first asynchronous publish failure (server rejection or
	// socket error); once set it is sticky and poisons the connection.
	pubErr atomic.Pointer[error]
	// flushCh signals (capacity 1, non-blocking) that buffered publish bytes
	// await a flush.
	flushCh chan struct{}

	// cackMu serializes SubscribeCursor calls; cackCh holds the waiter the
	// readLoop routes the next csubscribe ack to.
	cackMu sync.Mutex
	cackCh atomic.Pointer[chan cack]

	closeOnce sync.Once
	done      chan struct{}
	explicit  atomic.Bool
}

// cack is a decoded csubscribe ack: frames replayed, frames missed, and the
// server ring's epoch.
type cack struct {
	replayed int64
	missed   int64
	epoch    int64
}

var _ Conn = (*tcpConn)(nil)

func (c *tcpConn) Subscribe(channels ...string) error {
	return c.subCommand("SUBSCRIBE", channels)
}

func (c *tcpConn) Unsubscribe(channels ...string) error {
	return c.subCommand("UNSUBSCRIBE", channels)
}

func (c *tcpConn) subCommand(cmd string, channels []string) error {
	if len(channels) == 0 {
		return nil
	}
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if err := c.subW.WriteCommandStrings(cmd, channels...); err != nil {
		return err
	}
	return c.subW.Flush()
	// Acknowledgements arrive asynchronously on the read loop and are
	// dropped there; Redis semantics make them informational only.
}

// subscribeCursorAckTimeout bounds how long SubscribeCursor waits for the
// server's csubscribe ack before giving up (the caller falls back to a plain
// Subscribe).
const subscribeCursorAckTimeout = 5 * time.Second

// SubscribeCursor runs over the subscriber socket: it writes a CSUBSCRIBE command and waits for the server's ack, while replayed
// frames stream in as ordinary message pushes on the read loop.
func (c *tcpConn) SubscribeCursor(channel string, cur message.Cursor) (ReplayResult, error) {
	select {
	case <-c.done:
		return ReplayResult{}, ErrClosed
	default:
	}
	c.cackMu.Lock()
	defer c.cackMu.Unlock()
	ch := make(chan cack, 1)
	c.cackCh.Store(&ch)
	defer c.cackCh.Store(nil)
	blob := message.MarshalCursor(cur)
	c.subMu.Lock()
	err := c.subW.WriteCommand([]byte("CSUBSCRIBE"), []byte(channel), blob)
	if err == nil {
		err = c.subW.Flush()
	}
	c.subMu.Unlock()
	if err != nil {
		return ReplayResult{}, err
	}
	select {
	case a := <-ch:
		if a.replayed < 0 {
			return ReplayResult{}, fmt.Errorf("transport: csubscribe rejected by %s", c.subSock.RemoteAddr())
		}
		return ReplayResult{Replayed: int(a.replayed), Missed: uint64(a.missed), Epoch: uint64(a.epoch)}, nil
	case <-c.done:
		return ReplayResult{}, ErrClosed
	case <-time.After(subscribeCursorAckTimeout):
		return ReplayResult{}, fmt.Errorf("transport: csubscribe ack timeout on %s", c.subSock.RemoteAddr())
	}
}

// Publish appends the PUBLISH command to the publisher socket's buffer and
// returns without waiting for the server's reply — the reply is consumed by
// ackLoop. A server rejection or connection failure observed there is
// returned by the next Publish call (the connection is then poisoned; the
// owner drops it and re-dials, which is the client library's usual
// disconnect repair path).
func (c *tcpConn) Publish(channel string, payload []byte) error {
	select {
	case <-c.done:
		if perr := c.pubErr.Load(); perr != nil {
			return *perr
		}
		return ErrClosed
	default:
	}
	if perr := c.pubErr.Load(); perr != nil {
		return *perr
	}
	c.pubMu.Lock()
	err := c.pubW.WritePublish(channel, payload)
	c.pubMu.Unlock()
	if err != nil {
		c.setPubErr(err)
		c.disconnect(err)
		return err
	}
	c.outstanding.Add(1)
	select {
	case c.flushCh <- struct{}{}:
	default: // a flush is already pending; it will carry these bytes too
	}
	return nil
}

// Outstanding reports the number of pipelined publishes not yet acknowledged.
func (c *tcpConn) Outstanding() int64 { return c.outstanding.Load() }

// flushLoop pushes buffered publish commands to the kernel. While one flush
// blocks in the write syscall, concurrent Publish calls keep appending and
// collapse into the single pending flushCh token — the publisher-side
// mirror of the broker's per-batch delivery flush.
func (c *tcpConn) flushLoop() {
	for {
		select {
		case <-c.done:
			return
		case <-c.flushCh:
		}
		c.pubMu.Lock()
		err := c.pubW.Flush()
		c.pubMu.Unlock()
		if err != nil {
			c.setPubErr(err)
			c.disconnect(err)
			return
		}
	}
}

// ackLoop drains PUBLISH replies from the publisher socket, keeping the
// outstanding count and capturing server errors.
func (c *tcpConn) ackLoop() {
	for {
		v, err := c.pubR.ReadValue()
		if err != nil {
			select {
			case <-c.done: // expected: socket torn down by Close/disconnect
			default:
				c.setPubErr(err)
				c.disconnect(err)
			}
			return
		}
		c.outstanding.Add(-1)
		if v.Kind == resp.KindError {
			rejected := fmt.Errorf("transport: publish rejected: %s", v.Str)
			c.setPubErr(rejected)
		}
	}
}

func (c *tcpConn) setPubErr(err error) {
	c.pubErr.CompareAndSwap(nil, &err)
}

func (c *tcpConn) Close() error {
	c.explicit.Store(true)
	c.closeOnce.Do(func() {
		close(c.done)
		// Best effort: push buffered publishes to the kernel before the FIN
		// so a publish-then-close sequence is not lossy. TryLock skips the
		// flush when the flusher already holds the lock (it is flushing the
		// same bytes) or is wedged on a dead peer.
		if c.pubMu.TryLock() {
			c.pubW.Flush() //nolint:errcheck // teardown
			c.pubMu.Unlock()
		}
		c.subSock.Close() //nolint:errcheck // teardown
		c.pubSock.Close() //nolint:errcheck // teardown
	})
	return nil
}

// readLoop consumes pushes from the subscriber socket through the ReadPush
// fast path (no generic Value tree for message frames). Non-message frames
// are subscription acks, dropped — except csubscribe acks and errors, which
// are routed to a waiting SubscribeCursor call.
func (c *tcpConn) readLoop() {
	r := resp.NewReader(c.subSock)
	for {
		channel, payload, ok, v, err := r.ReadPush()
		if err != nil {
			c.disconnect(err)
			return
		}
		if !ok {
			if a, isAck := parseCack(v); isAck {
				if chp := c.cackCh.Load(); chp != nil {
					select {
					case *chp <- a:
					default: // stale duplicate ack; waiter already served
					}
				}
			}
			continue // subscribe/unsubscribe acks
		}
		c.handler.OnMessage(channel, payload)
	}
}

// parseCack recognizes the two frames a CSUBSCRIBE can answer with: the
// 6-element ["csubscribe", channel, count, replayed, missed, epoch] ack, or
// a RESP error (reported as replayed = -1).
func parseCack(v resp.Value) (cack, bool) {
	if v.Kind == resp.KindError {
		return cack{replayed: -1}, true
	}
	if v.Kind == resp.KindArray && !v.Null && len(v.Array) == 6 && string(v.Array[0].Str) == "csubscribe" {
		return cack{replayed: v.Array[3].Int, missed: v.Array[4].Int, epoch: v.Array[5].Int}, true
	}
	return cack{}, false
}

func (c *tcpConn) disconnect(err error) {
	first := false
	c.closeOnce.Do(func() {
		first = true
		close(c.done)
		c.subSock.Close() //nolint:errcheck // teardown
		c.pubSock.Close() //nolint:errcheck // teardown
	})
	if first && !c.explicit.Load() {
		c.handler.OnDisconnect(err)
	}
}
