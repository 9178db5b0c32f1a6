package broker

import (
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/resp"
)

// respConn is the one connection seam both TCP cores embed: the broker
// session behind a socket, the incremental command parser, and the pending
// output buffer — replies and deliveries appended under one mutex, so they
// leave in the order they were produced (a CSUBSCRIBE ack always follows its
// replayed frames) and flush together. It implements EnqueueSink except for
// Closed, which each core adds because releasing the socket is the core's
// business. A core supplies two things only: wake, how its flusher learns
// that bytes are pending, and the loop that reads the socket into feed.
type respConn struct {
	cs   *ConnServer
	name string // remote address
	sess *Session
	// parser carries partial frames across reads; only the goroutine that
	// reads the socket touches it.
	parser resp.CommandParser
	// wake is called with mu held when the buffer goes from clean to dirty.
	// It must not block.
	wake func()

	mu     sync.Mutex
	wbuf   []byte      // pending outbound bytes (replies + deliveries)
	dirty  bool        // wake has fired and the flusher has not yet taken wbuf
	closed atomic.Bool // no more output is accepted; written under mu only
	reason error       // why the connection ended (nil = ordinary disconnect)
	lean   int         // flushes in a row that left a grown wbuf mostly unused (recycle)
}

// isClosed is the read path's lock-free look at closed; a reader that misses
// a concurrent shut finishes the command in hand, whose output is refused.
func (c *respConn) isClosed() bool { return c.closed.Load() }

// recycle readies a flushed buffer that held used bytes for reuse. One grown
// past wbufRetain is kept while flushes keep using it (a large-frame stream
// does not regrow it every burst) and released after wbufLeanFlushes flushes
// in a row that each used under a quarter of it, so a connection whose
// traffic subsides falls back to a small footprint.
func (c *respConn) recycle(buf []byte, used int) []byte {
	if cap(buf) <= wbufRetain || used > cap(buf)/4 {
		c.lean = 0
	} else if c.lean++; c.lean >= wbufLeanFlushes {
		c.lean = 0
		return nil
	}
	return buf[:0]
}

// markDirtyLocked tells the core's flusher there are bytes to write. Caller
// holds c.mu.
func (c *respConn) markDirtyLocked() {
	if !c.dirty {
		c.dirty = true
		c.wake()
	}
}

// Enqueue implements EnqueueSink: called from publisher goroutines on the
// fan-out hot path. It appends the push frame to the pending buffer and wakes
// the flusher; false means the buffer is over ServeOptions.WriteBufferLimit
// (slow consumer) and the broker must disconnect the session.
func (c *respConn) Enqueue(channel, pattern string, payload []byte) bool {
	cs := c.cs
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return true // dying anyway; swallow like a closed Redis conn
	}
	if len(c.wbuf) > cs.opts.WriteBufferLimit {
		buffered := len(c.wbuf)
		c.mu.Unlock()
		cs.backpressure.Add(1)
		if cs.opts.Observer != nil {
			cs.opts.Observer.OnBackpressure(c.name, buffered)
		}
		return false
	}
	if pattern != "" {
		c.wbuf = resp.AppendPMessage(c.wbuf, pattern, channel, payload)
	} else {
		c.wbuf = resp.AppendMessage(c.wbuf, channel, payload)
	}
	c.markDirtyLocked()
	c.mu.Unlock()
	// The frame is now in the connection's write buffer, written out on the
	// flusher's next pass: the writer-flush observation point of the latency
	// waterfall for TCP sessions.
	cs.b.observeFlush(payload)
	return true
}

// Deliver implements Sink; the broker only ever calls Enqueue, but the
// interface requires it.
func (c *respConn) Deliver(channel string, payload []byte) {
	c.Enqueue(channel, "", payload)
}

// shut stops the connection accepting output. The first reason wins, so a
// core that ends a connection itself records its own reason (nil for an
// ordinary disconnect) before the broker's Closed callback arrives.
func (c *respConn) shut(reason error) {
	c.mu.Lock()
	if !c.closed.Load() {
		c.closed.Store(true)
		c.reason = reason
	}
	c.mu.Unlock()
}

// end closes the connection's session; the broker then calls the core's
// Closed, which releases the socket. reason is what the ConnObserver is
// told: nil for an ordinary disconnect (peer hangup, QUIT).
func (c *respConn) end(reason error) {
	c.shut(reason)
	if reason == nil {
		reason = ErrSessionClosed
	}
	c.sess.close(reason)
}

// feed runs one read's worth of bytes through the parser and executes every
// complete command, each parsed where it lies in p: p is the parser's (and
// through it the broker's, to stamp and to read) until feed returns. done
// reports that the connection should end, for reason (nil after QUIT, or when
// a concurrent teardown got there first).
func (c *respConn) feed(p []byte) (done bool, reason error) {
	c.parser.Feed(p)
	for {
		args, err := c.parser.Next()
		if err != nil {
			c.writeErr("ERR protocol error") //nolint:errcheck
			return true, err
		}
		if args == nil {
			return false, nil
		}
		if dispatch(c.cs.b, c.sess, c, args) || c.isClosed() {
			return true, nil
		}
	}
}

// Replies append to the same pending buffer as deliveries. Each returns
// ErrSessionClosed once the connection stopped accepting output.

func (c *respConn) writeAck(kind, channel string, count int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrSessionClosed
	}
	w := append(c.wbuf, '*', '3', '\r', '\n')
	w = resp.AppendBulkString(w, kind)
	w = resp.AppendBulkString(w, channel)
	w = append(w, ':')
	w = strconv.AppendInt(w, int64(count), 10)
	c.wbuf = append(w, '\r', '\n')
	c.markDirtyLocked()
	return nil
}

// writeReplayAck is the CSUBSCRIBE reply: a 6-element array of kind,
// channel, subscription count, frames replayed, frames missed (already
// evicted from the ring), and the ring's current epoch.
func (c *respConn) writeReplayAck(channel string, count, replayed int, missed, epoch uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrSessionClosed
	}
	w := append(c.wbuf, '*', '6', '\r', '\n')
	w = resp.AppendBulkString(w, "csubscribe")
	w = resp.AppendBulkString(w, channel)
	w = append(w, ':')
	w = strconv.AppendInt(w, int64(count), 10)
	w = append(w, '\r', '\n', ':')
	w = strconv.AppendInt(w, int64(replayed), 10)
	w = append(w, '\r', '\n', ':')
	w = strconv.AppendUint(w, missed, 10)
	w = append(w, '\r', '\n', ':')
	w = strconv.AppendUint(w, epoch, 10)
	c.wbuf = append(w, '\r', '\n')
	c.markDirtyLocked()
	return nil
}

func (c *respConn) writeSimple(v string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrSessionClosed
	}
	w := append(c.wbuf, '+')
	w = append(w, v...)
	c.wbuf = append(w, '\r', '\n')
	c.markDirtyLocked()
	return nil
}

func (c *respConn) writeErr(msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrSessionClosed
	}
	w := append(c.wbuf, '-')
	w = append(w, msg...)
	c.wbuf = append(w, '\r', '\n')
	c.markDirtyLocked()
	return nil
}

func (c *respConn) writeInt(n int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrSessionClosed
	}
	w := append(c.wbuf, ':')
	w = strconv.AppendInt(w, n, 10)
	c.wbuf = append(w, '\r', '\n')
	c.markDirtyLocked()
	return nil
}

func (c *respConn) writeBulk(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrSessionClosed
	}
	c.wbuf = resp.AppendBulk(c.wbuf, b)
	c.markDirtyLocked()
	return nil
}

// infoPool recycles the INFO reply scratch so admin polling does not
// allocate on the broker.
var infoPool = sync.Pool{New: func() any { return new([]byte) }}

// appendInfo renders the INFO body (same shape Redis gives it) into dst.
func appendInfo(dst []byte, name string, st Stats) []byte {
	dst = append(dst, "# Server\r\nname:"...)
	dst = append(dst, name...)
	dst = append(dst, "\r\n# Stats\r\nsessions:"...)
	dst = strconv.AppendInt(dst, int64(st.Sessions), 10)
	dst = append(dst, "\r\nchannels:"...)
	dst = strconv.AppendInt(dst, int64(st.Channels), 10)
	dst = append(dst, "\r\npublished:"...)
	dst = strconv.AppendUint(dst, st.Published, 10)
	dst = append(dst, "\r\ndelivered:"...)
	dst = strconv.AppendUint(dst, st.Delivered, 10)
	dst = append(dst, "\r\ndropped:"...)
	dst = strconv.AppendUint(dst, st.Dropped, 10)
	return append(dst, '\r', '\n')
}

// dispatch executes one command; it reports whether the connection should
// close. args alias a read buffer that is reused after dispatch returns, so
// anything retained is copied: channel names through string conversion here
// (or into a new channel record), a PUBLISH payload by whoever down the
// publish path keeps it.
func dispatch(b *Broker, session *Session, sink *respConn, args [][]byte) bool {
	// Command names match in any letter case (redis-cli and go-redis send
	// lower case), upper-cased on the stack: no allocation. A name longer
	// than any command matches none.
	var cmd [len("PUNSUBSCRIBE")]byte
	n := 0
	if len(args[0]) <= len(cmd) {
		n = copy(cmd[:], args[0])
	}
	for i, c := range cmd[:n] {
		if 'a' <= c && c <= 'z' {
			cmd[i] = c - ('a' - 'A')
		}
	}
	switch string(cmd[:n]) {
	case "SUBSCRIBE":
		if len(args) < 2 {
			sink.writeErr("ERR wrong number of arguments for 'subscribe'") //nolint:errcheck
			return false
		}
		for _, ch := range args[1:] {
			count, err := session.Subscribe(string(ch))
			if err != nil {
				return true
			}
			if err := sink.writeAck("subscribe", string(ch), count); err != nil {
				return true
			}
		}
	case "UNSUBSCRIBE":
		channels := make([]string, 0, len(args)-1)
		for _, ch := range args[1:] {
			channels = append(channels, string(ch))
		}
		if len(channels) == 0 {
			channels = session.Subscriptions()
		}
		for _, ch := range channels {
			count, err := session.Unsubscribe(ch)
			if err != nil {
				return true
			}
			if err := sink.writeAck("unsubscribe", ch, count); err != nil {
				return true
			}
		}
	case "PSUBSCRIBE":
		if len(args) < 2 {
			sink.writeErr("ERR wrong number of arguments for 'psubscribe'") //nolint:errcheck
			return false
		}
		for _, pat := range args[1:] {
			count, err := session.PSubscribe(string(pat))
			if err != nil {
				return true
			}
			if err := sink.writeAck("psubscribe", string(pat), count); err != nil {
				return true
			}
		}
	case "PUNSUBSCRIBE":
		patterns := make([]string, 0, len(args)-1)
		for _, pat := range args[1:] {
			patterns = append(patterns, string(pat))
		}
		if len(patterns) == 0 {
			patterns = session.PatternSubscriptions()
		}
		for _, pat := range patterns {
			count, err := session.PUnsubscribe(pat)
			if err != nil {
				return true
			}
			if err := sink.writeAck("punsubscribe", pat, count); err != nil {
				return true
			}
		}
	case "CSUBSCRIBE":
		// Cursor subscribe: SUBSCRIBE plus a replay of the frames the
		// cursor's position misses from the channel's replay ring.
		if len(args) != 3 {
			sink.writeErr("ERR wrong number of arguments for 'csubscribe'") //nolint:errcheck
			return false
		}
		cur, err := message.UnmarshalCursor(args[2])
		if err != nil {
			sink.writeErr("ERR malformed cursor") //nolint:errcheck
			return false
		}
		res, err := session.SubscribeFrom(string(args[1]), cur)
		if err != nil {
			return true
		}
		if err := sink.writeReplayAck(string(args[1]), session.subscriptionCount(), res.Replayed, res.Missed, res.Epoch); err != nil {
			return true
		}
	case "PUBLISH":
		if len(args) != 3 {
			sink.writeErr("ERR wrong number of arguments for 'publish'") //nolint:errcheck
			return false
		}
		n := b.publish(lookup(b, args[1]), args[2], true)
		if err := sink.writeInt(int64(n)); err != nil {
			return true
		}
	case "PING":
		if err := sink.writeSimple("PONG"); err != nil {
			return true
		}
	case "ECHO":
		if len(args) != 2 {
			sink.writeErr("ERR wrong number of arguments for 'echo'") //nolint:errcheck
			return false
		}
		if err := sink.writeBulk(args[1]); err != nil {
			return true
		}
	case "INFO":
		bufp := infoPool.Get().(*[]byte)
		info := appendInfo((*bufp)[:0], b.Name(), b.Stats())
		err := sink.writeBulk(info)
		*bufp = info
		infoPool.Put(bufp)
		if err != nil {
			return true
		}
	case "QUIT":
		sink.writeSimple("OK") //nolint:errcheck
		return true
	default:
		sink.writeErr("ERR unknown command '" + string(args[0]) + "'") //nolint:errcheck
	}
	return false
}
