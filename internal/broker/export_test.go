package broker

// TestConn is a connection without a socket, for tests outside this package
// (ones that need packages importing it) that drive the read path — parser,
// dispatch, publish — the way a connection core does with each read.
type TestConn struct{ respConn }

// Closed implements Sink: there is no socket to release.
func (t *TestConn) Closed(reason error) { t.shut(reason) }

// NewTestConn opens a session on cs's broker behind a socketless connection.
func NewTestConn(cs *ConnServer, name string) (*TestConn, error) {
	t := &TestConn{}
	t.cs, t.name, t.wake = cs, name, func() {}
	sess, err := cs.b.Connect(name, t)
	t.sess = sess
	return t, err
}

// Feed is one read's worth of bytes, borrowed until it returns.
func (t *TestConn) Feed(p []byte) (done bool, reason error) { return t.feed(p) }

// Drain discards the pending output as a flush would and reports its size.
func (t *TestConn) Drain() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.wbuf)
	t.wbuf, t.dirty = t.wbuf[:0], false
	return n
}

// ParserBuffered reports the stream bytes the connection's parser holds.
func (t *TestConn) ParserBuffered() int { return t.parser.Buffered() }
