//go:build linux

package broker

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
)

// This file is the Linux event-loop connection core: a sharded epoll
// reactor. The shared accept loop hands each accepted socket to attach, which
// moves its fd round-robin to one of GOMAXPROCS shards; each shard owns one
// epoll instance, an fd-indexed session table, and a shared read buffer.
// Reads are edge-triggered into the shared buffer and fed to the
// connection's incremental RESP parser (partial frames carry over between
// wakeups); deliveries enqueue into per-connection write buffers (respConn)
// that the shard flushes once per loop pass, so a fan-out burst costs one
// write syscall per *connection per cycle*, not one per message — and an
// idle connection costs one table slot and an empty buffer, not two
// goroutines and a read buffer.

// platformCore is the core NewConnServer serves with.
var platformCore = connCore{name: "reactor", start: startReactor}

// shardReadBuffer is the per-shard read buffer: big enough to drain a burst
// of pipelined commands in one syscall.
const shardReadBuffer = 64 << 10

// epoll event masks. EPOLLET does not fit int32 through the syscall
// constants, so the masks are assembled as uint32 here.
const (
	epollET       = uint32(1) << 31
	epollReadMask = uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP) | epollET
	epollRWMask   = uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP|syscall.EPOLLOUT) | epollET
	epollErrMask  = uint32(syscall.EPOLLHUP | syscall.EPOLLERR)
)

// startReactor creates the shards and starts their event loops.
func startReactor(cs *ConnServer) (func(*net.TCPConn), func(), error) {
	r := &reactor{cs: cs}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		sh, err := newShard(r)
		if err != nil {
			for _, s := range r.shards {
				s.destroy()
			}
			return nil, nil, fmt.Errorf("broker: reactor shard: %w", err)
		}
		r.shards = append(r.shards, sh)
	}
	var wg sync.WaitGroup
	for _, sh := range r.shards {
		wg.Add(1)
		go func(sh *rshard) {
			defer wg.Done()
			sh.loop()
		}(sh)
	}
	stop := func() {
		for _, sh := range r.shards {
			sh.stop()
		}
		wg.Wait()
	}
	return r.attach, stop, nil
}

type reactor struct {
	cs     *ConnServer
	shards []*rshard
	next   uint64 // round-robin shard cursor (accept goroutine only)
}

// attach transfers an accepted connection's fd out of the runtime's
// netpoller into shard ownership. Go's listener RawConn only supports Control
// (Read returns EINVAL), so the portable Accept does the blocking; the fd is
// then duplicated out of the short-lived *net.TCPConn (dup shares the file
// description, so the socket survives closing the original) and everything
// after the handoff is epoll-only.
func (r *reactor) attach(conn *net.TCPConn) {
	defer conn.Close() //nolint:errcheck // fd ownership moved (or dup failed)
	fd, err := dupConnFD(conn)
	if err != nil {
		return
	}
	sh := r.shards[r.next%uint64(len(r.shards))]
	r.next++
	rs := &rsession{fd: fd, sh: sh}
	rs.wake = func() { sh.addPending(rs) }
	if !r.cs.connect(&rs.respConn, rs, conn) {
		syscall.Close(fd) //nolint:errcheck // refused
		return
	}
	sh.addIncoming(rs)
}

// dupConnFD duplicates tc's descriptor so the reactor owns a copy outside
// the runtime poller.
func dupConnFD(tc *net.TCPConn) (int, error) {
	rc, err := tc.SyscallConn()
	if err != nil {
		return -1, err
	}
	nfd := -1
	var dupErr error
	if cerr := rc.Control(func(fd uintptr) {
		nfd, dupErr = syscall.Dup(int(fd))
		if dupErr == nil {
			syscall.CloseOnExec(nfd)
		}
	}); cerr != nil {
		return -1, cerr
	}
	if dupErr != nil {
		return -1, dupErr
	}
	// The dup shares the original's file description, which the runtime had
	// already made non-blocking; set it explicitly anyway so the shard loops
	// can never block on a stray flag.
	syscall.SetNonblock(nfd, true) //nolint:errcheck
	return nfd, nil
}

// rsession is one reactor-core connection: the shared output seam plus the
// fd and its epoll state.
type rsession struct {
	respConn
	fd int
	sh *rshard

	wantWrite  bool // EPOLLOUT armed (kernel buffer was full); guarded by mu
	fdReleased bool // fd closed, table entry gone (shard goroutine only)
}

// Closed implements Sink: called exactly once by the broker when the session
// ends (overflow, QUIT, broker shutdown). It must not block and must not
// close the fd — fd lifecycle belongs to the shard goroutine, which frees it
// on the next pass.
func (rs *rsession) Closed(reason error) {
	rs.shut(reason)
	rs.sh.addDead(rs)
}

// rshard is one event-loop shard: an epoll instance, a wake pipe, the
// fd-indexed session table, and the shared read buffer. All fd lifecycle
// (epoll registration, close) happens on the shard goroutine; other
// goroutines only append to the queues and wake it.
type rshard struct {
	r     *reactor
	epfd  int
	wakeR int
	wakeW int

	table  fdTable[rsession]
	events []syscall.EpollEvent
	rbuf   []byte

	qmu      sync.Mutex
	pending  []*rsession // sessions with bytes to flush
	incoming []*rsession // freshly accepted, awaiting registration
	dead     []*rsession // closed sessions awaiting fd release

	wakeArmed atomic.Bool
	stopped   atomic.Bool

	// swap scratch so draining the queues never allocates in steady state
	pendScratch, inScratch, deadScratch []*rsession
}

func newShard(r *reactor) (*rshard, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("epoll_create1: %w", err)
	}
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd) //nolint:errcheck
		return nil, fmt.Errorf("pipe2: %w", err)
	}
	sh := &rshard{
		r:      r,
		epfd:   epfd,
		wakeR:  p[0],
		wakeW:  p[1],
		events: make([]syscall.EpollEvent, 256),
		rbuf:   make([]byte, shardReadBuffer),
	}
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN), Fd: int32(p[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p[0], &ev); err != nil {
		sh.destroy()
		return nil, fmt.Errorf("epoll_ctl wake: %w", err)
	}
	return sh, nil
}

// destroy releases the shard's descriptors (only for construction failures
// and final cleanup; live teardown goes through loop()).
func (sh *rshard) destroy() {
	syscall.Close(sh.epfd)  //nolint:errcheck
	syscall.Close(sh.wakeR) //nolint:errcheck
	syscall.Close(sh.wakeW) //nolint:errcheck
}

// wake nudges the shard out of epoll_wait (deduplicated: one pipe byte per
// quiet period, not one per enqueue).
func (sh *rshard) wake() {
	if !sh.wakeArmed.Swap(true) {
		var one = [1]byte{1}
		syscall.Write(sh.wakeW, one[:]) //nolint:errcheck // pipe full = wake already pending
	}
}

func (sh *rshard) addPending(rs *rsession) {
	sh.qmu.Lock()
	sh.pending = append(sh.pending, rs)
	sh.qmu.Unlock()
	sh.wake()
}

func (sh *rshard) addIncoming(rs *rsession) {
	sh.qmu.Lock()
	sh.incoming = append(sh.incoming, rs)
	sh.qmu.Unlock()
	sh.wake()
}

func (sh *rshard) addDead(rs *rsession) {
	sh.qmu.Lock()
	sh.dead = append(sh.dead, rs)
	sh.qmu.Unlock()
	sh.wake()
}

// stop asks the shard loop to tear down and exit.
func (sh *rshard) stop() {
	sh.stopped.Store(true)
	sh.wake()
}

// loop is the shard's event loop.
func (sh *rshard) loop() {
	cs := sh.r.cs
	for {
		n, err := syscall.EpollWait(sh.epfd, sh.events, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			sh.cleanup()
			return
		}
		cs.epollWakeups.Add(1)
		woke := false
		for i := 0; i < n; i++ {
			ev := &sh.events[i]
			fd := int(ev.Fd)
			if fd == sh.wakeR {
				woke = true
				continue
			}
			cs.epollEvents.Add(1)
			sh.handleEvent(fd, ev.Events)
		}
		if woke {
			sh.drainWake()
		}
		sh.processIncoming()
		sh.flushPending()
		sh.processDead()
		if sh.stopped.Load() {
			sh.cleanup()
			return
		}
	}
}

// drainWake empties the wake pipe and re-arms it. Order matters: drain the
// pipe, clear the armed flag, and only then drain the work queues — a
// producer enqueueing in between either sees armed=true (its work is in the
// queues we are about to drain) or writes a fresh wake byte for the next
// epoll_wait.
func (sh *rshard) drainWake() {
	var buf [64]byte
	for {
		n, err := syscall.Read(sh.wakeR, buf[:])
		if n < len(buf) || err != nil {
			break
		}
	}
	sh.wakeArmed.Store(false)
}

// processIncoming registers freshly accepted sessions with the epoll
// instance and the fd table.
func (sh *rshard) processIncoming() {
	sh.qmu.Lock()
	batch := sh.incoming
	sh.incoming = sh.inScratch[:0]
	sh.qmu.Unlock()
	for _, rs := range batch {
		if rs.isClosed() {
			// Broker shut it down before registration.
			sh.releaseFD(rs)
			continue
		}
		ev := syscall.EpollEvent{Events: epollReadMask, Fd: int32(rs.fd)}
		if err := syscall.EpollCtl(sh.epfd, syscall.EPOLL_CTL_ADD, rs.fd, &ev); err != nil {
			rs.end(fmt.Errorf("broker: epoll add: %w", err))
			continue
		}
		sh.table.put(rs.fd, rs)
	}
	sh.inScratch = batch[:0]
}

// handleEvent services one epoll event for a connection fd.
func (sh *rshard) handleEvent(fd int, events uint32) {
	rs := sh.table.get(fd)
	if rs == nil || rs.isClosed() {
		return
	}
	if events&epollErrMask != 0 {
		rs.end(nil) // peer reset/hangup: ordinary disconnect
		return
	}
	if events&uint32(syscall.EPOLLOUT) != 0 {
		sh.flushSession(rs)
		if rs.isClosed() {
			return
		}
	}
	if events&uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP) != 0 {
		sh.readSession(rs)
	}
}

// readSession drains the socket (edge-triggered: until EAGAIN) through the
// shared read buffer into the connection's parser and dispatch.
func (sh *rshard) readSession(rs *rsession) {
	for {
		n, err := syscall.Read(rs.fd, sh.rbuf)
		if n > 0 {
			sh.r.cs.bytesIn.Add(uint64(n))
			if done, reason := rs.feed(sh.rbuf[:n]); done {
				rs.end(reason)
				return
			}
			if n < len(sh.rbuf) {
				// Short read: the socket buffer is drained; a fresh edge
				// will fire for new data. Saves the EAGAIN syscall.
				return
			}
			continue
		}
		switch err {
		case syscall.EAGAIN:
			return
		case syscall.EINTR:
			continue
		case nil:
			rs.end(nil) // n == 0: peer closed
			return
		default:
			rs.end(err)
			return
		}
	}
}

// flushPending writes out every session that buffered bytes since the last
// pass — the write-coalescing point of the reactor: one write syscall per
// dirty connection per cycle, regardless of how many deliveries landed.
func (sh *rshard) flushPending() {
	sh.qmu.Lock()
	batch := sh.pending
	sh.pending = sh.pendScratch[:0]
	sh.qmu.Unlock()
	for _, rs := range batch {
		sh.flushSession(rs)
	}
	// Drop *rsession references so the scratch never pins dead sessions.
	clear(batch)
	sh.pendScratch = batch[:0]
}

// flushSession writes the session's pending bytes. On a full kernel buffer
// it keeps the remainder and arms EPOLLOUT; the edge re-enters here.
func (sh *rshard) flushSession(rs *rsession) {
	cs := sh.r.cs
	rs.mu.Lock()
	rs.dirty = false
	if rs.closed || rs.fdReleased || len(rs.wbuf) == 0 {
		rs.mu.Unlock()
		return
	}
	n, err := syscall.Write(rs.fd, rs.wbuf)
	cs.epollWrites.Add(1)
	if n > 0 {
		cs.bytesOut.Add(uint64(n))
	}
	if err == syscall.EAGAIN || (err == nil && n < len(rs.wbuf)) {
		if n > 0 {
			rs.wbuf = rs.wbuf[:copy(rs.wbuf, rs.wbuf[n:])]
		}
		if !rs.wantWrite {
			rs.wantWrite = true
			sh.epollMod(rs.fd, epollRWMask)
		}
		rs.mu.Unlock()
		return
	}
	if err != nil {
		rs.mu.Unlock()
		rs.end(err)
		return
	}
	rs.wbuf = rs.wbuf[:0]
	if cap(rs.wbuf) > wbufRetain {
		// A burst grew the buffer; give the memory back so idle
		// connections stay small.
		rs.wbuf = nil
	}
	if rs.wantWrite {
		rs.wantWrite = false
		sh.epollMod(rs.fd, epollReadMask)
	}
	rs.mu.Unlock()
}

func (sh *rshard) epollMod(fd int, mask uint32) {
	ev := syscall.EpollEvent{Events: mask, Fd: int32(fd)}
	syscall.EpollCtl(sh.epfd, syscall.EPOLL_CTL_MOD, fd, &ev) //nolint:errcheck // fd may be racing teardown
}

// processDead releases fds of sessions the broker has closed.
func (sh *rshard) processDead() {
	sh.qmu.Lock()
	batch := sh.dead
	sh.dead = sh.deadScratch[:0]
	sh.qmu.Unlock()
	for _, rs := range batch {
		sh.releaseFD(rs)
	}
	clear(batch)
	sh.deadScratch = batch[:0]
}

// releaseFD closes a dead session's descriptor and removes it from the
// table. Runs only on the shard goroutine; idempotent.
func (sh *rshard) releaseFD(rs *rsession) {
	cs := sh.r.cs
	rs.mu.Lock()
	if rs.fdReleased {
		rs.mu.Unlock()
		return
	}
	rs.fdReleased = true
	// Best-effort farewell flush (QUIT's +OK, protocol error replies);
	// nonblocking, so a full kernel buffer just drops the tail, exactly
	// like a Redis disconnect.
	if len(rs.wbuf) > 0 {
		if n, err := syscall.Write(rs.fd, rs.wbuf); err == nil && n > 0 {
			cs.bytesOut.Add(uint64(n))
		}
	}
	rs.wbuf = nil
	rs.mu.Unlock()
	if sh.table.get(rs.fd) == rs {
		sh.table.del(rs.fd)
	}
	syscall.Close(rs.fd) //nolint:errcheck
	cs.disconnected(&rs.respConn)
}

// cleanup tears down every remaining connection and the shard's own
// descriptors; runs when the listener closes (or epoll itself fails).
func (sh *rshard) cleanup() {
	// Close sessions still in the table...
	var live []*rsession
	sh.table.each(func(_ int, rs *rsession) { live = append(live, rs) })
	for _, rs := range live {
		rs.end(ErrSessionClosed)
	}
	// ...and any accepted-but-unregistered stragglers.
	sh.processIncoming()
	sh.qmu.Lock()
	batch := sh.incoming
	sh.incoming = nil
	sh.qmu.Unlock()
	for _, rs := range batch {
		rs.end(ErrSessionClosed)
	}
	sh.processDead()
	sh.destroy()
}
