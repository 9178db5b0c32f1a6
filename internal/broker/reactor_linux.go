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
// that a shard flushes once per loop pass, so a fan-out burst costs one
// write syscall per *connection per cycle*, not one per message — and an
// idle connection costs one table slot and an empty buffer, not two
// goroutines and a read buffer.
//
// Who flushes rests on the park protocol: a shard is awake from its return
// from epoll_wait until it has seen its work queues empty under qmu, so
// whatever is queued on an awake shard is handled before it sleeps. A session
// that goes dirty (markPending) is queued on its owner if awake, else on an
// awake shard with no input waiting (the fd and its epoll registration stay
// the owner's), and only when nobody can take it is the parked owner rung
// through its eventfd — once per park. The shard that took it writes it with
// the rest of its pass (flushPending), unless the pass gathered a backlog of
// foreign sessions: those go back to their owners, one ring each.

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
	r, err := newReactor(cs, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, err
	}
	return r.attach, r.start(), nil
}

func newReactor(cs *ConnServer, shards int) (*reactor, error) {
	r := &reactor{cs: cs}
	for i := 0; i < shards; i++ {
		sh, err := newShard(r, i)
		if err != nil {
			for _, s := range r.shards {
				s.destroy()
			}
			return nil, fmt.Errorf("broker: reactor shard: %w", err)
		}
		r.shards = append(r.shards, sh)
	}
	return r, nil
}

// start runs the shard loops; the returned stop ends them and waits.
func (r *reactor) start() (stop func()) {
	var wg sync.WaitGroup
	for _, sh := range r.shards {
		wg.Add(1)
		go func(sh *rshard) {
			defer wg.Done()
			sh.loop()
		}(sh)
	}
	return func() {
		for _, sh := range r.shards {
			sh.stop()
		}
		wg.Wait()
	}
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
	rs.wake = func() { r.markPending(rs) }
	if !r.cs.connect(&rs.respConn, rs, conn) {
		syscall.Close(fd) //nolint:errcheck // refused
		return
	}
	sh.post(&sh.incoming, rs)
}

// handOffMin is how many foreign sessions one pass must hold before
// flushPending returns them to their owners instead of writing them itself: a
// ring costs ≈ 20 µs of CPU over the two cores and a socket write ≈ 4 µs, so
// fewer buy too little parallel writing to pay for it (DESIGN.md §14).
const handOffMin = 32

// markPending queues a session that just went dirty on the shard that will
// flush it soonest without a wake-up: its owner if awake, else the first awake
// shard after it with no input waiting (after it, so that adoption spreads over
// the awake shards), else the owner after all — rung if still parked. Called
// with rs.mu held.
func (r *reactor) markPending(rs *rsession) {
	if rs.sh.offer(rs) {
		return
	}
	for i := 1; i < len(r.shards); i++ {
		if r.shards[(rs.sh.idx+i)%len(r.shards)].offer(rs) {
			return
		}
	}
	rs.sh.post(&rs.sh.pending, rs)
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
	fdReleased bool // fd closed, table entry gone; guarded by mu, set by the owner
}

// Closed implements Sink: called exactly once by the broker when the session
// ends (overflow, QUIT, broker shutdown). It must not block and must not
// close the fd — fd lifecycle belongs to the shard goroutine, which frees it
// on the next pass.
func (rs *rsession) Closed(reason error) {
	rs.shut(reason)
	rs.sh.post(&rs.sh.dead, rs)
}

// rshard is one event-loop shard: an epoll instance, a doorbell eventfd, the
// fd-indexed session table, and the shared read buffer. All fd lifecycle
// (epoll registration, close) happens on the shard goroutine; other
// goroutines only append to the queues, ringing the shard if it is parked.
type rshard struct {
	r    *reactor
	idx  int // position in r.shards
	epfd int
	evfd int // doorbell: written only to a parked shard

	table  fdTable[rsession]
	events []syscall.EpollEvent
	rbuf   []byte

	qmu      sync.Mutex
	awake    bool        // running, or rung and about to; cleared only by park
	pending  []*rsession // sessions with bytes to flush: own, adopted or handed back
	incoming []*rsession // freshly accepted, awaiting registration
	dead     []*rsession // closed sessions awaiting fd release

	// fullRead is set while the last socket read filled rbuf: more input is
	// already waiting, so the shard leaves foreign flushes to their owners.
	fullRead atomic.Bool
	stopped  atomic.Bool

	// swap scratch so draining the queues never allocates in steady state
	pendScratch, inScratch, deadScratch []*rsession
	handScratch                         [][]*rsession // handOff's groups, by owner idx
}

func newShard(r *reactor, idx int) (*rshard, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("epoll_create1: %w", err)
	}
	// EFD_NONBLOCK and EFD_CLOEXEC are the O_ flags of the same names.
	evfd, _, errno := syscall.Syscall(syscall.SYS_EVENTFD2, 0, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		syscall.Close(epfd) //nolint:errcheck
		return nil, fmt.Errorf("eventfd2: %w", errno)
	}
	sh := &rshard{
		r:      r,
		idx:    idx,
		epfd:   epfd,
		evfd:   int(evfd),
		events: make([]syscall.EpollEvent, 256),
		rbuf:   make([]byte, shardReadBuffer),
	}
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN), Fd: int32(evfd)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, sh.evfd, &ev); err != nil {
		sh.destroy()
		return nil, fmt.Errorf("epoll_ctl wake: %w", err)
	}
	return sh, nil
}

// destroy releases the shard's descriptors (only for construction failures
// and final cleanup; live teardown goes through loop()).
func (sh *rshard) destroy() {
	syscall.Close(sh.epfd) //nolint:errcheck
	syscall.Close(sh.evfd) //nolint:errcheck
}

// offer queues rs for flushing on sh only if that costs no wake-up: sh must
// be awake and, for a session it does not own, not behind on its own input
// (a read that filled rbuf). How many sessions it holds for others is
// flushPending's business, once the pass has dirtied all it will.
func (sh *rshard) offer(rs *rsession) bool {
	sh.qmu.Lock()
	ok := sh.awake && (rs.sh == sh || !sh.fullRead.Load())
	if ok {
		sh.pending = append(sh.pending, rs)
	}
	sh.qmu.Unlock()
	return ok
}

// post appends rs to one of sh's queues (none: q may be nil) and rings the
// doorbell if sh is parked. The ringer marks the shard awake itself, so of
// all producers that find it parked exactly one writes the eventfd.
func (sh *rshard) post(q *[]*rsession, rs ...*rsession) {
	sh.qmu.Lock()
	if len(rs) > 0 {
		*q = append(*q, rs...)
	}
	parked := !sh.awake
	sh.awake = true
	sh.qmu.Unlock()
	if parked {
		sh.r.cs.doorbells.Add(1)
		// Any nonzero count rings; this one is nonzero in either byte order.
		syscall.Write(sh.evfd, []byte{0: 1, 7: 1}) //nolint:errcheck // EAGAIN = already rung
	}
}

// stop asks the shard loop to tear down and exit.
func (sh *rshard) stop() {
	sh.stopped.Store(true)
	sh.post(nil)
}

// park ends a loop pass and returns the next epoll_wait's timeout. awake is
// cleared under the lock the queues were seen empty under: what a producer
// appended while it read awake is handled before the shard blocks, and a
// later one finds it parked and rings. With work queued (or a stop requested)
// the shard stays awake and only polls its sockets.
func (sh *rshard) park() (timeout int) {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	if len(sh.pending)+len(sh.incoming)+len(sh.dead) > 0 || sh.stopped.Load() {
		return 0
	}
	sh.awake = false
	return -1
}

// loop is the shard's event loop.
func (sh *rshard) loop() {
	cs := sh.r.cs
	for {
		timeout := sh.park()
		n, err := syscall.EpollWait(sh.epfd, sh.events, timeout)
		if timeout < 0 {
			sh.qmu.Lock()
			sh.awake = true
			sh.qmu.Unlock()
		}
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			sh.cleanup()
			return
		}
		cs.epollWakeups.Add(1)
		for i := 0; i < n; i++ {
			ev := &sh.events[i]
			fd := int(ev.Fd)
			if fd == sh.evfd {
				var count [8]byte
				syscall.Read(fd, count[:]) //nolint:errcheck // one read clears an eventfd
				continue
			}
			cs.epollEvents.Add(1)
			sh.handleEvent(fd, ev.Events)
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
		rs.flush(sh)
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
		if full := n == len(sh.rbuf); full != sh.fullRead.Load() {
			sh.fullRead.Store(full)
		}
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

// flushPending writes out every session queued here since the last pass, own
// or adopted — the write-coalescing point of the reactor: one write syscall
// per dirty connection per cycle, regardless of how many deliveries landed.
// The pass's reads have fanned out by now: a backlog of foreign sessions goes
// back whole, and first, so the owners' wake-ups overlap the writes made here.
func (sh *rshard) flushPending() {
	sh.qmu.Lock()
	batch := sh.pending
	sh.pending = sh.pendScratch[:0]
	sh.qmu.Unlock()
	foreign := 0
	for _, rs := range batch {
		if rs.sh != sh {
			foreign++
		}
	}
	mine := batch
	if foreign >= handOffMin {
		mine = sh.handOff(batch)
	}
	for _, rs := range mine {
		rs.flush(sh)
	}
	// Drop *rsession references so the scratch never pins dead sessions.
	clear(batch)
	sh.pendScratch = batch[:0]
}

// handOff returns the foreign sessions in batch to their owners, grouped: one
// qmu acquisition and at most one ring per owner. dirty stays set, so a session
// in transit is queued nowhere else, and it only ever moves to its owner, never
// on. It returns sh's own sessions, compacted to the front of batch.
func (sh *rshard) handOff(batch []*rsession) (mine []*rsession) {
	if sh.handScratch == nil {
		sh.handScratch = make([][]*rsession, len(sh.r.shards))
	}
	mine = batch[:0]
	for _, rs := range batch {
		if rs.sh == sh {
			mine = append(mine, rs)
		} else {
			sh.handScratch[rs.sh.idx] = append(sh.handScratch[rs.sh.idx], rs)
		}
	}
	sh.r.cs.handoffs.Add(uint64(len(batch) - len(mine)))
	for i, group := range sh.handScratch {
		if len(group) > 0 {
			owner := sh.r.shards[i]
			owner.post(&owner.pending, group...)
			clear(group)
			sh.handScratch[i] = group[:0]
		}
	}
	return mine
}

// flush writes the session's pending bytes; any shard, by, may call it (wbuf,
// wantWrite and fdReleased are all under mu). On a full kernel buffer it keeps
// the remainder and arms EPOLLOUT on the owner, where the edge re-enters here.
func (rs *rsession) flush(by *rshard) {
	sh, cs := rs.sh, rs.sh.r.cs
	rs.mu.Lock()
	rs.dirty = false
	if rs.closed.Load() || rs.fdReleased || len(rs.wbuf) == 0 {
		rs.mu.Unlock()
		return
	}
	n, err := syscall.Write(rs.fd, rs.wbuf)
	cs.epollWrites.Add(1)
	if by != sh {
		cs.adopted.Add(1)
	}
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
	rs.wbuf = rs.recycle(rs.wbuf, n)
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
	// Register accepted stragglers first: then the table holds every session.
	sh.processIncoming()
	var live []*rsession
	sh.table.each(func(_ int, rs *rsession) { live = append(live, rs) })
	for _, rs := range live {
		rs.end(ErrSessionClosed)
	}
	sh.processDead()
	sh.destroy()
}
