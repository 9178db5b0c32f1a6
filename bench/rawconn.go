package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dynamoth/dynamoth/internal/resp"
)

// Raw RESP connections (fan-out subscribers, the pattern subscriber, the
// churn connection) are multiplexed on one epoll instance read by a single
// receiver goroutine, the way internal/workload/conns_linux.go drives its
// connections: a goroutine per socket would put 34 generator goroutines on
// the two cores the node also needs. Only the sender goroutine writes to
// these sockets and only the receiver reads them.

type rawKind int

const (
	rawSub rawKind = iota
	rawPattern
	rawChurn
)

type rawConn struct {
	fd     int
	kind   rawKind
	idx    int // subscriber index for rawSub
	parser resp.CommandParser
	acks   atomic.Uint64 // (p)subscribe/unsubscribe acks read so far
}

// frameHandler consumes one server push frame from a raw connection.
type frameHandler func(c *rawConn, args [][]byte)

type rawMux struct {
	epfd   int
	conns  map[int32]*rawConn
	events []syscall.EpollEvent
	rbuf   []byte
	handle frameHandler
	// onWake receives each wake-up's frame count and interval while timing
	// is on (a traced cruise); the receiver reads no clock otherwise.
	onWake  func(frames int, start, end time.Duration)
	timing  atomic.Bool
	since   func() time.Duration
	stop    atomic.Bool
	started bool
	done    chan struct{}
	readErr atomic.Pointer[error]
}

func newRawMux(handle frameHandler, since func() time.Duration) (*rawMux, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("epoll_create1: %w", err)
	}
	return &rawMux{
		epfd:   epfd,
		conns:  map[int32]*rawConn{},
		events: make([]syscall.EpollEvent, 64),
		rbuf:   make([]byte, 256<<10),
		handle: handle,
		since:  since,
		done:   make(chan struct{}),
	}, nil
}

// dial opens one connection and registers it. All dials happen before run
// starts, so the conns map is never written concurrently with the receiver.
func (m *rawMux) dial(addr string, kind rawKind, idx int) (*rawConn, error) {
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	sa := &syscall.SockaddrInet4{Port: ta.Port}
	copy(sa.Addr[:], ta.IP.To4())
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd) //nolint:errcheck // teardown
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1) //nolint:errcheck // latency hint only
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd) //nolint:errcheck // teardown
		return nil, err
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: int32(fd)}
	if err := syscall.EpollCtl(m.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		syscall.Close(fd) //nolint:errcheck // teardown
		return nil, err
	}
	c := &rawConn{fd: fd, kind: kind, idx: idx}
	m.conns[int32(fd)] = c
	return c, nil
}

// send writes a command buffer from the sender goroutine. The sockets are
// non-blocking for the receiver's sake; a full send buffer (never seen on
// loopback at these command rates) is waited out.
func (c *rawConn) send(b []byte) error {
	for len(b) > 0 {
		n, err := syscall.Write(c.fd, b)
		if n > 0 {
			b = b[n:]
		}
		switch err {
		case nil, syscall.EINTR:
		case syscall.EAGAIN:
			time.Sleep(50 * time.Microsecond)
		default:
			return err
		}
	}
	return nil
}

// start launches the receiver goroutine; every dial must come before it.
func (m *rawMux) start() {
	m.started = true
	go m.run()
}

// run is the receiver goroutine: wait, drain every ready socket, hand each
// complete frame to the handler.
func (m *rawMux) run() {
	defer close(m.done)
	for !m.stop.Load() {
		n, err := syscall.EpollWait(m.epfd, m.events, 20)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			m.fail(fmt.Errorf("epoll_wait: %w", err))
			return
		}
		if n == 0 {
			continue
		}
		var start time.Duration
		timing := m.timing.Load()
		if timing {
			start = m.since()
		}
		frames := 0
		for i := 0; i < n; i++ {
			c := m.conns[m.events[i].Fd]
			got, err := m.read(c)
			frames += got
			if err != nil {
				m.fail(fmt.Errorf("raw conn %d: %w", c.idx, err))
				return
			}
		}
		if timing {
			m.onWake(frames, start, m.since())
		}
	}
}

func (m *rawMux) fail(err error) { m.readErr.CompareAndSwap(nil, &err) }

// err reports the first receiver failure (a dead connection or a protocol
// error), nil while healthy.
func (m *rawMux) err() error {
	if p := m.readErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (m *rawMux) read(c *rawConn) (frames int, err error) {
	for {
		n, rerr := syscall.Read(c.fd, m.rbuf)
		if n > 0 {
			c.parser.Feed(m.rbuf[:n])
			for {
				args, perr := c.parser.Next()
				if perr != nil {
					return frames, perr
				}
				if args == nil {
					break
				}
				frames++
				m.handle(c, args)
			}
			if n < len(m.rbuf) {
				return frames, nil
			}
			continue
		}
		switch rerr {
		case syscall.EAGAIN:
			return frames, nil
		case syscall.EINTR:
			continue
		case nil:
			return frames, fmt.Errorf("closed by the node")
		default:
			return frames, rerr
		}
	}
}

// close stops the receiver, waits for it, and closes every socket.
func (m *rawMux) close() {
	m.stop.Store(true)
	if m.started {
		<-m.done
	}
	for _, c := range m.conns {
		syscall.Close(c.fd) //nolint:errcheck // teardown
	}
	syscall.Close(m.epfd) //nolint:errcheck // teardown
}
