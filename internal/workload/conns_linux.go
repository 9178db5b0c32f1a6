//go:build linux

package workload

import (
	"fmt"
	"net"
	"strconv"
	"syscall"
	"time"

	"github.com/dynamoth/dynamoth/internal/loadgen"
	"github.com/dynamoth/dynamoth/internal/metrics"
	"github.com/dynamoth/dynamoth/internal/resp"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// benchConn is one multiplexed subscriber connection.
type benchConn struct {
	fd     int
	group  int
	parser resp.CommandParser
	out    []byte // pending outbound bytes (partial writes carry over)
	state  int    // 0 connecting, 1 established, 2 dead
}

const (
	stConnecting = 0
	stUp         = 1
	stDead       = 2
)

// RunConnBench drives a broker with opts.Conns multiplexed subscriber
// connections and measures connect throughput and delivery latency under
// churn. See ConnBenchOptions.
func RunConnBench(opts ConnBenchOptions) (*ConnBenchResult, error) {
	if opts.Groups <= 0 {
		opts.Groups = 64
	}
	if opts.PublishRate <= 0 {
		opts.PublishRate = 50
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.ChurnPerSec < 0 {
		opts.ChurnPerSec = 0
	} else if opts.ChurnPerSec == 0 {
		opts.ChurnPerSec = 100
	}

	res := &ConnBenchResult{Target: opts.Conns}
	limit, _ := transport.RaiseFDLimit(uint64(opts.Conns) + FDHeadroom)
	res.FDLimit = limit
	conns := opts.Conns
	if budget := int(limit) - FDHeadroom; limit > 0 && conns > budget {
		conns = budget
	}
	if conns <= 0 {
		return nil, fmt.Errorf("workload: no fd budget for connections (limit %d)", limit)
	}

	dst, err := resolveTCP(opts.Addr)
	if err != nil {
		return nil, err
	}
	srcs, err := resolveSources(opts.SourceIPs)
	if err != nil {
		return nil, err
	}

	d := &connDriver{opts: opts, dst: dst, srcs: srcs, t0: time.Now(),
		latency: metrics.NewHistogram(time.Microsecond, time.Minute, 200)}
	if d.epfd, err = syscall.EpollCreate1(syscall.EPOLL_CLOEXEC); err != nil {
		return nil, fmt.Errorf("workload: epoll_create1: %w", err)
	}
	defer d.close()

	// Phase 1: ramp every connection up (non-blocking connects in bounded
	// batches, SUBSCRIBE pipelined the moment the connect completes).
	rampStart := time.Now()
	if err := d.ramp(conns); err != nil {
		return nil, err
	}
	res.Achieved = d.up
	res.ConnectSecs = time.Since(rampStart).Seconds()
	if res.ConnectSecs > 0 {
		res.ConnsPerSec = float64(res.Achieved) / res.ConnectSecs
	}
	if res.Achieved == 0 {
		return nil, fmt.Errorf("workload: no connections established")
	}
	if opts.OnEstablished != nil {
		opts.OnEstablished(res.Achieved)
	}

	// Phase 2: steady-state window — publisher ticks, subscribers receive,
	// churn cycles run — all inside the same event loop.
	if err := d.measure(opts.Duration); err != nil {
		return nil, err
	}
	res.Published = d.published
	res.Delivered = d.delivered
	res.ControlMsgs = d.controlMsgs
	res.ChurnOps = d.churnOps
	res.Samples = int(d.latency.Count())
	res.StampErrors = d.stampErrs
	res.BehindSchedule = d.behind
	res.DeliveryP50us, res.DeliveryP99us, res.DeliveryMaxus = quantilesUs(d.latency)
	return res, nil
}

// quantilesUs digests a histogram into microsecond p50, p99 and max.
func quantilesUs(h *metrics.Histogram) (p50, p99, peak float64) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	return us(h.Quantile(0.5)), us(h.Quantile(0.99)), us(h.Max())
}

func resolveTCP(addr string) (*syscall.SockaddrInet4, error) {
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, fmt.Errorf("workload: resolving %s: %w", addr, err)
	}
	ip4 := ta.IP.To4()
	if ip4 == nil {
		return nil, fmt.Errorf("workload: %s is not IPv4", addr)
	}
	sa := &syscall.SockaddrInet4{Port: ta.Port}
	copy(sa.Addr[:], ip4)
	return sa, nil
}

func resolveSources(ips []string) ([]*syscall.SockaddrInet4, error) {
	out := make([]*syscall.SockaddrInet4, 0, len(ips))
	for _, s := range ips {
		ip := net.ParseIP(s)
		if ip == nil || ip.To4() == nil {
			return nil, fmt.Errorf("workload: bad source IP %q", s)
		}
		sa := &syscall.SockaddrInet4{}
		copy(sa.Addr[:], ip.To4())
		out = append(out, sa)
	}
	return out, nil
}

type connDriver struct {
	opts ConnBenchOptions
	dst  *syscall.SockaddrInet4
	srcs []*syscall.SockaddrInet4
	t0   time.Time

	epfd   int
	table  []*benchConn // fd-indexed
	events []syscall.EpollEvent
	rbuf   []byte

	up          int
	nextSrc     int
	pubFD       int // publisher connection, multiplexed like the rest
	pubConn     *benchConn
	pubGroup    int
	published   uint64
	delivered   uint64
	subAcks     uint64
	controlMsgs uint64
	churnOps    uint64
	stampErrs   uint64
	behind      uint64
	latency     *metrics.Histogram // every delivery of the run, no cap
}

func (d *connDriver) close() {
	for _, c := range d.table {
		if c != nil && c.state != stDead {
			syscall.Close(c.fd) //nolint:errcheck
		}
	}
	syscall.Close(d.epfd) //nolint:errcheck
}

func (d *connDriver) put(c *benchConn) {
	if c.fd >= len(d.table) {
		n := len(d.table)*2 + 1024
		if n <= c.fd {
			n = c.fd + 1
		}
		grown := make([]*benchConn, n)
		copy(grown, d.table)
		d.table = grown
	}
	d.table[c.fd] = c
}

// dial starts one non-blocking connect bound to the next source IP.
func (d *connDriver) dial(group int) (*benchConn, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	if len(d.srcs) > 0 {
		src := d.srcs[d.nextSrc%len(d.srcs)]
		d.nextSrc++
		if err := syscall.Bind(fd, src); err != nil {
			syscall.Close(fd) //nolint:errcheck
			return nil, fmt.Errorf("bind %v: %w", src.Addr, err)
		}
	}
	err = syscall.Connect(fd, d.dst)
	if err != nil && err != syscall.EINPROGRESS {
		syscall.Close(fd) //nolint:errcheck
		return nil, err
	}
	c := &benchConn{fd: fd, group: group, state: stConnecting}
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN | syscall.EPOLLOUT | syscall.EPOLLRDHUP), Fd: int32(fd)}
	if err := syscall.EpollCtl(d.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		syscall.Close(fd) //nolint:errcheck
		return nil, err
	}
	d.put(c)
	return c, nil
}

func (d *connDriver) kill(c *benchConn) {
	if c.state == stDead {
		return
	}
	if c.state == stUp {
		d.up--
	}
	c.state = stDead
	syscall.Close(c.fd) //nolint:errcheck
	if c.fd < len(d.table) {
		d.table[c.fd] = nil
	}
}

// flush pushes c.out; on a full kernel buffer the remainder stays queued and
// EPOLLOUT (level-triggered) retries it next pass.
func (d *connDriver) flush(c *benchConn) {
	for len(c.out) > 0 {
		n, err := syscall.Write(c.fd, c.out)
		if n > 0 {
			c.out = c.out[:copy(c.out, c.out[n:])]
		}
		if err == syscall.EAGAIN {
			return
		}
		if err != nil {
			d.kill(c)
			return
		}
	}
}

// ramp establishes total connections with at most connectBatch
// connects in flight.
func (d *connDriver) ramp(total int) error {
	started, failed := 0, 0
	inflight := 0
	deadline := time.Now().Add(3 * time.Minute)
	if len(d.events) == 0 {
		d.events = make([]syscall.EpollEvent, 512)
		d.rbuf = make([]byte, 64<<10)
	}
	for d.up < total-failed {
		for inflight < connectBatch && started < total {
			c, err := d.dial(started % d.opts.Groups)
			if err != nil {
				// Out of ports or fds: everything still in flight counts;
				// stop starting more.
				failed = total - started
				break
			}
			_ = c
			started++
			inflight++
		}
		n, err := syscall.EpollWait(d.epfd, d.events, 1000)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return fmt.Errorf("workload: epoll_wait: %w", err)
		}
		for i := 0; i < n; i++ {
			ev := &d.events[i]
			c := d.table[int(ev.Fd)]
			if c == nil {
				continue
			}
			wasConnecting := c.state == stConnecting
			d.handleEvent(c, ev.Events)
			if wasConnecting && c.state != stConnecting {
				inflight--
				if c.state == stDead {
					failed++
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("workload: ramp stalled at %d/%d connections", d.up, total)
		}
	}

	// Barrier: the kernel completes connects long before the broker has
	// accepted the session and processed its SUBSCRIBE — measuring before
	// every ack arrives would publish into channels with no server-side
	// subscribers yet. Wait until each established connection is
	// acknowledged.
	for d.subAcks < uint64(d.up) {
		n, err := syscall.EpollWait(d.epfd, d.events, 1000)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return fmt.Errorf("workload: epoll_wait: %w", err)
		}
		for i := 0; i < n; i++ {
			ev := &d.events[i]
			if c := d.table[int(ev.Fd)]; c != nil {
				d.handleEvent(c, ev.Events)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("workload: subscribe acks stalled at %d/%d", d.subAcks, d.up)
		}
	}
	return nil
}

// handleEvent advances one connection's state machine.
func (d *connDriver) handleEvent(c *benchConn, events uint32) {
	if events&uint32(syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
		d.kill(c)
		return
	}
	if c.state == stConnecting && events&uint32(syscall.EPOLLOUT) != 0 {
		if soerr, err := syscall.GetsockoptInt(c.fd, syscall.SOL_SOCKET, syscall.SO_ERROR); err != nil || soerr != 0 {
			d.kill(c)
			return
		}
		c.state = stUp
		d.up++
		syscall.SetsockoptInt(c.fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1) //nolint:errcheck
		c.out = resp.AppendCommandStrings(c.out, "SUBSCRIBE", groupChannel(c.group))
	}
	if len(c.out) > 0 {
		d.flush(c)
		if c.state == stDead {
			return
		}
	}
	if events&uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP) != 0 {
		d.read(c)
	}
}

// read drains the socket and consumes every complete server frame.
func (d *connDriver) read(c *benchConn) {
	for {
		n, err := syscall.Read(c.fd, d.rbuf)
		if n > 0 {
			c.parser.Feed(d.rbuf[:n])
			for {
				args, perr := c.parser.Next()
				if perr != nil {
					d.kill(c)
					return
				}
				if args == nil {
					break
				}
				d.consume(c, args)
			}
			if n < len(d.rbuf) {
				return
			}
			continue
		}
		switch err {
		case syscall.EAGAIN:
			return
		case syscall.EINTR:
			continue
		default: // nil (EOF) or a hard error
			d.kill(c)
			return
		}
	}
}

// consume handles one server frame: latency-stamped deliveries feed the
// sample buffer; acks and publish replies are counted or ignored. A live
// node also pushes control envelopes (SWITCH / plan announcements) on
// subscribed channels — those are binary, never digit-led, and are counted
// apart from data deliveries.
func (d *connDriver) consume(c *benchConn, args [][]byte) {
	if len(args) == 3 && string(args[0]) == "subscribe" {
		d.subAcks++
		return
	}
	if len(args) == 3 && string(args[0]) == "message" {
		p := args[2]
		if len(p) == 0 || p[0] < '0' || p[0] > '9' {
			d.controlMsgs++
			return
		}
		d.delivered++
		stamp, err := strconv.ParseInt(string(p), 10, 64)
		if err != nil {
			d.stampErrs++
			return
		}
		if lat := time.Since(d.t0) - time.Duration(stamp); lat >= 0 {
			d.latency.Observe(lat)
		}
	}
	// Everything else: subscribe/unsubscribe acks, +OK, :N publish replies.
}

func groupChannel(g int) string { return "bench.g" + strconv.Itoa(g) }

// measure runs the steady-state window: the publisher stamps messages into
// round-robin groups at opts.PublishRate while churn cycles unsubscribe and
// resubscribe existing connections.
//
// Publishing is open-loop: the tick plan is fixed up front and each message
// is stamped with its *intended* send instant, so when the event loop (or
// the broker's backpressure) makes a send late, the lag lands in the
// delivery quantiles instead of vanishing. The previous version stamped at
// actual send time and re-based the next tick off "now" whenever it fell
// behind — the textbook coordinated-omission pattern.
func (d *connDriver) measure(window time.Duration) error {
	pub, err := d.dial(-1)
	if err != nil {
		return fmt.Errorf("workload: publisher dial: %w", err)
	}
	d.pubConn = pub

	measureStart := time.Now()
	end := measureStart.Add(window)
	pubEvery := time.Second / time.Duration(d.opts.PublishRate)
	sched := loadgen.NewSchedule(float64(d.opts.PublishRate), 0)
	var tick uint64
	nextPub := measureStart.Add(sched.At(tick))
	var nextChurn time.Time
	var churnEvery time.Duration
	if d.opts.ChurnPerSec > 0 {
		churnEvery = time.Second / time.Duration(d.opts.ChurnPerSec)
		nextChurn = time.Now()
	}
	churnCursor := 0

	for time.Now().Before(end) {
		now := time.Now()
		// Send every tick that has come due, bounded per pass so a long
		// stall drains as a short burst interleaved with epoll servicing
		// rather than one monster write. Ticks are never re-planned.
		for burst := 0; d.pubConn.state == stUp && now.After(nextPub) && burst < 64; burst++ {
			intended := nextPub
			if lag := now.Sub(intended); lag > pubEvery {
				d.behind++
			}
			stamp := strconv.FormatInt(intended.Sub(d.t0).Nanoseconds(), 10)
			d.pubConn.out = resp.AppendCommandStrings(d.pubConn.out, "PUBLISH", groupChannel(d.pubGroup%d.opts.Groups), stamp)
			d.pubGroup++
			d.published++
			d.flush(d.pubConn)
			if d.pubConn.state == stDead {
				return fmt.Errorf("workload: publisher connection died")
			}
			tick++
			nextPub = measureStart.Add(sched.At(tick))
		}
		if churnEvery > 0 && now.After(nextChurn) {
			if c := d.nextUp(&churnCursor); c != nil {
				ch := groupChannel(c.group)
				c.out = resp.AppendCommandStrings(c.out, "UNSUBSCRIBE", ch)
				c.out = resp.AppendCommandStrings(c.out, "SUBSCRIBE", ch)
				d.flush(c)
				d.churnOps++
			}
			nextChurn = nextChurn.Add(churnEvery)
			if nextChurn.Before(now) {
				nextChurn = now.Add(churnEvery)
			}
		}

		n, err := syscall.EpollWait(d.epfd, d.events, 1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return fmt.Errorf("workload: epoll_wait: %w", err)
		}
		for i := 0; i < n; i++ {
			ev := &d.events[i]
			c := d.table[int(ev.Fd)]
			if c == nil {
				continue
			}
			d.handleEvent(c, ev.Events)
		}
	}
	return nil
}

// nextUp scans for the next established connection after *cursor.
func (d *connDriver) nextUp(cursor *int) *benchConn {
	for scanned := 0; scanned < len(d.table); scanned++ {
		*cursor = (*cursor + 1) % len(d.table)
		if c := d.table[*cursor]; c != nil && c.state == stUp && c != d.pubConn {
			return c
		}
	}
	return nil
}
