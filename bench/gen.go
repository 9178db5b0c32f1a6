package main

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/loadgen"
	"github.com/dynamoth/dynamoth/internal/resp"
)

// The generator: one sender goroutine publishes through the real client
// library, receivers (one parked drain goroutine per client subscription,
// plus the single raw-socket receiver) verify every delivery against
// per-channel sequence numbers carried in the payload and record latency
// from the message's *intended* send instant.
//
// Payload: loadgen.AppendStamp's "<intended> <actual> " followed by
// "<phase> <channel> <seq> " and 'x' padding to the workload's size. The
// phase tag lets a receiver attribute a delivery to the phase that sent it
// without any cross-goroutine hand-off at phase boundaries.

type phaseID int

const (
	phWarm   phaseID = iota // closed-loop warm-up after set-up, unmeasured
	phSettle                // short open-loop run-in at cruise rate, unmeasured
	phCruise
	phSat
	phRamp
	numPhases
)

const (
	cruiseWindow = time.Second            // latency_p99 window
	rampWidth    = 250 * time.Millisecond // ramp evaluation window
	sloLimit     = 10 * time.Millisecond  // intended-time p99 limit on the ramp
	rampGrace    = sloLimit + 5*time.Millisecond
	maxBurst     = 64 // sends per sender wake-up
	latUnit      = 16 // latency samples are stored in 16 ns units
	// behindLimit is how late a send may leave before it counts as behind
	// schedule.
	behindLimit = 5 * time.Millisecond
	spanSample  = 8 // traced runs record every 8th burst / receiver wake
)

type phaseCounters struct {
	sent      atomic.Uint64 // publishes issued
	pubErrs   atomic.Uint64
	expected  atomic.Int64  // deliveries those publishes must produce
	delivered atomic.Int64  // verified deliveries
	reordered atomic.Uint64 // duplicate or out-of-order deliveries
}

// stream is one (subscriber, channel) delivery sequence; it is only ever
// touched by the goroutine that receives that subscriber's frames.
type stream struct{ next uint64 }

// latWindows holds the cruise phase's latency samples, one bucket per
// cruiseWindow of intended time.
type latWindows struct {
	start time.Duration
	win   []latWindow
}

type latWindow struct {
	mu      sync.Mutex
	samples []uint32
}

func (l *latWindows) add(intended, lat time.Duration) {
	i := int((intended - l.start) / cruiseWindow)
	if i < 0 || i >= len(l.win) {
		return
	}
	u := lat / latUnit
	if lat < 0 {
		u = 0
	} else if u > math.MaxUint32 {
		u = math.MaxUint32
	}
	w := &l.win[i]
	w.mu.Lock()
	w.samples = append(w.samples, uint32(u))
	w.mu.Unlock()
}

// rampCounts counts the running ramp's deliveries per rampWidth window of
// intended time, and how many of them were slower than the SLO.
type rampCounts struct {
	start time.Duration
	win   []rampCount
}

type rampCount struct {
	delivered atomic.Uint64
	slow      atomic.Uint64
}

// at returns the window holding the instant a message was due, nil outside
// the ramp.
func (r *rampCounts) at(intended time.Duration) *rampCount {
	off := intended - r.start
	if i := int(off / rampWidth); off >= 0 && i < len(r.win) {
		return &r.win[i]
	}
	return nil
}

type gen struct {
	w     workload
	epoch time.Time
	node  *nodeProc
	// tr is set once, before spans are switched on; tracing switches the
	// sender's spans (sender goroutine only), mux.timing the receiver's.
	tr      *tracer
	tracing bool

	pub     *dynamoth.Client
	subs    []*dynamoth.Client // subscriber clients; channel ch is held by subs[ch%len(subs)]
	mux     *rawMux
	rawSubs []*rawConn
	patConn *rawConn
	churn   *rawConn

	names  []string
	expect []uint8
	pick   chooser
	rnd    rng
	seq    []uint64 // sender side: next sequence number per channel
	arena  []byte   // payload scratch for one burst
	cmdBuf []byte   // churn command scratch

	phases   [numPhases]phaseCounters
	badStamp atomic.Uint64 // unparsable or wrong-channel payloads

	clientStreams []stream
	rawStreams    [][]stream // [subscriber][channel]
	patStreams    [][]stream // [pattern][channel]
	drains        sync.WaitGroup

	lat atomic.Pointer[latWindows]

	rampWin atomic.Pointer[rampCounts] // nil outside the ramp

	// Closed-loop hand-off: the sender parks on wake when the in-flight
	// window is full; a receiver signals once it has drained to low water.
	waiting  atomic.Bool
	lowWater atomic.Int64
	curPhase atomic.Int32
	wake     chan struct{}

	churnRnd   rng
	nextChurn  time.Duration
	churnPairs uint64

	lags     []uint32 // cruise send lag, latUnit units
	behind   uint64
	burstNo  uint64
	recvWake uint64
}

func (g *gen) since() time.Duration { return time.Since(g.epoch) }

// sleepFor blocks the sender for d. time.Sleep rounds sub-millisecond waits
// up to a millisecond when the process is otherwise idle (the runtime parks
// in epoll_wait, which takes milliseconds), so the pacing sleep is a direct
// nanosleep.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early EINTR return just re-enters the pacing loop
}

// appendPayload builds one stamped, sequence-tagged payload of exactly size
// bytes (the tags alone when size is too small to hold them).
func appendPayload(dst []byte, intended, actual time.Duration, ph phaseID, ch int, seq uint64, size int) []byte {
	start := len(dst)
	dst = loadgen.AppendStamp(dst, intended, actual, 0)
	dst = strconv.AppendUint(dst, uint64(ph), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(ch), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ' ')
	for len(dst)-start < size {
		dst = append(dst, 'x')
	}
	return dst
}

// parsePayload reads a payload's tags back. ok is false for anything this
// benchmark did not write.
func parsePayload(p []byte) (intended time.Duration, ph phaseID, ch int, seq uint64, ok bool) {
	var f [5]uint64
	for i := range f {
		j := 0
		for j < len(p) && p[j] >= '0' && p[j] <= '9' {
			f[i] = f[i]*10 + uint64(p[j]-'0')
			j++
		}
		if j == 0 || j >= len(p) || p[j] != ' ' {
			return 0, 0, 0, 0, false
		}
		p = p[j+1:]
	}
	if f[2] >= uint64(numPhases) {
		return 0, 0, 0, 0, false
	}
	return time.Duration(f[0]), phaseID(f[2]), int(f[3]), f[4], true
}

// onDelivery verifies one delivery and books it to the phase that sent it.
// st is the (subscriber, channel) stream the frame arrived on; sample says
// whether this subscriber's latencies feed the cruise quantiles.
func (g *gen) onDelivery(st *stream, ch int, payload []byte, sample bool) {
	intended, ph, pch, seq, ok := parsePayload(payload)
	if !ok || pch != ch {
		g.badStamp.Add(1)
		return
	}
	pc := &g.phases[ph]
	switch {
	case seq == st.next:
		st.next++
	case seq > st.next:
		// A gap: the skipped deliveries show up as expected-but-missing
		// when the phase's books are closed.
		st.next = seq + 1
	default:
		pc.reordered.Add(1)
		return
	}
	delivered := pc.delivered.Add(1)
	switch ph {
	case phCruise:
		if sample {
			if l := g.lat.Load(); l != nil {
				l.add(intended, g.since()-intended)
			}
		}
	case phRamp:
		if w := g.rampWin.Load(); w != nil {
			if c := w.at(intended); c != nil {
				c.delivered.Add(1)
				if g.since()-intended > sloLimit {
					c.slow.Add(1)
				}
			}
		}
	}
	if g.waiting.Load() && phaseID(g.curPhase.Load()) == ph &&
		pc.expected.Load()-delivered <= g.lowWater.Load() {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// handleRaw is the raw receiver's frame handler.
func (g *gen) handleRaw(c *rawConn, args [][]byte) {
	switch {
	case len(args) == 3 && string(args[0]) == "message":
		if c.kind != rawSub {
			return // deliveries that race a churn subscription are not part of the books
		}
		ch := chanIndex(args[1])
		if ch < 0 || ch >= g.w.Channels {
			g.badStamp.Add(1)
			return
		}
		g.onDelivery(&g.rawStreams[c.idx][ch], ch, g.appPayload(args[2]), g.w.ClientSubs == 0)
	case len(args) == 4 && string(args[0]) == "pmessage":
		ch := chanIndex(args[2])
		p := g.patternIndex(args[1])
		if c.kind != rawPattern || ch < 0 || ch >= g.w.Channels || p < 0 {
			g.badStamp.Add(1)
			return
		}
		g.onDelivery(&g.patStreams[p][ch], ch, g.appPayload(args[3]), false)
	case len(args) == 3:
		switch string(args[0]) {
		case "subscribe", "unsubscribe", "psubscribe":
			c.acks.Add(1)
		}
	}
}

// appPayload strips the client library's envelope off a raw frame: the
// application payload is the envelope's fixed-size tail.
func (g *gen) appPayload(frame []byte) []byte {
	if len(frame) < g.w.Payload {
		return nil
	}
	return frame[len(frame)-g.w.Payload:]
}

func (g *gen) patternIndex(p []byte) int {
	for i, pat := range g.w.Patterns {
		if string(p) == pat {
			return i
		}
	}
	return -1
}

// setup boots a node, connects everything the workload needs and waits
// until the node has registered every subscription: everything before the
// first message. Its wall time is one setup_s reading.
func setup(w workload, nodeBin string, seed int64) (g *gen, took time.Duration, err error) {
	t0 := time.Now()
	node, err := startNode(nodeBin)
	if err != nil {
		return nil, 0, err
	}
	g = &gen{
		w:      w,
		epoch:  time.Now(),
		node:   node,
		names:  make([]string, w.Channels),
		expect: w.expectTable(),
		pick:   newChooser(w.Channels, w.Zipf),
		rnd:    rng{s: uint64(seed)},
		seq:    make([]uint64, w.Channels),
		arena:  make([]byte, 0, maxBurst*(w.Payload+64)),
		wake:   make(chan struct{}, 1),
		// The churn schedule has its own stream so the channel sequence does
		// not depend on how sends and churn ops interleave.
		churnRnd: rng{s: uint64(seed) ^ 0x5bd1e995},
	}
	defer func() {
		if err != nil {
			g.close()
			g = nil
		}
	}()
	for i := range g.names {
		g.names[i] = chanName(i)
	}
	cfg := dynamoth.Config{
		Addrs:           map[string]string{"bench": node.RespAddr},
		SubscribeBuffer: 1024,
	}
	cfg.NodeID = 1001
	if g.pub, err = dynamoth.Connect(cfg); err != nil {
		return g, 0, fmt.Errorf("publisher connect: %w", err)
	}
	wantChannels := 1 // the publisher's inbox
	if w.ClientSubs > 0 {
		for i := 0; i < w.SubClients; i++ {
			cfg.NodeID = uint32(1002 + i)
			sub, err := dynamoth.Connect(cfg)
			if err != nil {
				return g, 0, fmt.Errorf("subscriber connect: %w", err)
			}
			g.subs = append(g.subs, sub)
		}
		g.clientStreams = make([]stream, w.ClientSubs)
		for ch := 0; ch < w.ClientSubs; ch++ {
			msgs, err := g.subs[ch%len(g.subs)].Subscribe(g.names[ch])
			if err != nil {
				return g, 0, fmt.Errorf("subscribe %s: %w", g.names[ch], err)
			}
			g.drains.Add(1)
			go func(ch int, msgs <-chan dynamoth.Message) {
				defer g.drains.Done()
				st := &g.clientStreams[ch]
				for m := range msgs {
					g.onDelivery(st, ch, m.Payload, true)
				}
			}(ch, msgs)
		}
		wantChannels += w.SubClients + w.ClientSubs
	}
	if err := g.dialRaw(); err != nil {
		return g, 0, err
	}
	if w.RawSubs > 0 {
		wantChannels += w.Channels
	}
	err = awaitMetric(node.AdminAddr, "dynamoth_broker_channels", 10*time.Second,
		func(v float64) bool { return int(v) >= wantChannels })
	if err != nil {
		return g, 0, err
	}
	return g, time.Since(t0), nil
}

// warmUp carries a fixed number of messages in closed loop, so that caches
// are full and lazy initialisation is done before anything is measured.
func (g *gen) warmUp() error {
	if err := g.closedLoop(phWarm, uint64(g.w.WarmupMsgs), 0); err != nil {
		return err
	}
	if missing := g.drainPhase(phWarm, 5*time.Second); missing != 0 {
		return fmt.Errorf("warm-up: %d deliveries missing (%s)", missing, g.lossReport())
	}
	return nil
}

// dialRaw opens the workload's raw connections, subscribes them, starts the
// receiver and waits for every subscription ack.
func (g *gen) dialRaw() error {
	w := g.w
	if w.RawSubs == 0 && len(w.Patterns) == 0 && w.ChurnPerSec == 0 {
		return nil
	}
	mux, err := newRawMux(g.handleRaw, g.since)
	if err != nil {
		return err
	}
	g.mux = mux
	mux.onWake = g.traceWake
	var cmd []byte
	for i := 0; i < w.RawSubs; i++ {
		c, err := mux.dial(g.node.RespAddr, rawSub, i)
		if err != nil {
			return err
		}
		g.rawSubs = append(g.rawSubs, c)
		g.rawStreams = append(g.rawStreams, make([]stream, w.Channels))
		cmd = resp.AppendCommandStrings(cmd[:0], "SUBSCRIBE", g.names...)
		if err := c.send(cmd); err != nil {
			return err
		}
	}
	if len(w.Patterns) > 0 {
		if g.patConn, err = mux.dial(g.node.RespAddr, rawPattern, 0); err != nil {
			return err
		}
		for range w.Patterns {
			g.patStreams = append(g.patStreams, make([]stream, w.Channels))
		}
		cmd = resp.AppendCommandStrings(cmd[:0], "PSUBSCRIBE", w.Patterns...)
		if err := g.patConn.send(cmd); err != nil {
			return err
		}
	}
	if w.ChurnPerSec > 0 {
		if g.churn, err = mux.dial(g.node.RespAddr, rawChurn, 0); err != nil {
			return err
		}
	}
	mux.start()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := g.patConn == nil || g.patConn.acks.Load() >= uint64(len(w.Patterns))
		for _, c := range g.rawSubs {
			ready = ready && c.acks.Load() >= uint64(w.Channels)
		}
		if ready {
			return nil
		}
		if err := mux.err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("raw subscription acks did not arrive")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close tears the generator down: clients, raw sockets, then the node. It
// returns once every goroutine and the subprocess have ended.
func (g *gen) close() {
	if g.pub != nil {
		g.pub.Close() //nolint:errcheck // teardown
	}
	for _, sub := range g.subs {
		sub.Close() //nolint:errcheck // teardown
	}
	g.drains.Wait()
	if g.mux != nil {
		g.mux.close()
	}
	g.node.Stop()
}

// sendBurst stamps and publishes n messages. The payloads are built first
// and published second so a traced run can time the two layers as two
// spans per burst instead of two clock reads per message.
func (g *gen) sendBurst(ph phaseID, intended []time.Duration, recordLag bool) {
	pc := &g.phases[ph]
	t0 := g.since()
	arena := g.arena[:0]
	var chans [maxBurst]int
	var ends [maxBurst]int
	now := t0
	for i, at := range intended {
		ch := g.pick.draw(&g.rnd)
		chans[i] = ch
		arena = appendPayload(arena, at, now, ph, ch, g.seq[ch], g.w.Payload)
		ends[i] = len(arena)
		g.seq[ch]++
		pc.expected.Add(int64(g.expect[ch]))
		if recordLag {
			lag := now - at
			if lag > behindLimit {
				g.behind++
			}
			if lag < 0 {
				lag = 0
			}
			g.lags = append(g.lags, uint32(min(lag/latUnit, math.MaxUint32)))
		}
		now = g.since()
	}
	t1 := now
	begin := 0
	for i := range intended {
		if err := g.pub.Publish(g.names[chans[i]], arena[begin:ends[i]]); err != nil {
			pc.pubErrs.Add(1)
			pc.expected.Add(-int64(g.expect[chans[i]]))
		}
		begin = ends[i]
	}
	pc.sent.Add(uint64(len(intended)))
	g.arena = arena
	if g.tracing {
		g.burstNo++
		if g.burstNo%spanSample == 0 {
			t2 := g.since()
			n := len(intended)
			parent := g.tr.add("gen.send_burst", "loadgen", -1, t0, t2, n)
			g.tr.add("loadgen.stamp", "loadgen", parent, t0, t1, n)
			g.tr.add("client.publish", "client", parent, t1, t2, n)
		}
	}
}

// openLoop publishes on a fixed schedule: tick i is due at start+at(i) and
// is stamped with that instant whether or not the sender is on time.
// onWake, when set, runs at every sender wake-up and stops the loop by
// returning true.
func (g *gen) openLoop(ph phaseID, at func(i uint64) time.Duration, horizon time.Duration, recordLag bool, onWake func(now time.Duration) bool) {
	g.curPhase.Store(int32(ph))
	start := g.since()
	var due [maxBurst]time.Duration
	next := at(0)
	for i := uint64(0); next < horizon; {
		now := g.since()
		if wait := start + next - now; wait > 0 {
			sleepFor(wait)
			now = g.since()
		}
		g.churnDue(now)
		if onWake != nil && onWake(now) {
			return
		}
		n := 0
		for n < maxBurst && next < horizon && start+next <= now {
			due[n] = start + next
			n++
			i++
			next = at(i)
		}
		if n > 0 {
			g.sendBurst(ph, due[:n], recordLag)
		}
	}
}

// closedLoop publishes with a bounded number of publications in flight: n
// messages, or until dur has passed when n is 0.
func (g *gen) closedLoop(ph phaseID, n uint64, dur time.Duration) error {
	g.curPhase.Store(int32(ph))
	pc := &g.phases[ph]
	fan := int64(max(1, g.w.RawSubs))
	limit := int64(g.w.InFlight) * fan
	g.lowWater.Store(limit / 2)
	start := g.since()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due [maxBurst]time.Duration
	lastProgress, lastDelivered := start, pc.delivered.Load()
	for sent := uint64(0); n == 0 || sent < n; {
		now := g.since()
		if n == 0 && now-start >= dur {
			break
		}
		if d := pc.delivered.Load(); d != lastDelivered {
			lastProgress, lastDelivered = now, d
		} else if now-lastProgress > 10*time.Second {
			return fmt.Errorf("closed loop stalled in %v: %d deliveries outstanding (%s)", ph, pc.expected.Load()-d, g.lossReport())
		}
		g.churnDue(now)
		room := (limit - (pc.expected.Load() - pc.delivered.Load())) / fan
		if room <= 0 {
			// Park until a receiver reports low water; the timeout keeps
			// churn ticking and notices a dead node.
			g.waiting.Store(true)
			if pc.expected.Load()-pc.delivered.Load() >= limit {
				timer.Reset(time.Millisecond)
				select {
				case <-g.wake:
				case <-timer.C:
				}
			}
			g.waiting.Store(false)
			if !g.node.Alive() {
				return fmt.Errorf("node exited during %v", ph)
			}
			continue
		}
		burst := min(room, maxBurst)
		if n > 0 {
			burst = min(burst, int64(n-sent))
		}
		for i := range due[:burst] {
			due[i] = now
		}
		g.sendBurst(ph, due[:burst], false)
		sent += uint64(burst)
	}
	return nil
}

// churnDue issues every SUBSCRIBE+UNSUBSCRIBE pair whose (Poisson) instant
// has passed, a few per call so a stall drains as a trickle.
func (g *gen) churnDue(now time.Duration) {
	if g.churn == nil || now < g.nextChurn {
		return
	}
	g.cmdBuf = g.cmdBuf[:0]
	for n := 0; n < 8 && g.nextChurn <= now; n++ {
		name := g.names[g.churnRnd.next()%uint64(len(g.names))]
		g.cmdBuf = resp.AppendCommandStrings(g.cmdBuf, "SUBSCRIBE", name)
		g.cmdBuf = resp.AppendCommandStrings(g.cmdBuf, "UNSUBSCRIBE", name)
		g.churnPairs++
		gap := -math.Log(1-g.churnRnd.float()) / float64(g.w.ChurnPerSec)
		g.nextChurn += time.Duration(gap * float64(time.Second))
	}
	if g.nextChurn < now-10*time.Millisecond {
		g.nextChurn = now // never replay a long stall as a burst of churn
	}
	if err := g.churn.send(g.cmdBuf); err != nil {
		g.mux.fail(fmt.Errorf("churn write: %w", err))
	}
}

// drainPhase waits until every delivery the phase owes has arrived, or
// timeout, and returns how many are still missing.
func (g *gen) drainPhase(ph phaseID, timeout time.Duration) int64 {
	pc := &g.phases[ph]
	deadline := time.Now().Add(timeout)
	for {
		missing := pc.expected.Load() - pc.delivered.Load()
		if missing <= 0 || time.Now().After(deadline) || !g.node.Alive() {
			return missing
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// lossReport says where missing deliveries went, as far as the counters on
// both sides can tell: the node disconnecting a slow consumer, or the client
// library dropping on a full subscription buffer.
func (g *gen) lossReport() string {
	fams, _ := scrapeFamilies(g.node.AdminAddr, "dynamoth_broker_")
	out := fmt.Sprintf("node dropped_total=%v conn_backpressure_total=%v",
		fams["dynamoth_broker_dropped_total"], fams["dynamoth_broker_conn_backpressure_total"])
	for i, sub := range g.subs {
		st := sub.Stats()
		out += fmt.Sprintf("; subscriber client %d dropped=%d redials=%d replayed=%d", i, st.Dropped, st.Redials, st.ReplayedFrames)
	}
	return out
}

func (p phaseID) String() string {
	return [...]string{"warm-up", "settle", "cruise", "sat", "ramp"}[p]
}
