// Package lla implements the Local Load Analyzer (paper §III-A): the agent
// collocated with every pub/sub server that gathers per-channel load metrics
// for every time unit and periodically ships an aggregate report to the load
// balancer.
//
// The LLA observes its broker through the broker's observer hook (the
// "subscribe to every channel" trick of the paper, without modifying the
// pub/sub server) and therefore sees every publication, subscription and
// unsubscription. For each time unit t (1 s) and channel it records the
// number of distinct publishers, publications, subscribers, messages sent
// (per-subscriber deliveries) and bytes in/out — exactly the metric set
// listed in the paper.
//
// Accumulator is the whole LLA loop as a pure core: publications,
// subscriptions and `now` go in; sealed units and Reports come out. It reads
// no clock and starts no goroutine. The live Analyzer drives it from two
// tickers and the discrete-event simulator from engine events, so M_i — the
// measured egress every rebalance decision divides by — is computed by the
// same code on the node and in the figures.
package lla

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/hotstate"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/trace"
)

// ChannelStats is one channel's load during one time unit.
type ChannelStats struct {
	Channel      string `json:"channel"`
	Publishers   int    `json:"publishers"`   // distinct publishers seen in the unit
	Publications int    `json:"publications"` // messages published on the channel
	Subscribers  int    `json:"subscribers"`  // subscriber count at unit end
	MessagesSent int    `json:"messagesSent"` // per-subscriber deliveries
	BytesIn      int64  `json:"bytesIn"`      // publication bytes received
	BytesOut     int64  `json:"bytesOut"`     // delivery bytes sent
}

// UnitStats is the complete per-channel breakdown of one time unit.
type UnitStats struct {
	// Unit is the index of the time unit since the analyzer started.
	Unit int64 `json:"unit"`
	// Channels holds stats for every channel active during the unit,
	// sorted by channel name for determinism.
	Channels []ChannelStats `json:"channels"`
	// Overflow aggregates publications on channels beyond the accumulator's
	// per-unit channel cap (IoT-style topic-per-device floods). The traffic
	// is still accounted — bytes, publications, deliveries — but without
	// per-channel identity, so the balancer sees the load even when it
	// cannot attribute it. Nil when the unit stayed under the cap.
	Overflow *ChannelStats `json:"overflow,omitempty"`
}

// Report is the aggregate update message an LLA sends to the load balancer:
// all metrics for all time units since the previous report, plus the node's
// bandwidth envelope (§III-A, last paragraph).
type Report struct {
	Server string      `json:"server"`
	Seq    uint64      `json:"seq"`
	Units  []UnitStats `json:"units"`
	// MaxOutgoingBps is the theoretical maximum outgoing bandwidth T_i of
	// the node (bytes/second).
	MaxOutgoingBps float64 `json:"maxOutgoingBps"`
	// MeasuredOutgoingBps is the measured outgoing bandwidth on the
	// network interface, averaged over the report window (M_i).
	MeasuredOutgoingBps float64 `json:"measuredOutgoingBps"`
}

// DefaultMaxOutgoingBps is T_i when none is configured: the node's
// theoretical maximum outgoing bandwidth in bytes/second, calibrated in
// DESIGN.md §4.
const DefaultMaxOutgoingBps = 1.25e6

// Marshal encodes the report for the control plane.
func (r *Report) Marshal() ([]byte, error) { return json.Marshal(r) }

// UnmarshalReport decodes a control-plane report.
func UnmarshalReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("lla: decode report: %w", err)
	}
	return &r, nil
}

// channelAccum accumulates one channel's stats inside the current unit.
type channelAccum struct {
	publishers   map[uint32]struct{}
	publications int
	messagesSent int
	bytesIn      int64
	bytesOut     int64
}

// add folds one publication into the accumulation.
func (c *channelAccum) add(publisher uint32, size, receivers int) {
	if publisher != 0 && c.publishers != nil {
		c.publishers[publisher] = struct{}{}
	}
	c.publications++
	c.messagesSent += receivers
	c.bytesIn += int64(size)
	c.bytesOut += int64(size) * int64(receivers)
}

// AccumStripes is the accumulator's stripe count (power of two). OnPublish
// locks only the stripe its channel hashes to, so the broker's concurrent
// fan-out goroutines stop serializing on one global mutex.
const AccumStripes = 32

// DefaultChannelCap bounds the distinct channels tracked per time unit (and
// the persistent subscriber-count map) when no explicit cap is given. Under
// normal workloads it is never reached; at IoT-style topic-per-device scale
// it is what keeps the accumulator O(cap) instead of O(channels).
const DefaultChannelCap = 65536

// accumStripe is one lock stripe: a share of the per-unit channel map and of
// the persistent subscriber-count map, plus the stripe-local overflow bucket
// publications fold into once the unit's channel share is full.
type accumStripe struct {
	mu          sync.Mutex
	current     map[string]*channelAccum
	subscribers map[string]int
	overflow    channelAccum // cap overflow (publishers not tracked)
	windowOut   int64        // delivery bytes since the last report (M_i's numerator)
	hits        uint64       // publishes on channels already tracked this unit
	misses      uint64       // channel-entry creations
	folds       uint64       // publications folded into overflow
	subEvicts   uint64       // subscriber-map entries displaced at cap
}

// Accumulator is the LLA core. Observer inputs (OnPublish, OnSubscribe,
// OnUnsubscribe) are safe for concurrent use — the broker invokes them from
// many goroutines — and are striped AccumStripes ways by channel hash, with
// both per-channel maps capacity-bounded. Seal and Report are driven by one
// caller with explicit times: Seal closes a time unit and queues it, Report
// drains the queue into the next aggregate report.
type Accumulator struct {
	stripes      [AccumStripes]accumStripe
	perStripeCap int // per-unit channel share per stripe (0 = unbounded)
	channelCap   int
	server       string
	maxBps       float64
	interval     time.Duration // ReportEvery: the window when none elapsed

	mu      sync.Mutex // serializes Seal and Report; guards the fields below
	unit    int64
	pending []UnitStats // sealed units not yet reported
	seq     uint64
	// windowStart is when the current report window opened: M_i divides by
	// the time that actually elapsed, not the configured interval, so a late
	// report cannot overstate the rate and mask an overload.
	windowStart time.Time
}

// NewAccumulator creates the LLA core for cfg.Server with its first report
// window opening at start. cfg.ChannelCap bounds the distinct channels
// tracked per unit and the persistent subscriber-count map; cfg.Clock and
// cfg.Unit belong to whoever calls Seal and Report, and are not read.
func NewAccumulator(cfg Config, start time.Time) *Accumulator {
	cfg.fillDefaults()
	a := &Accumulator{
		channelCap:  cfg.ChannelCap,
		server:      cfg.Server,
		maxBps:      cfg.MaxOutgoingBps,
		interval:    cfg.ReportEvery,
		windowStart: start,
	}
	if a.channelCap > 0 {
		a.perStripeCap = (a.channelCap + AccumStripes - 1) / AccumStripes
	}
	for i := range a.stripes {
		a.stripes[i].current = make(map[string]*channelAccum)
		a.stripes[i].subscribers = make(map[string]int)
	}
	return a
}

func (a *Accumulator) stripe(ch string) *accumStripe {
	return &a.stripes[hotstate.StringHash(ch)&(AccumStripes-1)]
}

// channelLocked returns the channel's accumulation, or nil when the stripe's
// share of the per-unit cap is exhausted (the caller folds into overflow).
// Caller holds st.mu.
func (a *Accumulator) channelLocked(st *accumStripe, ch string) *channelAccum {
	c := st.current[ch]
	if c != nil {
		return c
	}
	if a.perStripeCap > 0 && len(st.current) >= a.perStripeCap {
		return nil
	}
	c = &channelAccum{publishers: make(map[uint32]struct{})}
	st.current[ch] = c
	st.misses++
	return c
}

// OnPublish records one publication. publisher is the originating node ID
// extracted from the envelope (0 if unknown), size the payload bytes,
// receivers the fan-out count.
func (a *Accumulator) OnPublish(ch string, publisher uint32, size, receivers int) {
	st := a.stripe(ch)
	st.mu.Lock()
	st.windowOut += int64(size) * int64(receivers)
	if c := st.current[ch]; c != nil {
		st.hits++
		c.add(publisher, size, receivers)
	} else if c := a.channelLocked(st, ch); c != nil {
		c.add(publisher, size, receivers)
	} else {
		st.folds++
		st.overflow.add(0, size, receivers)
	}
	st.mu.Unlock()
}

// OnSubscribe records a subscription; count is the channel's subscriber
// count after the operation (as reported by the broker). At the cap, a new
// channel displaces an arbitrary tracked one: the broker re-reports counts
// on every subscribe/unsubscribe, so displaced channels self-heal on their
// next subscription event.
func (a *Accumulator) OnSubscribe(ch string, count int) {
	st := a.stripe(ch)
	st.mu.Lock()
	if _, ok := st.subscribers[ch]; !ok && a.perStripeCap > 0 && len(st.subscribers) >= a.perStripeCap {
		for victim := range st.subscribers {
			delete(st.subscribers, victim)
			st.subEvicts++
			break
		}
	}
	st.subscribers[ch] = count
	a.channelLocked(st, ch) // make the channel visible even before traffic flows
	st.mu.Unlock()
}

// OnUnsubscribe records an unsubscription.
func (a *Accumulator) OnUnsubscribe(ch string, count int) {
	st := a.stripe(ch)
	st.mu.Lock()
	if count <= 0 {
		delete(st.subscribers, ch)
	} else {
		st.subscribers[ch] = count
	}
	st.mu.Unlock()
}

// Seal closes the current time unit, queues it for the next report and
// returns it, merging all stripes. Channels with no activity and no
// subscribers are omitted.
func (a *Accumulator) Seal() UnitStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	u := UnitStats{Unit: a.unit}
	a.unit++

	// Drain every stripe under its own lock; channels are hash-partitioned
	// so the per-stripe maps never overlap and merging is concatenation.
	current := make(map[string]*channelAccum)
	subs := make(map[string]int)
	var overflow channelAccum
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		cur := st.current
		st.current = make(map[string]*channelAccum, len(cur))
		overflow.publications += st.overflow.publications
		overflow.messagesSent += st.overflow.messagesSent
		overflow.bytesIn += st.overflow.bytesIn
		overflow.bytesOut += st.overflow.bytesOut
		st.overflow = channelAccum{}
		for ch, n := range st.subscribers {
			subs[ch] = n
		}
		st.mu.Unlock()
		for ch, c := range cur {
			current[ch] = c
		}
	}

	names := make([]string, 0, len(current)+len(subs))
	seen := make(map[string]struct{}, len(current)+len(subs))
	for ch := range current {
		names = append(names, ch)
		seen[ch] = struct{}{}
	}
	for ch := range subs {
		if _, dup := seen[ch]; !dup {
			names = append(names, ch)
		}
	}
	sort.Strings(names)
	for _, ch := range names {
		c := current[ch]
		nsubs := subs[ch]
		if c == nil {
			if nsubs == 0 {
				continue
			}
			u.Channels = append(u.Channels, ChannelStats{Channel: ch, Subscribers: nsubs})
			continue
		}
		u.Channels = append(u.Channels, ChannelStats{
			Channel:      ch,
			Publishers:   len(c.publishers),
			Publications: c.publications,
			Subscribers:  nsubs,
			MessagesSent: c.messagesSent,
			BytesIn:      c.bytesIn,
			BytesOut:     c.bytesOut,
		})
	}
	if overflow.publications > 0 {
		u.Overflow = &ChannelStats{
			Channel:      "+overflow",
			Publications: overflow.publications,
			MessagesSent: overflow.messagesSent,
			BytesIn:      overflow.bytesIn,
			BytesOut:     overflow.bytesOut,
		}
	}
	a.pending = append(a.pending, u)
	return u
}

// Report drains the queued units into the next aggregate report. M_i is the
// window's delivery bytes over the time since the previous report (since
// start for the first), or over the configured interval when none elapsed.
func (a *Accumulator) Report(now time.Time) *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	var bytes int64
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		bytes += st.windowOut
		st.windowOut = 0
		st.mu.Unlock()
	}
	window := now.Sub(a.windowStart).Seconds()
	if window <= 0 {
		window = a.interval.Seconds()
	}
	a.windowStart = now
	a.seq++
	r := &Report{
		Server:              a.server,
		Seq:                 a.seq,
		Units:               a.pending,
		MaxOutgoingBps:      a.maxBps,
		MeasuredOutgoingBps: float64(bytes) / window,
	}
	a.pending = nil
	return r
}

// ReportsBuilt returns how many reports the core has built so far.
// Exported as a counter so harnesses can poll "one full LLA cycle has
// elapsed" off /metrics instead of sleeping a guessed interval.
func (a *Accumulator) ReportsBuilt() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// Subscribers returns the live subscriber count for a channel.
func (a *Accumulator) Subscribers(ch string) int {
	st := a.stripe(ch)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.subscribers[ch]
}

// UnitCacheStats snapshots the per-unit channel map's bounded-cache counters
// (Evictions = publications folded into the overflow bucket).
func (a *Accumulator) UnitCacheStats() hotstate.Stats {
	s := hotstate.Stats{Capacity: a.channelCap}
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		s.Size += len(st.current)
		s.Hits += st.hits
		s.Misses += st.misses
		s.Evictions += st.folds
		st.mu.Unlock()
	}
	return s
}

// SubscriberCacheStats snapshots the subscriber-count map's bounded-cache
// counters (Evictions = entries displaced at the cap).
func (a *Accumulator) SubscriberCacheStats() hotstate.Stats {
	s := hotstate.Stats{Capacity: a.channelCap}
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		s.Size += len(st.subscribers)
		s.Evictions += st.subEvicts
		st.mu.Unlock()
	}
	return s
}

// Config configures an Analyzer and its core.
type Config struct {
	// Server is the pub/sub server (node) this LLA monitors.
	Server string
	// MaxOutgoingBps is the node's theoretical max outgoing bandwidth T_i
	// (default DefaultMaxOutgoingBps).
	MaxOutgoingBps float64
	// Unit is the metric time unit (default 1 s, as in the paper).
	Unit time.Duration
	// ReportEvery is the aggregate-update interval (default 3 units).
	ReportEvery time.Duration
	// ChannelCap bounds the distinct channels the accumulator tracks per
	// time unit (and the persistent subscriber-count map). 0 means
	// DefaultChannelCap; negative means unbounded.
	ChannelCap int
	// Clock provides time (default: real clock).
	Clock clock.Clock
	// Logger receives structured LLA logs (one debug line per emitted
	// report). Nil discards.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.Unit <= 0 {
		c.Unit = time.Second
	}
	if c.ReportEvery <= 0 {
		c.ReportEvery = 3 * c.Unit
	}
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.MaxOutgoingBps <= 0 {
		c.MaxOutgoingBps = DefaultMaxOutgoingBps
	}
	if c.ChannelCap == 0 {
		c.ChannelCap = DefaultChannelCap
	} else if c.ChannelCap < 0 {
		c.ChannelCap = 0 // unbounded
	}
}

// Analyzer is the live LLA: a broker observer feeding the core, and two
// tickers driving it. It owns no report state of its own.
type Analyzer struct {
	cfg   Config
	accum *Accumulator
	log   *slog.Logger

	start    sync.Once // the loop starts, or Stop rules out that it ever will
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

var _ broker.Observer = (*Analyzer)(nil)

// NewAnalyzer creates an LLA for a node. Attach it with
// broker.AddObserver(analyzer), then Start it.
func NewAnalyzer(cfg Config) *Analyzer {
	cfg.fillDefaults()
	return &Analyzer{
		cfg:   cfg,
		accum: NewAccumulator(cfg, cfg.Clock.Now()),
		log:   trace.Component(cfg.Logger, "lla"),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// OnPublish implements broker.Observer. The publisher identity is recovered
// from the Dynamoth envelope header when the payload is one (PeekNode, not
// Unmarshal: this runs on the broker's fan-out path for every publication
// and must not allocate).
func (an *Analyzer) OnPublish(ch string, payload []byte, receivers int) {
	publisher, _ := message.PeekNode(payload)
	an.accum.OnPublish(ch, publisher, len(payload), receivers)
}

// Accumulator exposes the analyzer's core (for cache-stat and report-count
// scraping by the node's /metrics registry).
func (an *Analyzer) Accumulator() *Accumulator { return an.accum }

// OnSubscribe implements broker.Observer.
func (an *Analyzer) OnSubscribe(ch, _ string, subscribers int) {
	an.accum.OnSubscribe(ch, subscribers)
}

// OnUnsubscribe implements broker.Observer.
func (an *Analyzer) OnUnsubscribe(ch, _ string, subscribers int) {
	an.accum.OnUnsubscribe(ch, subscribers)
}

// Start arms the unit and report tickers and launches the loop that drives
// the core; sink receives every report, on the loop's goroutine. The tickers
// are armed before Start returns, so virtual-clock tests can advance time
// right away. Call Stop to end the loop.
func (an *Analyzer) Start(sink func(*Report)) {
	an.start.Do(func() {
		unit := an.cfg.Clock.NewTicker(an.cfg.Unit)
		report := an.cfg.Clock.NewTicker(an.cfg.ReportEvery)
		go an.run(unit, report, sink)
	})
}

// Stop ends the loop; no report reaches the sink after it returns. It is
// idempotent, and on an analyzer that was never started it only makes a
// later Start a no-op.
func (an *Analyzer) Stop() {
	an.start.Do(func() { close(an.done) })
	an.stopOnce.Do(func() { close(an.stop) })
	<-an.done
}

func (an *Analyzer) run(unit, report clock.Ticker, sink func(*Report)) {
	defer close(an.done)
	defer unit.Stop()
	defer report.Stop()
	for {
		select {
		case <-unit.C():
			an.accum.Seal()
		case <-report.C():
			r := an.accum.Report(an.cfg.Clock.Now())
			an.log.Debug("load report",
				slog.String("server", r.Server),
				slog.Uint64("seq", r.Seq),
				slog.Int("units", len(r.Units)),
				slog.Float64("measuredBps", r.MeasuredOutgoingBps),
				slog.Float64("maxBps", r.MaxOutgoingBps))
			sink(r)
		case <-an.stop:
			return
		}
	}
}
