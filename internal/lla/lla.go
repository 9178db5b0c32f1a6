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
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// DefaultReportEvery is the LLA's report interval when none is configured.
// The failure detector's default staleness threshold is four of them.
const DefaultReportEvery = 3 * time.Second

// Marshal encodes the report for the control plane.
func (r *Report) Marshal() ([]byte, error) { return json.Marshal(r) }

// UnmarshalReport decodes a control-plane report. Any RESP client can
// publish on the report channel, so it rejects a report that names no server
// or carries a negative count, byte total or bandwidth, or a load ratio too
// large to represent: each would reach the balancer's ratios unchecked.
func UnmarshalReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("lla: decode report: %w", err)
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("lla: bad report: %w", err)
	}
	return &r, nil
}

func (r *Report) validate() error {
	switch {
	case r.Server == "":
		return errors.New("no server")
	case r.MaxOutgoingBps < 0 || r.MeasuredOutgoingBps < 0:
		return errors.New("negative bandwidth")
	case r.MaxOutgoingBps > 0 && math.IsInf(r.MeasuredOutgoingBps/r.MaxOutgoingBps, 0):
		return errors.New("load ratio out of range")
	}
	for _, u := range r.Units {
		for i := range u.Channels {
			if u.Channels[i].negative() {
				return fmt.Errorf("negative count on channel %q", u.Channels[i].Channel)
			}
		}
		if u.Overflow != nil && u.Overflow.negative() {
			return errors.New("negative count in overflow")
		}
	}
	return nil
}

func (c *ChannelStats) negative() bool {
	return c.Publishers < 0 || c.Publications < 0 || c.Subscribers < 0 ||
		c.MessagesSent < 0 || c.BytesIn < 0 || c.BytesOut < 0
}

// channelAccum is one channel's record in the accumulator: its subscriber
// count and its counters for the current unit, which Seal reads and resets in
// place. It lives while the channel is subscribed or was active in the last
// unit; the stripe whose lock guards it is st, so a holder of the pointer (a
// broker channel record's slot) reaches it without hashing the name.
type channelAccum struct {
	st           *accumStripe
	gone         bool // dropped from st.chans; a holder resolves the name again
	touched      bool // published or subscribed to this unit
	subscribers  int
	first        uint32              // the unit's first publisher
	more         map[uint32]struct{} // its others: made once, cleared per unit
	publications int
	messagesSent int
	bytesIn      int64
	bytesOut     int64
}

// add folds one publication into the accumulation.
func (c *channelAccum) add(publisher uint32, size, receivers int) {
	c.touched = true
	switch {
	case publisher == 0 || publisher == c.first:
	case c.first == 0:
		c.first = publisher
	default:
		if c.more == nil {
			c.more = make(map[uint32]struct{})
		}
		c.more[publisher] = struct{}{}
	}
	c.publications++
	c.messagesSent += receivers
	c.bytesIn += int64(size)
	c.bytesOut += int64(size) * int64(receivers)
}

// fold moves c's unit counters into o (the overflow bucket) and zeroes them.
func (c *channelAccum) fold(o *channelAccum) {
	o.publications += c.publications
	o.messagesSent += c.messagesSent
	o.bytesIn += c.bytesIn
	o.bytesOut += c.bytesOut
	c.reset()
}

// reset opens a new unit on c.
func (c *channelAccum) reset() {
	c.touched, c.first = false, 0
	clear(c.more)
	c.publications, c.messagesSent, c.bytesIn, c.bytesOut = 0, 0, 0, 0
}

// AccumStripes is the accumulator's stripe count (power of two). OnPublish
// locks only the stripe its channel hashes to, so the broker's concurrent
// fan-out goroutines stop serializing on one global mutex.
const AccumStripes = 32

// DefaultChannelCap bounds the channels tracked when no explicit cap is
// given. Under normal workloads it is never reached; at IoT-style
// topic-per-device scale it is what keeps the accumulator O(cap) instead of
// O(channels). The node sets it to its channel-record table's bound.
const DefaultChannelCap = 65536

// accumStripe is one lock stripe: a share of the channel records, plus the
// stripe-local overflow bucket publications fold into once that share is
// full.
type accumStripe struct {
	mu        sync.Mutex
	chans     map[string]*channelAccum
	overflow  channelAccum // cap overflow (publishers not tracked)
	windowOut int64        // delivery bytes since the last report (M_i's numerator)
	hits      uint64       // publishes on channels already tracked
	misses    uint64       // channel-record creations
	folds     uint64       // publications folded into overflow
	subEvicts uint64       // records displaced at cap by a subscription
}

// Accumulator is the LLA core. Observer inputs (OnPublish, OnSubscribe,
// OnUnsubscribe) are safe for concurrent use — the broker invokes them from
// many goroutines — and are striped AccumStripes ways by channel hash, with
// the channel records capacity-bounded; a kept record pointer skips the hash
// (Analyzer.OnPublishSlot). Seal and Report are driven by one caller with
// explicit times: Seal closes a time unit and queues it, Report drains the
// queue into the next aggregate report.
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
// window opening at start. cfg.ChannelCap bounds the channels tracked;
// cfg.Clock and cfg.Unit belong to whoever calls Seal and Report, and are not
// read.
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
		a.stripes[i].chans = make(map[string]*channelAccum)
	}
	return a
}

func (a *Accumulator) stripe(ch string) *accumStripe {
	return &a.stripes[hotstate.StringHash(ch)&(AccumStripes-1)]
}

// channelLocked returns ch's record, reviving prev (a record dropped from
// this stripe) or creating one when there is none, or nil when the stripe's
// share of the cap is full (the caller folds into overflow). Caller holds
// st.mu.
func (a *Accumulator) channelLocked(st *accumStripe, ch string, prev *channelAccum) *channelAccum {
	if c := st.chans[ch]; c != nil {
		st.hits++
		return c
	}
	if a.perStripeCap > 0 && len(st.chans) >= a.perStripeCap {
		return nil
	}
	c := prev
	if c == nil {
		c = &channelAccum{st: st}
	}
	c.gone = false
	st.chans[ch] = c
	st.misses++
	return c
}

// OnPublish records one publication. publisher is the originating node ID
// extracted from the envelope (0 if unknown), size the payload bytes,
// receivers the fan-out count.
func (a *Accumulator) OnPublish(ch string, publisher uint32, size, receivers int) {
	a.publish(nil, ch, publisher, size, receivers)
}

// publish records one publication on c, ch's record as last resolved (nil
// when none was), and returns the record that now holds ch — c itself unless
// c had been dropped — or nil when the publication folded into overflow.
func (a *Accumulator) publish(c *channelAccum, ch string, publisher uint32, size, receivers int) *channelAccum {
	var st *accumStripe
	if c != nil {
		st = c.st // no hash, no probe
	} else {
		st = a.stripe(ch)
	}
	st.mu.Lock()
	if c == nil || c.gone {
		c = a.channelLocked(st, ch, c)
	} else {
		st.hits++
	}
	st.windowOut += int64(size) * int64(receivers)
	if c != nil {
		c.add(publisher, size, receivers)
	} else {
		st.folds++
		st.overflow.add(0, size, receivers)
	}
	st.mu.Unlock()
	return c
}

// OnSubscribe records a subscription; count is the channel's subscriber
// count after the operation (as reported by the broker). At the cap, a new
// channel displaces an arbitrary tracked one, whose unit counters fold into
// overflow: the broker re-reports counts on every subscribe/unsubscribe, so
// displaced channels self-heal on their next subscription event.
func (a *Accumulator) OnSubscribe(ch string, count int) {
	st := a.stripe(ch)
	st.mu.Lock()
	c := a.channelLocked(st, ch, nil)
	if c == nil {
		for victim, v := range st.chans {
			delete(st.chans, victim)
			v.fold(&st.overflow)
			v.gone, v.subscribers = true, 0
			st.subEvicts++
			break
		}
		c = a.channelLocked(st, ch, nil)
	}
	c.subscribers = count
	c.touched = true // visible in the unit even before traffic flows
	st.mu.Unlock()
}

// OnUnsubscribe records an unsubscription.
func (a *Accumulator) OnUnsubscribe(ch string, count int) {
	st := a.stripe(ch)
	st.mu.Lock()
	if c := st.chans[ch]; c != nil {
		c.subscribers = max(count, 0)
	}
	st.mu.Unlock()
}

// Seal closes the current time unit, queues it for the next report and
// returns it. Every channel record is read and reset in place; records with
// no activity in the unit and no subscribers are omitted and dropped.
func (a *Accumulator) Seal() UnitStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	u := UnitStats{Unit: a.unit}
	a.unit++

	var overflow channelAccum
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		st.overflow.fold(&overflow)
		for ch, c := range st.chans {
			switch {
			case c.touched:
				u.Channels = append(u.Channels, ChannelStats{
					Channel:      ch,
					Publishers:   min(int(c.first), 1) + len(c.more),
					Publications: c.publications,
					Subscribers:  c.subscribers,
					MessagesSent: c.messagesSent,
					BytesIn:      c.bytesIn,
					BytesOut:     c.bytesOut,
				})
				c.reset()
			case c.subscribers > 0:
				u.Channels = append(u.Channels, ChannelStats{Channel: ch, Subscribers: c.subscribers})
			default:
				delete(st.chans, ch)
				c.gone = true
			}
		}
		st.mu.Unlock()
	}
	// Channels are hash-partitioned across stripes, so names are unique.
	slices.SortFunc(u.Channels, func(x, y ChannelStats) int { return strings.Compare(x.Channel, y.Channel) })
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
	if c := st.chans[ch]; c != nil {
		return c.subscribers
	}
	return 0
}

// UnitCacheStats snapshots the channel records' bounded-cache counters
// (Evictions = publications folded into the overflow bucket).
func (a *Accumulator) UnitCacheStats() hotstate.Stats {
	s := hotstate.Stats{Capacity: a.channelCap}
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		s.Size += len(st.chans)
		s.Hits += st.hits
		s.Misses += st.misses
		s.Evictions += st.folds
		st.mu.Unlock()
	}
	return s
}

// SubscriberCacheStats snapshots the subscribed channel records
// (Evictions = records displaced at the cap by a subscription).
func (a *Accumulator) SubscriberCacheStats() hotstate.Stats {
	s := hotstate.Stats{Capacity: a.channelCap}
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		for _, c := range st.chans {
			s.Size += min(c.subscribers, 1)
		}
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
	// ReportEvery is the aggregate-update interval (default
	// DefaultReportEvery).
	ReportEvery time.Duration
	// ChannelCap bounds the channels the accumulator tracks; traffic past
	// it folds into the unit's overflow bucket. 0 means DefaultChannelCap;
	// negative means unbounded.
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
		c.ReportEvery = DefaultReportEvery
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

var _ broker.SlotObserver = (*Analyzer)(nil)

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

// OnPublishSlot implements broker.SlotObserver: OnPublish with the channel's
// record kept in the slot, so the steady state neither hashes nor probes.
func (an *Analyzer) OnPublishSlot(slot *atomic.Value, ch string, payload []byte, receivers int) {
	publisher, _ := message.PeekNode(payload)
	c, _ := slot.Load().(*channelAccum)
	if got := an.accum.publish(c, ch, publisher, len(payload), receivers); got != c && got != nil {
		slot.Store(got)
	}
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
