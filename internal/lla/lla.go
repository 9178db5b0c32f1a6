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
// The aggregation core (Accumulator) is pure state so the discrete-event
// simulator reuses it unchanged; Analyzer adds the live clock/ticker
// plumbing and report emission.
package lla

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
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
	// CPUUtilization estimates the node's CPU busy fraction over the
	// window (0..1+). The paper's future work (§VII) proposes integrating
	// CPU into the balancing decision for vCPU-constrained environments;
	// the LLA models it as per-delivery processing cost against the
	// node's delivery-rate capacity.
	CPUUtilization float64 `json:"cpuUtilization,omitempty"`
}

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
	hits        uint64       // publishes on channels already tracked this unit
	misses      uint64       // channel-entry creations
	folds       uint64       // publications folded into overflow
	subEvicts   uint64       // subscriber-map entries displaced at cap
}

// Accumulator gathers per-channel metrics for the current time unit and
// seals units on demand. It is safe for concurrent use (the broker invokes
// observer callbacks from many goroutines); state is striped AccumStripes
// ways by channel hash, and both per-channel maps are capacity-bounded.
type Accumulator struct {
	stripes      [AccumStripes]accumStripe
	perStripeCap int // per-unit channel share per stripe (0 = unbounded)
	channelCap   int

	sealMu sync.Mutex // serializes Seal and guards unit
	unit   int64
}

// NewAccumulator creates an accumulator with DefaultChannelCap.
func NewAccumulator() *Accumulator { return NewAccumulatorWithCap(DefaultChannelCap) }

// NewAccumulatorWithCap creates an accumulator tracking at most channelCap
// distinct channels per unit (<=0 means unbounded). The same cap bounds the
// persistent subscriber-count map.
func NewAccumulatorWithCap(channelCap int) *Accumulator {
	a := &Accumulator{channelCap: channelCap}
	if channelCap > 0 {
		a.perStripeCap = (channelCap + AccumStripes - 1) / AccumStripes
		if a.perStripeCap < 1 {
			a.perStripeCap = 1
		}
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

// Seal closes the current time unit and returns its stats, merging all
// stripes. Channels with no activity and no subscribers are omitted.
func (a *Accumulator) Seal() UnitStats {
	a.sealMu.Lock()
	defer a.sealMu.Unlock()
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
	return u
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

// Config configures an Analyzer.
type Config struct {
	// Server is the pub/sub server (node) this LLA monitors.
	Server string
	// MaxOutgoingBps is the node's theoretical max outgoing bandwidth T_i.
	MaxOutgoingBps float64
	// MaxDeliveriesPerSec is the node's CPU capacity expressed as
	// deliveries/second; 0 disables CPU reporting (the paper's §III-A
	// observation is that bandwidth saturates first, so this is an
	// opt-in extension).
	MaxDeliveriesPerSec float64
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
		c.MaxOutgoingBps = 1.25e6 // DESIGN.md §4 calibration
	}
	if c.ChannelCap == 0 {
		c.ChannelCap = DefaultChannelCap
	} else if c.ChannelCap < 0 {
		c.ChannelCap = 0 // unbounded
	}
}

// Analyzer is the live LLA: a broker observer plus a ticking loop that seals
// time units and emits Reports.
type Analyzer struct {
	cfg   Config
	accum *Accumulator
	log   *slog.Logger

	// bytesOut/deliveries are atomics, not mu-guarded: OnPublish is the
	// broker's fan-out hot path and must not serialize on the report mutex.
	bytesOut   atomic.Int64 // bytes sent during current report window
	deliveries atomic.Int64 // per-subscriber deliveries during current window

	mu      sync.Mutex
	pending []UnitStats
	seq     uint64
	// windowStart stamps when the current report window opened so rates are
	// divided by the time that actually elapsed, not the configured
	// ReportEvery: a ticker firing late (CPU contention, coarse simulated
	// clocks) would otherwise overstate Bps and mask an overload.
	windowStart time.Time

	unitTicker   clock.Ticker
	reportTicker clock.Ticker

	reports chan *Report
	stop    chan struct{}
	done    chan struct{}
	started bool
}

var _ broker.Observer = (*Analyzer)(nil)

// NewAnalyzer creates an LLA for a node. Attach it with
// broker.AddObserver(analyzer), then Start it. The unit and report tickers
// are armed here, synchronously, so virtual-clock tests can advance time
// immediately after Start without racing ticker registration.
func NewAnalyzer(cfg Config) *Analyzer {
	cfg.fillDefaults()
	return &Analyzer{
		cfg:          cfg,
		accum:        NewAccumulatorWithCap(cfg.ChannelCap),
		log:          trace.Component(cfg.Logger, "lla"),
		windowStart:  cfg.Clock.Now(),
		unitTicker:   cfg.Clock.NewTicker(cfg.Unit),
		reportTicker: cfg.Clock.NewTicker(cfg.ReportEvery),
		reports:      make(chan *Report, 16),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
}

// Reports returns the channel on which aggregate updates are delivered.
func (an *Analyzer) Reports() <-chan *Report { return an.reports }

// ReportsBuilt returns how many reports the analyzer has built so far.
// Exported as a counter so harnesses can poll "one full LLA cycle has
// elapsed" off /metrics instead of sleeping a guessed interval.
func (an *Analyzer) ReportsBuilt() uint64 {
	an.mu.Lock()
	defer an.mu.Unlock()
	return an.seq
}

// OnPublish implements broker.Observer. The publisher identity is recovered
// from the Dynamoth envelope header when the payload is one (PeekNode, not
// Unmarshal: this runs on the broker's fan-out path for every publication
// and must not allocate).
func (an *Analyzer) OnPublish(ch string, payload []byte, receivers int) {
	publisher, _ := message.PeekNode(payload)
	an.accum.OnPublish(ch, publisher, len(payload), receivers)
	an.bytesOut.Add(int64(len(payload)) * int64(receivers))
	an.deliveries.Add(int64(receivers))
}

// Accumulator exposes the analyzer's accumulation core (for cache-stat
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

// Start launches the unit/report loop. Call Stop to terminate it.
func (an *Analyzer) Start() {
	an.mu.Lock()
	already := an.started
	an.started = true
	an.mu.Unlock()
	if already {
		return
	}
	go an.run()
}

// Stop terminates the loop and closes the report channel.
func (an *Analyzer) Stop() {
	select {
	case <-an.stop:
		// already stopped
	default:
		close(an.stop)
	}
	an.mu.Lock()
	started := an.started
	an.mu.Unlock()
	if started {
		<-an.done
	} else {
		an.unitTicker.Stop()
		an.reportTicker.Stop()
	}
}

func (an *Analyzer) run() {
	defer close(an.done)
	defer close(an.reports)
	defer an.unitTicker.Stop()
	defer an.reportTicker.Stop()
	for {
		select {
		case <-an.unitTicker.C():
			u := an.accum.Seal()
			an.mu.Lock()
			an.pending = append(an.pending, u)
			an.mu.Unlock()
		case <-an.reportTicker.C():
			r := an.buildReport()
			select {
			case an.reports <- r:
			default:
				// Receiver lagging: drop rather than block the loop; the
				// next report supersedes this one anyway.
			}
		case <-an.stop:
			return
		}
	}
}

// buildReport drains pending units into a Report. Rates are computed over
// the wall-clock (or virtual-clock) time since the previous report, not the
// configured interval, so a late-firing ticker cannot inflate them.
func (an *Analyzer) buildReport() *Report {
	now := an.cfg.Clock.Now()
	an.mu.Lock()
	units := an.pending
	an.pending = nil
	bytes := an.bytesOut.Swap(0)
	deliveries := an.deliveries.Swap(0)
	an.seq++
	seq := an.seq
	window := now.Sub(an.windowStart).Seconds()
	an.windowStart = now
	an.mu.Unlock()
	if window <= 0 {
		window = an.cfg.ReportEvery.Seconds()
	}
	r := &Report{
		Server:              an.cfg.Server,
		Seq:                 seq,
		Units:               units,
		MaxOutgoingBps:      an.cfg.MaxOutgoingBps,
		MeasuredOutgoingBps: float64(bytes) / window,
	}
	if an.cfg.MaxDeliveriesPerSec > 0 {
		r.CPUUtilization = float64(deliveries) / window / an.cfg.MaxDeliveriesPerSec
	}
	an.log.Debug("load report",
		slog.String("server", an.cfg.Server),
		slog.Uint64("seq", seq),
		slog.Int("units", len(units)),
		slog.Float64("measuredBps", r.MeasuredOutgoingBps),
		slog.Float64("maxBps", r.MaxOutgoingBps))
	return r
}
