package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/metrics"
	"github.com/dynamoth/dynamoth/internal/obs"
)

// Delivery latency histogram range: 100 µs floor (same-host broker hop) to
// 60 s ceiling — an open-loop harness must be able to represent a stall of
// most of the run, that being exactly the signal a closed-loop harness
// erases. 192 log buckets ≈ 7% resolution.
const (
	latencyMin     = 100 * time.Microsecond
	latencyMax     = 60 * time.Second
	latencyBuckets = 192
)

// Recorder is the delivery-side half of the harness: subscribers feed every
// stamped payload in, and it maintains two histograms over the same
// deliveries — latency from the *intended* send instant (the honest,
// coordinated-omission-safe figure) and latency from the *actual* send
// instant (what a closed-loop harness would have reported). Intended
// dominates actual by construction; the gap between their tails is the
// queueing delay the publisher's own lateness would otherwise have hidden.
type Recorder struct {
	epoch    time.Time
	intended *metrics.Histogram
	actual   *metrics.Histogram

	delivered atomic.Uint64
	stampErrs atomic.Uint64

	// chain, when non-nil, receives a copy of every observation — used by
	// the mixed multi-tenant scenario to aggregate a blended histogram
	// across per-component recorders.
	chain *Recorder
}

// NewRecorder creates a recorder with its epoch pinned to now. Publishers
// and subscribers of one run must share a single recorder (or recorders
// chained to it) so stamps and arrival readings use the same clock origin.
func NewRecorder() *Recorder {
	return &Recorder{
		epoch:    time.Now(),
		intended: metrics.NewHistogram(latencyMin, latencyMax, latencyBuckets),
		actual:   metrics.NewHistogram(latencyMin, latencyMax, latencyBuckets),
	}
}

// NewRecorderChained creates a recorder whose observations are also fed into
// parent. The child shares the parent's epoch.
func NewRecorderChained(parent *Recorder) *Recorder {
	r := NewRecorder()
	r.epoch = parent.epoch
	r.chain = parent
	return r
}

// Epoch returns the recorder's clock origin.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Since returns the elapsed offset from the epoch — the run's shared clock.
func (r *Recorder) Since() time.Duration { return time.Since(r.epoch) }

// Observe parses a stamped payload and records its delivery at the current
// instant. It reports whether the payload carried a usable stamp;
// unparseable payloads are counted (a non-zero count on a pure loadgen
// channel means frame corruption).
func (r *Recorder) Observe(payload []byte) bool {
	intended, actual, ok := ParseStamp(payload)
	if !ok {
		r.stampErrs.Add(1)
		return false
	}
	r.ObserveAt(intended, actual, r.Since())
	return true
}

// ObserveAt records one delivery given its stamps and arrival offset.
func (r *Recorder) ObserveAt(intended, actual, deliveredAt time.Duration) {
	r.delivered.Add(1)
	r.intended.Observe(deliveredAt - intended)
	r.actual.Observe(deliveredAt - actual)
	if r.chain != nil {
		r.chain.ObserveAt(intended, actual, deliveredAt)
	}
}

// Delivered returns how many stamped deliveries have been observed.
func (r *Recorder) Delivered() uint64 { return r.delivered.Load() }

// StampErrors returns how many payloads failed to parse.
func (r *Recorder) StampErrors() uint64 { return r.stampErrs.Load() }

// Intended returns the intended-send-time latency histogram.
func (r *Recorder) Intended() *metrics.Histogram { return r.intended }

// Actual returns the actual-send-time latency histogram.
func (r *Recorder) Actual() *metrics.Histogram { return r.actual }

// RegisterMetrics exports the recorder on reg under prefix (e.g.
// "dynamoth_loadgen"): both latency histograms plus the delivery and
// stamp-error counters, so a scrape of the harness process shows the same
// figures its summary line reports.
func (r *Recorder) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Counter(prefix+"_delivered_total",
		"Stamped deliveries observed by the open-loop recorder.",
		r.delivered.Load)
	reg.Counter(prefix+"_stamp_errors_total",
		"Payloads that failed stamp parsing (corruption on a loadgen channel).",
		r.stampErrs.Load)
	reg.Histogram(prefix+"_intended_latency_seconds",
		"Delivery latency from the intended send instant (coordinated-omission-safe).",
		r.intended, 0.5, 0.99, 0.999)
	reg.Histogram(prefix+"_actual_latency_seconds",
		"Delivery latency from the actual send instant (the closed-loop figure, for contrast).",
		r.actual, 0.5, 0.99, 0.999)
}

// SendFunc publishes one scheduled message. pub is the logical publisher
// index, seq its per-publisher tick number, and intended/actual the stamps
// the payload must carry (offsets from the run recorder's epoch). The
// callback builds the payload with AppendStamp so the delivery side can read
// them back.
type SendFunc func(pub int, seq uint64, intended, actual time.Duration) error

// Options configures an open-loop run.
type Options struct {
	// Publishers is the number of logical publishers, each with its own
	// deterministic schedule (default 1).
	Publishers int
	// Rate is each publisher's arrival rate in messages/second.
	Rate float64
	// Duration is the schedule horizon: ticks are planned over [0, Duration)
	// and the run ends when every publisher has worked through its plan —
	// possibly later than Duration if sending is slow, never with ticks
	// silently dropped.
	Duration time.Duration
	// Arrival selects the arrival process (default periodic).
	Arrival Arrival
	// Seed makes the run reproducible; publisher p uses Seed+p.
	Seed int64
	// MaxLag, when positive, abandons any tick the publisher reaches more
	// than MaxLag late instead of sending it. Dropped ticks are counted —
	// an open-loop harness may shed load, but never silently.
	MaxLag time.Duration
	// BehindThreshold is how late an actual send may run before the tick
	// counts as behind schedule (default: one mean inter-arrival gap).
	BehindThreshold time.Duration
	// Send publishes one message (required).
	Send SendFunc
	// Recorder supplies the shared epoch (required).
	Recorder *Recorder
}

// Report is the generator-side outcome of a run.
type Report struct {
	Publishers       int     `json:"publishers"`
	RatePerPublisher float64 `json:"ratePerPublisher"`
	Arrival          string  `json:"arrival"`
	// OfferedPerSec is the schedule's aggregate arrival rate; Sent is how
	// many scheduled ticks were actually published, Dropped how many were
	// abandoned past MaxLag, SendErrors how many sends failed.
	OfferedPerSec float64 `json:"offeredPerSec"`
	Sent          uint64  `json:"sent"`
	Dropped       uint64  `json:"dropped"`
	SendErrors    uint64  `json:"sendErrors"`
	// BehindSchedule counts sends that ran later than BehindThreshold past
	// their intended instant; MaxSendLagUs is the worst such lag. These are
	// the coordinated-omission tell: a closed-loop harness has no such
	// numbers because it redefines lateness away.
	BehindSchedule uint64  `json:"behindSchedule"`
	MaxSendLagUs   float64 `json:"maxSendLagUs"`
	// WallSecs is how long the run actually took (≥ the schedule horizon
	// when the publisher fell behind).
	WallSecs float64 `json:"wallSecs"`
}

// Run executes the schedule against opts.Send, open-loop: each publisher
// walks its fixed tick plan, sleeping until each intended instant and then
// sending immediately — when it falls behind it does not re-plan, it
// catches up, and the lateness is visible both here (BehindSchedule,
// MaxSendLagUs) and in the recorder's intended-time histogram.
func Run(opts Options) (*Report, error) {
	if opts.Send == nil {
		return nil, fmt.Errorf("loadgen: Options.Send is required")
	}
	if opts.Recorder == nil {
		return nil, fmt.Errorf("loadgen: Options.Recorder is required")
	}
	if opts.Publishers <= 0 {
		opts.Publishers = 1
	}
	if opts.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: Options.Rate must be positive")
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Options.Duration must be positive")
	}
	meanGap := time.Duration(float64(time.Second) / opts.Rate)
	if opts.BehindThreshold <= 0 {
		opts.BehindThreshold = meanGap
	}

	rep := &Report{
		Publishers:       opts.Publishers,
		RatePerPublisher: opts.Rate,
		Arrival:          opts.Arrival.String(),
		OfferedPerSec:    opts.Rate * float64(opts.Publishers),
	}
	var sent, dropped, behind, sendErrs atomic.Uint64
	var maxLagNs atomic.Int64

	start := opts.Recorder.Since()
	var wg sync.WaitGroup
	for p := 0; p < opts.Publishers; p++ {
		// Deterministic stagger: publisher p's phase spreads the fleet's
		// ticks evenly across one mean gap so the aggregate arrival stream
		// is smooth, not a synchronized burst every 1/rate seconds.
		phase := time.Duration(float64(meanGap) * float64(p) / float64(opts.Publishers))
		sched := NewSchedule(opts.Arrival, opts.Rate, phase, opts.Seed+int64(p))
		wg.Add(1)
		go func(pub int, sched Schedule) {
			defer wg.Done()
			ticks := sched.Ticks()
			for seq := uint64(0); ; seq++ {
				off := ticks.Next()
				if off >= opts.Duration {
					return
				}
				intended := start + off
				if wait := intended - opts.Recorder.Since(); wait > 0 {
					time.Sleep(wait)
				}
				actual := opts.Recorder.Since()
				lag := actual - intended
				if lag > opts.BehindThreshold {
					behind.Add(1)
					for {
						cur := maxLagNs.Load()
						if int64(lag) <= cur || maxLagNs.CompareAndSwap(cur, int64(lag)) {
							break
						}
					}
				}
				if opts.MaxLag > 0 && lag > opts.MaxLag {
					dropped.Add(1)
					continue
				}
				if err := opts.Send(pub, seq, intended, actual); err != nil {
					sendErrs.Add(1)
					continue
				}
				sent.Add(1)
			}
		}(p, sched)
	}
	wg.Wait()

	rep.Sent = sent.Load()
	rep.Dropped = dropped.Load()
	rep.BehindSchedule = behind.Load()
	rep.SendErrors = sendErrs.Load()
	rep.MaxSendLagUs = float64(maxLagNs.Load()) / 1e3
	rep.WallSecs = (opts.Recorder.Since() - start).Seconds()
	return rep, nil
}

// QuantilesUs digests a histogram into microsecond quantiles.
func QuantilesUs(h *metrics.Histogram) (p50, p99, p999, max float64) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	return us(h.Quantile(0.5)), us(h.Quantile(0.99)), us(h.Quantile(0.999)), us(h.Max())
}
