// Package experiment reproduces every figure of the paper's evaluation
// (§V): the channel-replication micro-benchmarks (Fig. 4a/4b), the
// scalability comparison against consistent hashing (Fig. 5a–c and Fig. 6)
// and the elasticity run (Fig. 7a/7b). Each Run* function drives the
// deterministic simulator with the corresponding workload and returns the
// series the figure plots, plus the headline numbers the paper claims.
package experiment

import (
	"fmt"
	"time"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/metrics"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/sim"
)

// pubRate is each publisher's publication rate (§V-C).
const pubRate = 10.0

// MicroOptions parameterizes the Experiment 1 micro-benchmarks.
type MicroOptions struct {
	// Steps are the client counts swept on the X axis (default
	// 100..800 step 100, as in Fig. 4).
	Steps []int
	// PayloadBytes is the publication payload (default 200).
	PayloadBytes int
	// Replicas is the replica count of the replicated configuration
	// (default 3, as in the paper).
	Replicas int
	// Measure is how long each configuration runs after warmup
	// (default 20 s).
	Measure time.Duration
	// Seed drives the simulation (default 1).
	Seed int64
}

func (o MicroOptions) fill() MicroOptions {
	if len(o.Steps) == 0 {
		o.Steps = []int{100, 200, 300, 400, 500, 600, 700, 800}
	}
	if o.PayloadBytes <= 0 {
		o.PayloadBytes = 200
	}
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.Measure <= 0 {
		o.Measure = 20 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// MicroResult is one Fig. 4 sweep.
type MicroResult struct {
	// Series columns: noRepl_ms, repl_ms (mean response time),
	// noRepl_delivery, repl_delivery (fraction of expected deliveries).
	Series *metrics.Series
	// MaxHealthyNoRepl and MaxHealthyRepl report the largest step that
	// stayed under 150 ms with ≥99% delivery — the paper's informal
	// "supports up to N" numbers.
	MaxHealthyNoRepl int
	MaxHealthyRepl   int
}

// RunFig4a reproduces Figure 4a (§V-C1, "All Publishers"): one publisher at
// pubRate on one channel, 100..800 subscribers, with and without
// all-publishers replication over Replicas servers.
func RunFig4a(opts MicroOptions) *MicroResult {
	opts = opts.fill()
	series := metrics.NewSeries("subscribers", "noRepl_ms", "repl_ms", "noRepl_delivery", "repl_delivery")
	res := &MicroResult{Series: series}
	for _, n := range opts.Steps {
		rtPlain, delivPlain := runAllPublishersStep(opts, n, false)
		rtRepl, delivRepl := runAllPublishersStep(opts, n, true)
		series.Record(float64(n), "noRepl_ms", rtPlain)
		series.Record(float64(n), "repl_ms", rtRepl)
		series.Record(float64(n), "noRepl_delivery", delivPlain)
		series.Record(float64(n), "repl_delivery", delivRepl)
		if healthy(rtPlain, delivPlain) {
			res.MaxHealthyNoRepl = n
		}
		if healthy(rtRepl, delivRepl) {
			res.MaxHealthyRepl = n
		}
	}
	return res
}

// runAllPublishersStep measures one Fig. 4a point: n subscribers, one
// publisher. Returns mean response time (ms) and delivery fraction.
func runAllPublishersStep(opts MicroOptions, n int, replicated bool) (rtMs, delivery float64) {
	servers := serverNames(opts.Replicas)
	s := sim.New(sim.Config{
		Seed:           opts.Seed,
		Mode:           sim.ModeNone,
		InitialServers: servers,
	})
	const channel = "hot-spot"
	installPlan(s, channel, servers, replicated, plan.StrategyAllPublishers)

	var rt rtAccum
	for i := 0; i < n; i++ {
		c := s.AddClient(uint32(1000 + i))
		c.DeliverAll = true
		c.OnData = rt.observe(s)
		c.Subscribe(channel)
	}
	pub := s.AddClient(999)
	s.RunFor(2 * time.Second) // subscriptions land; switches propagate

	period := time.Duration(float64(time.Second) / pubRate)
	s.Engine().Every(period, func() {
		pub.PublishTimed(channel, opts.PayloadBytes)
	})
	// Warmup: publications teach the publisher the replica set.
	s.RunFor(3 * time.Second)
	rt.reset()
	s.RunFor(opts.Measure)

	expected := float64(n) * pubRate * opts.Measure.Seconds()
	return rt.meanMs(), rt.fraction(expected)
}

// RunFig4b reproduces Figure 4b (§V-C2, "All Subscribers"): 100..800
// publishers at pubRate each on one channel, a single subscriber, with and
// without all-subscribers replication over Replicas servers.
func RunFig4b(opts MicroOptions) *MicroResult {
	opts = opts.fill()
	series := metrics.NewSeries("publishers", "noRepl_ms", "repl_ms", "noRepl_delivery", "repl_delivery")
	res := &MicroResult{Series: series}
	for _, n := range opts.Steps {
		rtPlain, delivPlain := runAllSubscribersStep(opts, n, false)
		rtRepl, delivRepl := runAllSubscribersStep(opts, n, true)
		series.Record(float64(n), "noRepl_ms", rtPlain)
		series.Record(float64(n), "repl_ms", rtRepl)
		series.Record(float64(n), "noRepl_delivery", delivPlain)
		series.Record(float64(n), "repl_delivery", delivRepl)
		if healthy(rtPlain, delivPlain) {
			res.MaxHealthyNoRepl = n
		}
		if healthy(rtRepl, delivRepl) {
			res.MaxHealthyRepl = n
		}
	}
	return res
}

func runAllSubscribersStep(opts MicroOptions, n int, replicated bool) (rtMs, delivery float64) {
	servers := serverNames(opts.Replicas)
	s := sim.New(sim.Config{
		Seed:           opts.Seed,
		Mode:           sim.ModeNone,
		InitialServers: servers,
	})
	const channel = "firehose"
	installPlan(s, channel, servers, replicated, plan.StrategyAllSubscribers)

	var rt rtAccum
	subC := s.AddClient(999)
	subC.DeliverAll = true
	subC.OnData = rt.observe(s)
	subC.Subscribe(channel)

	period := time.Duration(float64(time.Second) / pubRate)
	for i := 0; i < n; i++ {
		pub := s.AddClient(uint32(1000 + i))
		// Stagger each publisher's clock: clients are independent
		// machines, so their 10 msg/s loops are not aligned.
		offset := time.Duration(s.Rand().Float64() * float64(period))
		p := pub
		s.Engine().After(offset, func() {
			s.Engine().Every(period, func() {
				p.PublishTimed(channel, opts.PayloadBytes)
			})
			p.PublishTimed(channel, opts.PayloadBytes)
		})
	}
	s.RunFor(2 * time.Second)
	s.RunFor(3 * time.Second)
	rt.reset()
	s.RunFor(opts.Measure)

	expected := float64(n) * pubRate * opts.Measure.Seconds()
	return rt.meanMs(), rt.fraction(expected)
}

// healthy is the paper's informal serviceability bar: sub-150 ms mean
// response time with (nearly) complete delivery.
func healthy(rtMs, delivery float64) bool {
	return rtMs > 0 && rtMs <= 150 && delivery >= 0.99
}

func serverNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("pub%d", i+1)
	}
	return out
}

// installPlan pins the channel to one server (no replication) or to all
// servers under the given strategy — the manual configuration of §V-C.
func installPlan(s *sim.Sim, channel string, servers []string, replicated bool, strategy plan.Strategy) {
	p := plan.New(servers...)
	p.Version = 2
	if replicated {
		p.Set(channel, plan.Entry{Strategy: strategy, Servers: servers})
	} else {
		p.Set(channel, plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{servers[0]}})
	}
	s.SetPlan(p)
}

// rtAccum accumulates response-time observations.
type rtAccum struct {
	sum   time.Duration
	count int64
}

func (r *rtAccum) observe(s *sim.Sim) func(string, *message.Envelope, time.Time) {
	return func(_ string, _ *message.Envelope, sentAt time.Time) {
		r.sum += s.Now().Sub(sentAt)
		r.count++
	}
}

func (r *rtAccum) reset() { r.sum, r.count = 0, 0 }

func (r *rtAccum) meanMs() float64 {
	if r.count == 0 {
		return 0
	}
	return float64(r.sum.Milliseconds()) / float64(r.count)
}

func (r *rtAccum) fraction(expected float64) float64 {
	if expected <= 0 {
		return 1
	}
	f := float64(r.count) / expected
	if f > 1 {
		f = 1
	}
	return f
}

// Count returns the number of accumulated observations.
func (r *rtAccum) Count() int64 { return r.count }
