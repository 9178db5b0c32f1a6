// Package server assembles one Dynamoth node exactly as Figure 1 of the
// paper draws it: a standard pub/sub server (broker), a local load analyzer,
// and a dispatcher, collocated on one machine. The node publishes its LLA
// reports on the control plane so the load balancer can aggregate them.
package server

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/dispatcher"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/metrics"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/trace"
)

// DefaultReplayDepth is the per-channel replay ring depth when
// Options.ReplayDepth is 0: deep enough to cover a crash-detection window or
// a T_wait drain at per-channel rates well beyond the paper's workloads
// (sizing math in DESIGN.md §16), shallow enough that a ring costs at most
// depth × frame-size bytes only on channels that actually see traffic.
const DefaultReplayDepth = 256

// Options configures a Node.
type Options struct {
	// ID is the server's identity in plans (e.g. "pub1").
	ID plan.ServerID
	// NodeNum is the numeric node ID used for control envelopes; must be
	// unique across the deployment.
	NodeNum uint32
	// Initial is the bootstrap plan.
	Initial *plan.Plan
	// Forwarder lets the dispatcher publish on other servers.
	Forwarder dispatcher.Forwarder
	// Clock provides time (default real).
	Clock clock.Clock
	// MaxOutgoingBps is the node's theoretical egress capacity T_i.
	MaxOutgoingBps float64
	// Unit and ReportEvery configure the LLA (defaults 1 s / 3 s).
	Unit, ReportEvery time.Duration
	// TopKCap bounds the hot-channel tracker's channel set
	// (0 = obs.DefaultTopKCap, negative = unbounded).
	TopKCap int
	// OutputBuffer is the broker's output limit, in messages, for
	// in-process sessions.
	OutputBuffer int
	// ReplayDepth is the broker's per-channel replay ring depth: the last
	// ReplayDepth data frames of each channel stay available for
	// cursor-based resumable subscription. 0 selects DefaultReplayDepth;
	// negative disables replay.
	ReplayDepth int
	// ChannelCap bounds the channels the node keeps a record for — replay
	// ring, LLA counters, dispatcher verdict — (0 = broker.DefaultChannelCap,
	// negative = unbounded). Subscribed channels' records are pinned; LLA
	// traffic on channels past the cap folds into the report's overflow
	// bucket.
	ChannelCap int
	// Recorder receives the node's reconfiguration events (plan applies,
	// SWITCH sends, drains) and backs its /debug/events endpoint. Nil
	// records nothing.
	Recorder *trace.Recorder
	// Logger receives structured node logs (component-tagged per
	// subsystem). Nil discards.
	Logger *slog.Logger
}

// Node is one pub/sub server machine: broker + LLA + dispatcher, plus the
// observability surface (metric registry, hot-channel tracker, end-to-end
// latency histogram) the admin endpoint exposes.
type Node struct {
	ID         plan.ServerID
	Broker     *broker.Broker
	LLA        *lla.Analyzer
	Dispatcher *dispatcher.Dispatcher

	reg     *obs.Registry
	topk    *obs.TopK
	latTopk *obs.LatencyTopK
	e2e     *metrics.Histogram
	stages  *stageHistograms
	rec     *trace.Recorder
	log     *slog.Logger
	connSrv *broker.ConnServer

	gen       *message.Generator
	closeOnce sync.Once
}

// New builds and starts a node.
func New(opts Options) (*Node, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("server: missing node ID")
	}
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	replayDepth := opts.ReplayDepth
	switch {
	case replayDepth == 0:
		replayDepth = DefaultReplayDepth
	case replayDepth < 0:
		replayDepth = 0 // disabled
	}
	channelCap := opts.ChannelCap
	if channelCap == 0 {
		channelCap = broker.DefaultChannelCap
	}
	clk := opts.Clock
	b := broker.New(broker.Options{
		Name:         opts.ID,
		OutputBuffer: opts.OutputBuffer,
		ReplayDepth:  replayDepth,
		ChannelCap:   channelCap,
		// Stage stamping on: the broker marks ingress and fanout-enqueue on
		// every stamped data frame, in place and allocation-free.
		NowNanos: func() int64 { return clk.Now().UnixNano() },
	})
	analyzer := lla.NewAnalyzer(lla.Config{
		Server:         opts.ID,
		MaxOutgoingBps: opts.MaxOutgoingBps,
		Unit:           opts.Unit,
		ReportEvery:    opts.ReportEvery,
		ChannelCap:     channelCap,
		Clock:          opts.Clock,
		Logger:         opts.Logger,
	})
	b.AddObserver(analyzer)

	disp, err := dispatcher.New(dispatcher.Options{
		Self:      opts.ID,
		Node:      opts.NodeNum,
		Initial:   opts.Initial,
		Broker:    b,
		Forwarder: opts.Forwarder,
		Clock:     opts.Clock,
		Recorder:  opts.Recorder,
		Logger:    opts.Logger,
	})
	if err != nil {
		analyzer.Stop()
		b.Close()
		return nil, fmt.Errorf("server: starting dispatcher: %w", err)
	}

	n := &Node{
		ID:         opts.ID,
		Broker:     b,
		LLA:        analyzer,
		Dispatcher: disp,
		topk:       obs.NewTopKWithCap(-1, topKCap(opts.TopKCap), opts.Clock.Now),
		latTopk:    obs.NewLatencyTopK(-1, opts.Clock.Now),
		e2e:        newE2EHistogram(),
		stages:     newStageHistograms(),
		rec:        opts.Recorder,
		log:        trace.Component(opts.Logger, "server"),
		gen:        message.NewGenerator(opts.NodeNum),
	}
	n.connSrv = broker.NewConnServer(b, broker.ServeOptions{
		Observer: &connTracer{rec: opts.Recorder},
	})
	// Observability observers: both are allocation-free in steady state (the
	// latency observer peeks the envelope header once; the top-K trackers and
	// its flush leg sample).
	b.AddObserver(n.topk)
	b.AddObserver(&latencyObserver{
		clk:     opts.Clock,
		hist:    n.e2e,
		stages:  n.stages,
		latTopk: n.latTopk,
	})
	n.buildRegistry()
	analyzer.Start(n.publishReport)
	return n, nil
}

// topKCap maps the Options convention (0 = default, negative = unbounded) to
// the tracker's (positive = cap, <=0 = unbounded).
func topKCap(v int) int {
	switch {
	case v == 0:
		return obs.DefaultTopKCap
	case v < 0:
		return 0
	}
	return v
}

// publishReport puts one LLA report on the local control channel, where
// the load balancer subscribes. It runs on the analyzer's loop.
func (n *Node) publishReport(r *lla.Report) {
	data, err := r.Marshal()
	if err != nil {
		return
	}
	env := &message.Envelope{
		Type:    message.TypeLoadReport,
		ID:      n.gen.Next(),
		Channel: plan.ReportChannel,
		Payload: data,
	}
	n.Broker.Publish(plan.ReportChannel, env.Marshal())
}

// ServeTCP serves the node's broker over RESP on ln (blocking), using the
// platform's connection core.
func (n *Node) ServeTCP(ln net.Listener) error {
	return n.connSrv.Serve(ln)
}

// ConnStats snapshots the connection-layer counters (and names the core).
func (n *Node) ConnStats() broker.ConnStats { return n.connSrv.Stats() }

// connTracer bridges connection lifecycle events into the flight recorder.
// All three callbacks are nil-recorder safe and allocation-free.
type connTracer struct {
	rec *trace.Recorder
}

func (t *connTracer) OnAccept(addr string) {
	t.rec.Record(trace.KindConnAccept, 0, addr, "", 0, 0)
}

func (t *connTracer) OnConnClose(addr string, reason error) {
	detail := ""
	if reason != nil {
		detail = reason.Error()
	}
	t.rec.Record(trace.KindConnClose, 0, addr, detail, 0, 0)
}

func (t *connTracer) OnBackpressure(addr string, buffered int) {
	t.rec.Record(trace.KindBackpressure, 0, addr, "", int64(buffered), 0)
}

// Close stops all node components.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		n.Dispatcher.Close()
		n.LLA.Stop()
		n.Broker.Close()
	})
}
