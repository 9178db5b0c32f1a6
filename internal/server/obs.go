package server

import (
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/buildinfo"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/hotstate"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/metrics"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/trace"
)

// E2E latency histogram range: 100 µs floor (loopback broker hop) to 30 s
// ceiling (anything slower is an outage, clamped to the edge bucket), 160
// log buckets ≈ 8% resolution — enough to place a p99 within one bucket of
// the paper's Figure 8 CDF axis.
const (
	e2eLatencyMin     = 100 * time.Microsecond
	e2eLatencyMax     = 30 * time.Second
	e2eLatencyBuckets = 160
)

func newE2EHistogram() *metrics.Histogram {
	return metrics.NewHistogram(e2eLatencyMin, e2eLatencyMax, e2eLatencyBuckets)
}

// Stage latency histogram range: stage legs are broker-internal and often
// single-digit microseconds on loopback, so the floor sits at 1 µs (not the
// e2e histogram's 100 µs) — otherwise every fast stage would clamp up to the
// floor bucket and the waterfall's sum-of-stages would overstate e2e.
const (
	stageLatencyMin     = 1 * time.Microsecond
	stageLatencyMax     = 30 * time.Second
	stageLatencyBuckets = 200
)

// stageHistograms is the node-side half of the latency waterfall: the legs
// the broker can observe locally. The deliver leg (fanout→client) lives on
// the client registry; see DESIGN.md §18.
type stageHistograms struct {
	ingress *metrics.Histogram // publisher send → broker Publish entry
	fanout  *metrics.Histogram // Publish entry → fan-out enqueue
	flush   *metrics.Histogram // fan-out enqueue → connection write buffer
}

func newStageHistograms() *stageHistograms {
	return &stageHistograms{
		ingress: metrics.NewHistogram(stageLatencyMin, stageLatencyMax, stageLatencyBuckets),
		fanout:  metrics.NewHistogram(stageLatencyMin, stageLatencyMax, stageLatencyBuckets),
		flush:   metrics.NewHistogram(stageLatencyMin, stageLatencyMax, stageLatencyBuckets),
	}
}

// latencyObserver is the node's one latency observer: every stamped data
// envelope's publish→fan-out age with its per-stage split (OnPublish), and
// the writer-flush leg (OnFlush). It reads everything OnPublish needs from
// the marks the broker has just stamped into the frame — a header peek, no
// decoding, no allocation, no clock read, no lock.
type latencyObserver struct {
	clk     clock.Clock
	hist    *metrics.Histogram
	stages  *stageHistograms
	latTopk *obs.LatencyTopK
	flushes atomic.Uint64
}

// OnPublish implements broker.Observer. The e2e age is the fanout mark
// itself, so ingress + fanout sum to e2e exactly, observation by observation.
func (o *latencyObserver) OnPublish(ch string, payload []byte, _ int) {
	s, ok := message.PeekStageStamp(payload)
	if !ok || s.Stamp == 0 || s.FanoutUs == 0 {
		return
	}
	if s.Type != message.TypeData && s.Type != message.TypeForwarded {
		return
	}
	age := time.Duration(s.FanoutUs) * time.Microsecond
	ingress := time.Duration(min(s.IngressUs, s.FanoutUs)) * time.Microsecond // min: a clock stepped back between the marks
	o.hist.Observe(age)
	o.latTopk.Observe(ch, age)
	o.stages.ingress.Observe(ingress)
	o.stages.fanout.Observe(age - ingress)
}

// OnSubscribe implements broker.Observer (ignored).
func (o *latencyObserver) OnSubscribe(string, string, int) {}

// OnUnsubscribe implements broker.Observer (ignored).
func (o *latencyObserver) OnUnsubscribe(string, string, int) {}

// OnFlush implements broker.FlushObserver: the age of a frame past its
// fanout-enqueue mark at the moment it leaves the broker's output queue for
// a connection write buffer. It runs once per delivery on the dispatch path,
// so it samples (every 2^shift-th delivery) and peeks only on the sampled
// subset.
func (o *latencyObserver) OnFlush(payload []byte) {
	if o.flushes.Add(1)&(1<<obs.DefaultSampleShift-1) != 0 {
		return
	}
	s, ok := message.PeekStageStamp(payload)
	if !ok || s.FanoutUs == 0 {
		return
	}
	at := s.FanoutAt()
	if at == 0 {
		return
	}
	o.stages.flush.Observe(time.Duration(o.clk.Now().UnixNano() - at))
}

// Registry returns the node's metric registry, served by the admin
// endpoint's /metrics and the cluster scrape helpers.
func (n *Node) Registry() *obs.Registry { return n.reg }

// Recorder returns the node's flight recorder (nil when the node runs
// without one), backing the admin /debug/events and /debug/rebalances
// endpoints.
func (n *Node) Recorder() *trace.Recorder { return n.rec }

// E2ELatency returns the node's publish→deliver latency histogram (stamped
// at client publish, observed at broker fan-out).
func (n *Node) E2ELatency() *metrics.Histogram { return n.e2e }

// Status is the node's /statusz document.
type Status struct {
	Server      string            `json:"server"`
	Version     string            `json:"version"`
	GoVersion   string            `json:"goVersion"`
	PlanVersion uint64            `json:"planVersion"`
	PlanServers []string          `json:"planServers"`
	Sessions    int               `json:"sessions"`
	Channels    int               `json:"channels"`
	ConnCore    string            `json:"connCore"`
	Conns       int64             `json:"conns"`
	Published   uint64            `json:"published"`
	Delivered   uint64            `json:"delivered"`
	Dropped     uint64            `json:"dropped"`
	HotChannels []obs.ChannelRate `json:"hotChannels"`
	E2ELatency  LatencySummary    `json:"e2eLatency"`
}

// LatencySummary is a JSON-friendly histogram digest (milliseconds).
type LatencySummary struct {
	Count  uint64  `json:"count"`
	P50ms  float64 `json:"p50Ms"`
	P99ms  float64 `json:"p99Ms"`
	P999ms float64 `json:"p999Ms"`
	MaxMs  float64 `json:"maxMs"`
}

func summarize(h *metrics.Histogram) LatencySummary {
	c := h.Counts() // one read-out: every figure describes the same instant
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		Count:  c.Count(),
		P50ms:  ms(c.Quantile(0.5)),
		P99ms:  ms(c.Quantile(0.99)),
		P999ms: ms(c.Quantile(0.999)),
		MaxMs:  ms(max(c.Max, 0)),
	}
}

// Status snapshots the node for /statusz. The hot-channel rates are computed
// over the window since the previous Status call.
func (n *Node) Status() any {
	st := n.Broker.Stats()
	p := n.Dispatcher.Plan()
	servers := make([]string, 0, len(p.Servers))
	for _, s := range p.Servers {
		servers = append(servers, string(s))
	}
	return Status{
		Server:      string(n.ID),
		Version:     buildinfo.Version,
		GoVersion:   buildinfo.GoVersion(),
		PlanVersion: p.Version,
		PlanServers: servers,
		Sessions:    st.Sessions,
		Channels:    st.Channels,
		ConnCore:    n.connSrv.Stats().Core,
		Conns:       n.connSrv.Stats().Conns,
		Published:   st.Published,
		Delivered:   st.Delivered,
		Dropped:     st.Dropped,
		HotChannels: n.topk.Top(10),
		E2ELatency:  summarize(n.e2e),
	}
}

// StageSummary is one waterfall stage's latency digest.
type StageSummary struct {
	Stage string `json:"stage"`
	LatencySummary
}

// Waterfall is the /debug/latency document: the node's end-to-end latency
// with its per-stage decomposition and the channels contributing the most
// tail latency. All numbers are read-only digests; rendering touches nothing
// on the publish path.
type Waterfall struct {
	Server string `json:"server"`
	// E2E is publish→fan-out latency as observed broker-side (the node
	// cannot see client delivery; clients export the deliver leg on their
	// own registries).
	E2E LatencySummary `json:"e2e"`
	// Stages holds the broker-side legs in pipeline order: ingress
	// (publisher send → Publish entry), fanout (Publish entry → fan-out
	// enqueue), flush (fan-out enqueue → connection write buffer; sampled).
	// Ingress + fanout decompose E2E exactly; flush extends past it.
	Stages []StageSummary `json:"stages"`
	// SlowChannels ranks channels by p99 contribution (p99 × count) over
	// the window since the previous Waterfall call.
	SlowChannels []obs.ChannelLatency `json:"slowChannels"`
}

// Waterfall snapshots the node's latency waterfall for /debug/latency.
func (n *Node) Waterfall() Waterfall {
	return Waterfall{
		Server: string(n.ID),
		E2E:    summarize(n.e2e),
		Stages: []StageSummary{
			{Stage: "ingress", LatencySummary: summarize(n.stages.ingress)},
			{Stage: "fanout", LatencySummary: summarize(n.stages.fanout)},
			{Stage: "flush", LatencySummary: summarize(n.stages.flush)},
		},
		SlowChannels: n.latTopk.Top(10),
	}
}

// buildRegistry registers the node's exported metric families. All reads
// happen on scrape; nothing here touches the publish path.
func (n *Node) buildRegistry() {
	r := obs.NewRegistry()
	r.Counter("dynamoth_broker_published_total",
		"Publications accepted by this broker.",
		func() uint64 { return n.Broker.Stats().Published })
	r.Counter("dynamoth_broker_delivered_total",
		"Per-subscriber deliveries queued by this broker.",
		func() uint64 { return n.Broker.Stats().Delivered })
	r.Counter("dynamoth_broker_dropped_total",
		"Sessions disconnected for slow consumption (output buffer overflow).",
		func() uint64 { return n.Broker.Stats().Dropped })
	r.Gauge("dynamoth_broker_sessions",
		"Live sessions connected to this broker.",
		func() float64 { return float64(n.Broker.Stats().Sessions) })
	r.Gauge("dynamoth_broker_channels",
		"Channels with at least one subscriber.",
		func() float64 { return float64(n.Broker.Stats().Channels) })
	r.Gauge("dynamoth_broker_conns",
		"TCP connections currently open on this broker.",
		func() float64 { return float64(n.connSrv.Stats().Conns) })
	r.Counter("dynamoth_broker_conn_accepts_total",
		"TCP connections accepted by this broker.",
		func() uint64 { return n.connSrv.Stats().Accepts })
	r.Counter("dynamoth_broker_conn_closes_total",
		"TCP connections closed on this broker.",
		func() uint64 { return n.connSrv.Stats().Closes })
	r.Counter("dynamoth_broker_conn_backpressure_total",
		"Sessions disconnected by the connection layer for output overflow.",
		func() uint64 { return n.connSrv.Stats().Backpressure })
	r.Counter("dynamoth_broker_bytes_in_total",
		"Wire bytes read from broker connections.",
		func() uint64 { return n.connSrv.Stats().BytesIn })
	r.Counter("dynamoth_broker_bytes_out_total",
		"Wire bytes written to broker connections.",
		func() uint64 { return n.connSrv.Stats().BytesOut })
	r.Counter("dynamoth_broker_epoll_wakeups_total",
		"epoll_wait returns across reactor shards (0 on the goroutine core).",
		func() uint64 { return n.connSrv.Stats().EpollWakeups })
	r.Counter("dynamoth_broker_epoll_events_total",
		"epoll events dispatched across reactor shards (0 on the goroutine core).",
		func() uint64 { return n.connSrv.Stats().EpollEvents })
	r.Counter("dynamoth_broker_epoll_writes_total",
		"Reactor flush write syscalls; deliveries per write is the coalescing factor.",
		func() uint64 { return n.connSrv.Stats().EpollWrites })
	r.Counter("dynamoth_broker_conn_doorbells_total",
		"Wake-ups rung on a parked reactor shard's eventfd (0 on the goroutine core).",
		func() uint64 { return n.connSrv.Stats().Doorbells })
	r.Counter("dynamoth_broker_conn_adopted_flushes_total",
		"Writes made by an already-awake reactor shard other than the session's owner (0 on the goroutine core).",
		func() uint64 { return n.connSrv.Stats().AdoptedFlushes })
	r.Counter("dynamoth_broker_conn_handoffs_total",
		"Sessions an awake reactor shard returned to their owner at flush time, a backlog's worth at once (0 on the goroutine core).",
		func() uint64 { return n.connSrv.Stats().Handoffs })
	if n.Broker.ReplayEnabled() {
		r.Gauge("dynamoth_broker_replay_rings",
			"Channels currently holding a replay ring.",
			func() float64 { return float64(n.Broker.Stats().ReplayRings) })
		r.Gauge("dynamoth_broker_replay_bytes",
			"Frame bytes currently held across replay rings.",
			func() float64 { return float64(n.Broker.Stats().ReplayBytes) })
		r.Counter("dynamoth_broker_replay_retained_total",
			"Data frames appended to replay rings.",
			func() uint64 { return n.Broker.Stats().ReplayRetained })
		r.Counter("dynamoth_broker_replay_requests_total",
			"Cursor-based resubscribes served from replay rings.",
			func() uint64 { return n.Broker.Stats().ReplayRequests })
		r.Counter("dynamoth_broker_replay_frames_total",
			"Frames replayed to resuming subscribers.",
			func() uint64 { return n.Broker.Stats().ReplayedFrames })
		r.Counter("dynamoth_broker_replay_missed_total",
			"Requested frames already overwritten in their ring (unrecoverable gaps).",
			func() uint64 { return n.Broker.Stats().ReplayMissed })
	}
	r.Gauge("dynamoth_plan_version",
		"Plan version this node's dispatcher is executing.",
		func() float64 { return float64(n.Dispatcher.Plan().Version) })
	r.Histogram("dynamoth_e2e_latency_seconds",
		"Publish-to-deliver latency: stamped at client publish, observed at broker fan-out.",
		n.e2e, 0.5, 0.99, 0.999)
	r.Histogram("dynamoth_stage_latency_ingress_seconds",
		"Waterfall stage: publisher send to broker Publish entry.",
		n.stages.ingress, 0.5, 0.99)
	r.Histogram("dynamoth_stage_latency_fanout_seconds",
		"Waterfall stage: broker Publish entry to fan-out enqueue.",
		n.stages.fanout, 0.5, 0.99)
	r.Histogram("dynamoth_stage_latency_flush_seconds",
		"Waterfall stage: fan-out enqueue to connection write buffer (sampled).",
		n.stages.flush, 0.5, 0.99)
	buildinfo.Register(r)
	accum := n.LLA.Accumulator()
	r.Counter("dynamoth_node_lla_reports_total",
		"LLA reports built since startup. Harnesses poll this to wait out a full LLA cycle instead of sleeping a guessed interval.",
		accum.ReportsBuilt)
	// Bounded hot-state caches: every per-channel map on this node with its
	// size/capacity/eviction counters, scrapeable at /metrics.
	caches := []hotstate.NamedStats{
		{Name: "lla_units", Stats: accum.UnitCacheStats},
		{Name: "lla_subscribers", Stats: accum.SubscriberCacheStats},
		{Name: "topk", Stats: n.topk.CacheStats},
		{Name: "latency_topk", Stats: n.latTopk.CacheStats},
	}
	if n.Broker.ReplayEnabled() {
		caches = append(caches, hotstate.NamedStats{Name: "replay_rings", Stats: n.Broker.ReplayCacheStats})
	}
	r.RegisterCaches("dynamoth_node", caches...)
	// Derived reconfiguration families from the node's flight recorder
	// (no-op when the node runs without one).
	n.rec.RegisterMetrics(r)
	n.reg = r
}
