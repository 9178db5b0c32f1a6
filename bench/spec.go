package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// workload is one traffic shape driven against the node. The four shapes
// differ in which cost dominates — per publication, per delivery, per byte,
// or registry/cache behaviour — so a change to one layer moves one workload
// and, by prediction, leaves another alone (bench/README.md has the table).
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (mirrored in
	// BENCHMARK.json; TestSpecMatchesBenchmarkJSON keeps the two in step).
	Why string

	Payload  int  // application payload bytes
	Channels int  // publishes draw their channel from [0, Channels)
	Zipf     bool // Zipf(1.0) channel draws instead of uniform

	// ClientSubs is how many channels (the first N, i.e. the hottest under
	// Zipf) real subscriber clients hold, dealt round-robin over SubClients
	// clients; RawSubs is how many raw RESP subscriber sockets each hold
	// every channel.
	ClientSubs int
	SubClients int
	RawSubs    int
	// Patterns are PSUBSCRIBEd on one extra raw connection.
	Patterns []string
	// ChurnPerSec is the SUBSCRIBE+UNSUBSCRIBE pair rate issued on one extra
	// raw connection, uniformly over all channels.
	ChurnPerSec int

	// Frozen rates, publishes per second. Calibrated once on the seed commit
	// (S = median of three closed-loop sat readings; cruise = 0.15–0.3·S,
	// where generator and node keep the machine about half busy; ramp
	// 0.35·S → 1.4·S; README.md, "Calibration") and never derived at run
	// time, so parent and change always see identical offered load.
	// Recalibrate only in a benchmark issue, by editing these constants.
	CruiseRate float64
	RampLo     float64
	RampHi     float64

	// InFlight is the closed loop's window in publications: 512, fewer where
	// 512 payloads would sit too close to the node's 1 MiB per-session
	// output cap (past it the subscriber is disconnected as a slow consumer).
	InFlight int

	// WarmupMsgs is the closed-loop warm-up between set-up and the first
	// measured phase.
	WarmupMsgs int
}

var workloads = []workload{
	{
		Name:       "small_1to1",
		Why:        "64 B, 16 channels, fan-out 1, real client both ends: per-publication work (parse, stamp, observers, client deliver) sets the rate",
		Payload:    64,
		Channels:   16,
		ClientSubs: 16,
		SubClients: 1,
		CruiseRate: 40000, RampLo: 100000, RampHi: 340000,
		InFlight:   512,
		WarmupMsgs: 20000,
	},
	{
		Name:       "fanout_32",
		Why:        "200 B, 2 channels, 32 raw subscribers on both: per-delivery work (fan-out loop, enqueue, flush batching, writes) dominates; per-publication layers amortised 32x",
		Payload:    200,
		Channels:   2,
		RawSubs:    32,
		CruiseRate: 5000, RampLo: 12000, RampHi: 52000,
		InFlight:   512,
		WarmupMsgs: 4000,
	},
	{
		Name:       "large_4k",
		Why:        "4 KiB, 8 channels, fan-out 1, real clients (1 publisher, 4 subscribers), 80 MB/s: per-byte work (envelope copy, bulk read, replay-ring copy, socket writes) weighs most here",
		Payload:    4 << 10,
		Channels:   8,
		ClientSubs: 8,
		// Four subscriber clients, two channels each: the node disconnects a
		// session whose pending output passes 1 MiB, which at this byte rate
		// is a 13 ms stall of one subscriber but 50 ms of one in four.
		SubClients: 4,
		CruiseRate: 20000, RampLo: 22000, RampHi: 90000,
		InFlight:   128,
		WarmupMsgs: 8000,
	},
	{
		Name:        "churn_zipf",
		Why:         "120 B Zipf(1.0) over 8192 channels, 256 hot client subscriptions, 2 glob patterns, 2000 sub/unsub pairs/s: registry writes beside reads, pattern scans, caches over capacity",
		Payload:     120,
		Channels:    8192,
		Zipf:        true,
		ClientSubs:  256,
		SubClients:  1,
		Patterns:    []string{"b.c.1*", "b.c.*7"},
		ChurnPerSec: 2000,
		CruiseRate:  24000, RampLo: 40000, RampHi: 220000,
		InFlight:   512,
		WarmupMsgs: 12000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const chanPrefix = "b.c."

// chanName is the wire name of channel index i.
func chanName(i int) string { return chanPrefix + strconv.Itoa(i) }

// chanIndex parses a wire name back to its index (-1 for foreign channels).
func chanIndex(name []byte) int {
	if len(name) <= len(chanPrefix) || string(name[:len(chanPrefix)]) != chanPrefix {
		return -1
	}
	n := 0
	for _, c := range name[len(chanPrefix):] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// starMatch matches the single-'*' globs the workloads use. It is the
// benchmark's own reference for which pattern deliveries to expect — kept
// apart from the broker's matcher so a broker bug cannot hide itself.
func starMatch(pattern, s string) bool {
	pre, suf, ok := strings.Cut(pattern, "*")
	if !ok {
		return pattern == s
	}
	return len(s) >= len(pre)+len(suf) && strings.HasPrefix(s, pre) && strings.HasSuffix(s, suf)
}

// expectTable returns, per channel, how many deliveries one publish on it
// must produce: every raw subscriber, the client subscription if the channel
// is among the first ClientSubs, and one pmessage per matching pattern.
func (w workload) expectTable() []uint8 {
	tab := make([]uint8, w.Channels)
	for ch := range tab {
		n := w.RawSubs
		if ch < w.ClientSubs {
			n++
		}
		name := chanName(ch)
		for _, p := range w.Patterns {
			if starMatch(p, name) {
				n++
			}
		}
		tab[ch] = uint8(n)
	}
	return tab
}

// metricSpec names one reported number. BENCHMARK.json carries the same
// lists (plus each end-to-end metric's bound); TestSpecMatchesBenchmarkJSON
// keeps the two in step, and every run checks what it emits against them.
type metricSpec struct {
	Name, Unit, Better string
}

var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"node_cpu_us_per_delivery", "us", "lower"},
	{"node_rss_mb", "MiB", "lower"},
}

// wallClockMetrics are what a user feels — latency and rate. Every run
// measures them, over the same phases, but they carry no bound: on the
// shared two-vCPU machines this runs on they spread 10–50% between runs of
// one commit (README.md, "Known limits"), and no bound the contract admits
// would hold. They are listed in the ledger so that they keep a name and a
// unit, and are to be promoted to bounded metrics on a quiet machine.
var wallClockMetrics = []metricSpec{
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"slo_rate_msgs_per_s", "msgs/s", "higher"},
	{"sat_deliveries_per_s", "deliveries/s", "higher"},
}

// perLayerMetrics is the layer ledger: for every timed layer call its
// nanoseconds and heap allocations per call, then the node's connection-core
// counters, the program's own stage waterfall, generator health, and the
// reconciliation of layers against the end-to-end CPU figure.
var perLayerMetrics = func() []metricSpec {
	var ms []metricSpec
	for _, name := range []string{
		"message.marshal", "message.unmarshal", "message.peek_stamp", "message.stamp_stages",
		"resp.parse_publish", "resp.append_message", "resp.read_push", "resp.write_publish",
		"broker.publish", "broker.publish_replay", "broker.sub_unsub_pair", "broker.pattern_publish",
		"server.publish",
		"lla.on_publish", "obs.topk_record", "obs.lattopk_observe", "metrics.hist_observe",
		"hotstate.get_hit", "hotstate.put_evict", "localplan.lookup", "hashring.lookup",
		"transport.publish", "client.mem_roundtrip",
		"plan.diff",
	} {
		ms = append(ms, metricSpec{name + "_ns", "ns", "lower"}, metricSpec{name + "_allocs", "allocs/op", "lower"})
	}
	for _, name := range []string{
		// Derived (differences and ratios of the above) or timed without an
		// allocation count.
		"broker.publish_per_delivery_ns", "broker.replay_retain_ns", "server.observers_ns",
		"metrics.hist_observe_contended_ns", "client.publish_ns", "client.deliver_self_ns",
		"balancer.generate_plan_ns", "loadgen.stamp_ns",
	} {
		ms = append(ms, metricSpec{name, "ns", "lower"})
	}
	ms = append(ms, wallClockMetrics...)
	return append(ms,
		metricSpec{"conn.deliveries_per_write", "ratio", "higher"},
		metricSpec{"conn.events_per_wakeup", "ratio", "higher"},
		metricSpec{"conn.backpressure_events", "count", "lower"},
		metricSpec{"conn.dropped", "count", "lower"},
		metricSpec{"conn.pingpong_us", "us", "lower"},
		metricSpec{"stage.ingress_p50_us", "us", "lower"}, metricSpec{"stage.ingress_p99_us", "us", "lower"},
		metricSpec{"stage.fanout_p50_us", "us", "lower"}, metricSpec{"stage.fanout_p99_us", "us", "lower"},
		metricSpec{"stage.flush_p50_us", "us", "lower"}, metricSpec{"stage.flush_p99_us", "us", "lower"},
		metricSpec{"stage.deliver_p50_us", "us", "lower"}, metricSpec{"stage.deliver_p99_us", "us", "lower"},
		metricSpec{"loadgen.send_lag_p99_us", "us", "lower"},
		metricSpec{"loadgen.behind_schedule", "count", "lower"},
		metricSpec{"gen_cpu_us_per_delivery", "us", "lower"},
		metricSpec{"reconcile.layers_sum_us", "us", "lower"},
		metricSpec{"reconcile.base_node_cpu_us_per_delivery", "us", "lower"},
		metricSpec{"reconcile.residual_ratio", "ratio", "lower"},
		metricSpec{"trace.overhead_ratio", "ratio", "lower"},
	)
}()

// checkEmitted verifies a run emitted exactly the metrics the spec names,
// with the spec's units.
func checkEmitted(got map[string]metric, want []metricSpec) error {
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not emitted", m.Name)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("metric %s emitted in %q, spec says %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			if !slices.ContainsFunc(want, func(m metricSpec) bool { return m.Name == name }) {
				return fmt.Errorf("metric %s is emitted but not in the spec", name)
			}
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
