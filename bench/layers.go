package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/dispatcher"
	"github.com/dynamoth/dynamoth/internal/hashring"
	"github.com/dynamoth/dynamoth/internal/hotstate"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/localplan"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/metrics"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/resp"
	"github.com/dynamoth/dynamoth/internal/server"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// The traced run. Every layer is measured from outside, through its public
// functions: first against the live node (a traced cruise with the node's
// counters scraped at both edges, a bare-forwarding ping-pong, the TCP
// transport), then in-process — the workload's own seeded message stream is
// replayed through marshal → WritePublish → CommandParser → the assembled
// server.Node's Publish → AppendMessage → ReadMessagePush → Unmarshal, one
// span per layer per batch — and finally each remaining layer on its own.
// Calls are timed in spans of layerBatch so the two clock reads stay under
// 1% of the span.

const layerBatch = 256

// Shares of -seconds in a traced run. The workload's own phases get two
// thirds, so the wall-clock readings in the ledger come from phases nearly
// as long as the untraced run's; a second, shorter cruise with tracing on
// gives trace.overhead_ratio; the rest is split over the layer benches.
const (
	tracedPhasesShare = 0.68
	tracedCruiseShare = 0.13
	pingpongShare     = 0.02
	replayShare       = 0.04
	microShare        = 0.005 // each of 19 standalone layer benches
)

// layerRun accumulates one traced run's spans and metrics.
type layerRun struct {
	w     workload
	o     runOpts
	epoch time.Time
	tr    *tracer
	res   *result

	// The workload's message stream, pre-marshalled: what the node sees.
	names   []string
	frames  [][]byte // client-library envelopes, one per batch slot
	chans   []int
	expect  []uint8
	meanFan float64 // deliveries per publish over the stream
}

func (l *layerRun) since() time.Duration { return time.Since(l.epoch) }

func (l *layerRun) budget(s float64) time.Duration { return share(l.o.seconds, s) }

// measure times op — layerBatch calls per invocation — for about budget and
// reports ns and heap allocations per call under name. A span covers as
// many batches as fit in spanTarget, so a 20 ns call does not write a
// hundred thousand spans.
func (l *layerRun) measure(name, layer string, budget time.Duration, op func(n int)) (nsPerOp float64) {
	const spanTarget = 500 * time.Microsecond
	op(layerBatch) // warm caches and pools outside the timing
	t0 := l.since()
	op(layerBatch)
	reps := int(max(1, spanTarget/max(l.since()-t0, 1)))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := 0
	var total time.Duration
	for start := l.since(); l.since()-start < budget; {
		t0 := l.since()
		for r := 0; r < reps; r++ {
			op(layerBatch)
		}
		t1 := l.since()
		l.tr.add(name, layer, -1, t0, t1, reps*layerBatch)
		total += t1 - t0
		ops += reps * layerBatch
	}
	runtime.ReadMemStats(&m1)
	nsPerOp = float64(total) / float64(ops)
	l.res.set(name+"_ns", nsPerOp, "ns")
	l.res.set(name+"_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(ops), "allocs/op")
	return nsPerOp
}

// collectSink is the in-process stand-in for a connection: an EnqueueSink
// that only notes what it was handed, so Publish is timed without any
// encoding and the deliveries can be encoded afterwards in their own span.
type collectSink struct {
	got *[]collected
}

type collected struct {
	channel, pattern string
	payload          []byte
}

func (s collectSink) Enqueue(channel, pattern string, payload []byte) bool {
	*s.got = append(*s.got, collected{channel, pattern, payload})
	return true
}
func (s collectSink) Deliver(channel string, payload []byte) { s.Enqueue(channel, "", payload) }
func (s collectSink) Closed(error)                           {}

// subscribeShape connects sessions to b the way the workload's subscribers
// connect to the node: one session holding the client's channels, RawSubs
// sessions on every channel, one session holding the patterns.
func (l *layerRun) subscribeShape(b *broker.Broker, got *[]collected) error {
	sink := collectSink{got: got}
	if l.w.ClientSubs > 0 {
		s, err := b.Connect("client", sink)
		if err != nil {
			return err
		}
		if _, err := s.Subscribe(l.names[:l.w.ClientSubs]...); err != nil {
			return err
		}
	}
	for i := 0; i < l.w.RawSubs; i++ {
		s, err := b.Connect(fmt.Sprintf("raw%d", i), sink)
		if err != nil {
			return err
		}
		if _, err := s.Subscribe(l.names...); err != nil {
			return err
		}
	}
	if len(l.w.Patterns) > 0 {
		s, err := b.Connect("patterns", sink)
		if err != nil {
			return err
		}
		if _, err := s.PSubscribe(l.w.Patterns...); err != nil {
			return err
		}
	}
	return nil
}

// publishBench times Broker.Publish on the workload's stream and shape.
func (l *layerRun) publishBench(name string, b *broker.Broker) (float64, error) {
	var got []collected
	if err := l.subscribeShape(b, &got); err != nil {
		return 0, err
	}
	i := 0
	ns := l.measure(name, "broker", l.budget(microShare), func(n int) {
		got = got[:0]
		for ; n > 0; n-- {
			b.Publish(l.names[l.chans[i]], l.frames[i])
			i = (i + 1) % len(l.frames)
		}
	})
	return ns, nil
}

func newBenchNode() (*server.Node, error) {
	initial := plan.New("bench")
	initial.Version = 1
	return server.New(server.Options{
		ID: "bench", NodeNum: 0xD001, Initial: initial,
		// A single-server plan never forwards.
		Forwarder:      dispatcher.ForwarderFunc(func(plan.ServerID, string, []byte) error { return nil }),
		MaxOutgoingBps: 1.25e6, // dynamoth-node's -max-bps default
	})
}

// runTraced produces the per-layer metrics for one workload.
func runTraced(w workload, o runOpts) (*result, error) {
	res := &result{Workload: w.Name, Metrics: map[string]metric{}, Detail: map[string]any{}}
	l := &layerRun{w: w, o: o, tr: newTracer(), res: res, expect: w.expectTable()}
	l.buildStream()

	nodeCPUus, err := l.liveNode()
	if err != nil {
		return nil, err
	}
	serverNs, appendNs, parseNs, err := l.replayPipeline()
	if err != nil {
		return nil, err
	}
	if err := l.brokerLayers(serverNs); err != nil {
		return nil, err
	}
	l.observerLayers()
	l.cacheLayers()
	if err := l.clientMem(serverNs); err != nil {
		return nil, err
	}
	l.controlPlane()

	// Reconciliation: what the node-side layers reachable from outside add
	// up to per delivery, against what the node's CPU clock says a delivery
	// cost. The residual is kernel, scheduler and the connection core.
	layersUs := ((parseNs+serverNs)/l.meanFan + appendNs) / 1e3
	res.set("reconcile.layers_sum_us", layersUs, "us")
	res.set("reconcile.base_node_cpu_us_per_delivery", nodeCPUus, "us")
	res.set("reconcile.residual_ratio", (nodeCPUus-layersUs)/max(nodeCPUus, 1e-9), "ratio")

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.Name, o.seed))
	if err := writeSpans(path, l.tr.all()); err != nil {
		return nil, err
	}
	res.Detail["spans"] = len(l.tr.all())
	res.Detail["spans_file"] = path
	return res, checkEmitted(res.Metrics, perLayerMetrics)
}

// buildStream draws layerBatch messages of the workload's seeded stream and
// wraps each in the client library's envelope.
func (l *layerRun) buildStream() {
	l.names = make([]string, l.w.Channels)
	for i := range l.names {
		l.names[i] = chanName(i)
	}
	pick := newChooser(l.w.Channels, l.w.Zipf)
	rnd := rng{s: uint64(l.o.seed)}
	gen := message.NewGenerator(1001)
	seq := make([]uint64, l.w.Channels)
	deliveries := 0
	for i := 0; i < layerBatch; i++ {
		ch := pick.draw(&rnd)
		payload := appendPayload(nil, time.Duration(i), time.Duration(i), phCruise, ch, seq[ch], l.w.Payload)
		seq[ch]++
		env := message.Envelope{
			Type: message.TypeData, ID: gen.Next(), Channel: l.names[ch],
			Payload: payload, PlanVersion: 1, Stamp: time.Now().UnixNano(),
		}
		l.frames = append(l.frames, env.Marshal())
		l.chans = append(l.chans, ch)
		deliveries += int(l.expect[ch])
	}
	l.meanFan = max(float64(deliveries)/layerBatch, 1.0/layerBatch)
}

// liveNode runs everything that needs the real node: the workload's own
// phases, untraced (the ledger's wall-clock readings come from these) and,
// between cruise and sat, a second cruise with tracing on, the counter
// deltas and stage digests around it, the ping-pong and the TCP transport.
func (l *layerRun) liveNode() (nodeCPUus float64, err error) {
	res := l.res
	g, _, err := setup(l.w, l.o.nodeBin, l.o.seed)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	defer g.close()
	if err := g.warmUp(); err != nil {
		return 0, err
	}
	l.epoch = g.epoch // one clock for generator spans and layer spans
	err = g.runPhases(phasesFor(l.o.seconds*tracedPhasesShare), res, func(ended phaseID, plain cruiseResult) error {
		if ended != phCruise {
			return nil
		}
		nodeCPUus, err = l.tracedCruise(g, l.budget(tracedCruiseShare), plain)
		return err
	})
	if err != nil {
		return 0, err
	}
	// The bounded end-to-end readings of these shorter phases are kept for
	// the reader, not reported as metrics: those come from the untraced run.
	short := map[string]metric{}
	for _, m := range endToEndMetrics {
		if v, ok := res.Metrics[m.Name]; ok {
			short[m.Name] = v
			delete(res.Metrics, m.Name)
		}
	}
	res.Detail["end_to_end_short_phases"] = short
	return nodeCPUus, nil
}

// tracedCruise repeats the cruise with spans on and measures what needs the
// node alive and not yet overloaded.
func (l *layerRun) tracedCruise(g *gen, dur time.Duration, plain cruiseResult) (nodeCPUus float64, err error) {
	res := l.res
	g.tr, g.tracing = l.tr, true
	if g.mux != nil {
		g.mux.timing.Store(true)
	}
	before, err := scrapeFamilies(g.node.AdminAddr, "dynamoth_broker_")
	if err != nil {
		return 0, err
	}
	traced := g.cruise(dur, periodic(l.w.CruiseRate))
	after, err := scrapeFamilies(g.node.AdminAddr, "dynamoth_broker_")
	if err != nil {
		return 0, err
	}
	g.tracing = false
	if g.mux != nil {
		g.mux.timing.Store(false)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	res.set("conn.deliveries_per_write", ratio(delta("dynamoth_broker_delivered_total"), delta("dynamoth_broker_epoll_writes_total")), "ratio")
	res.set("conn.events_per_wakeup", ratio(delta("dynamoth_broker_epoll_events_total"), delta("dynamoth_broker_epoll_wakeups_total")), "ratio")
	res.set("conn.backpressure_events", delta("dynamoth_broker_conn_backpressure_total"), "count")
	res.set("conn.dropped", delta("dynamoth_broker_dropped_total"), "count")

	res.set("loadgen.send_lag_p99_us", traced.lagP99us, "us")
	res.set("loadgen.behind_schedule", float64(g.behind), "count")
	res.set("gen_cpu_us_per_delivery", traced.genCPUus, "us")
	res.set("trace.overhead_ratio", ratio(traced.genCPUus-plain.genCPUus, plain.genCPUus), "ratio")
	res.Detail["cruise_traced"] = traced.detail

	// The program's own waterfall, scraped: node-side legs from
	// /debug/latency, the deliver leg from the subscriber client.
	stages, err := fetchStages(g.node.AdminAddr)
	if err != nil {
		return 0, err
	}
	for _, name := range []string{"ingress", "fanout", "flush"} {
		var s stageSummary
		for _, st := range stages {
			if st.Stage == name {
				s = st
			}
		}
		res.set("stage."+name+"_p50_us", s.P50ms*1e3, "us")
		res.set("stage."+name+"_p99_us", s.P99ms*1e3, "us")
	}
	var d50, d99 float64
	if len(g.subs) > 0 {
		_, _, deliver := g.subs[0].StageLatencies()
		d50 = float64(deliver.Quantile(0.5)) / 1e3
		d99 = float64(deliver.Quantile(0.99)) / 1e3
	}
	res.set("stage.deliver_p50_us", d50, "us")
	res.set("stage.deliver_p99_us", d99, "us")

	if err := l.pingpong(g.node.RespAddr); err != nil {
		return 0, err
	}
	if err := l.tcpTransport(g.node.RespAddr); err != nil {
		return 0, err
	}
	totals := selfTimes(l.tr.all())
	res.set("client.publish_ns", nsPerOp(totals, "client.publish"), "ns")
	res.set("loadgen.stamp_ns", nsPerOp(totals, "loadgen.stamp"), "ns")
	// The reconciliation's base is the untraced cruise's figure: the longer
	// phase, and the one the end-to-end metric is defined on.
	return plain.nodeCPUus, nil
}

// traceWake records a sampled receiver wake-up span.
func (g *gen) traceWake(frames int, start, end time.Duration) {
	g.recvWake++
	if g.recvWake%spanSample == 0 {
		g.tr.add("gen.receive_verify", "loadgen", -1, start, end, frames)
	}
}

// pingpong measures bare forwarding: one raw socket that is both
// subscriber and publisher, one 64 B message in flight.
func (l *layerRun) pingpong(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close() //nolint:errcheck // teardown
	r := resp.NewReader(conn)
	if _, err := conn.Write(resp.AppendCommandStrings(nil, "SUBSCRIBE", "b.pingpong")); err != nil {
		return err
	}
	if _, err := r.ReadValue(); err != nil {
		return err
	}
	cmd := resp.AppendCommandStrings(nil, "PUBLISH", "b.pingpong", string(bytes.Repeat([]byte("x"), 64)))
	var rtts []float64
	deadline := time.Now().Add(l.budget(pingpongShare))
	for time.Now().Before(deadline) {
		t0 := l.since()
		if _, err := conn.Write(cmd); err != nil {
			return err
		}
		// The push and the publish's integer reply arrive in either order.
		for seen := 0; seen < 2; seen++ {
			if _, err := r.ReadValue(); err != nil {
				return err
			}
		}
		t1 := l.since()
		rtts = append(rtts, float64(t1-t0)/1e3)
		if len(rtts)%spanSample == 0 {
			l.tr.add("conn.pingpong", "broker", -1, t0, t1, 1)
		}
	}
	l.res.set("conn.pingpong_us", median(rtts), "us")
	l.res.Detail["pingpong_samples"] = len(rtts)
	return nil
}

type discardHandler struct{}

func (discardHandler) OnMessage(string, []byte) {}
func (discardHandler) OnDisconnect(error)       {}

// tcpTransport times the pipelined TCP transport's Publish against the live
// node, on a channel nobody subscribes to.
func (l *layerRun) tcpTransport(addr string) error {
	d := transport.NewTCPDialer(map[plan.ServerID]string{"bench": addr})
	conn, err := d.Dial("bench", discardHandler{})
	if err != nil {
		return err
	}
	defer conn.Close() //nolint:errcheck // teardown
	outstanding := conn.(interface{ Outstanding() int64 })
	var pubErr error
	l.measure("transport.publish", "transport", l.budget(microShare), func(n int) {
		for i := 0; i < n; i++ {
			if err := conn.Publish("b.unsubscribed", l.frames[i%len(l.frames)]); err != nil {
				pubErr = err
			}
		}
	})
	for deadline := time.Now().Add(5 * time.Second); outstanding.Outstanding() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return pubErr
}

// replayPipeline pushes the workload's stream through the layers a
// publication crosses, in order, one span per layer per batch.
func (l *layerRun) replayPipeline() (serverNs, appendNs, parseNs float64, err error) {
	node, err := newBenchNode()
	if err != nil {
		return 0, 0, 0, err
	}
	defer node.Close()
	var got []collected
	if err := l.subscribeShape(node.Broker, &got); err != nil {
		return 0, 0, 0, err
	}
	gen := message.NewGenerator(1001)
	var (
		payloads = make([][]byte, layerBatch)
		frames   = make([][]byte, layerBatch)
		arena    []byte
		wire     bytes.Buffer
		parser   resp.CommandParser
		out      []byte
		pushed   [][]byte
	)
	type parsed struct {
		ch      int
		payload []byte
	}
	cmds := make([]parsed, 0, layerBatch)
	seq := make([]uint64, l.w.Channels)
	var m0, m1 runtime.MemStats
	stages := []string{"replay.stamp", "message.marshal", "resp.write_publish", "resp.parse_publish",
		"server.publish", "resp.append_message", "resp.read_push", "message.unmarshal"}
	allocs := make([]uint64, len(stages))
	ops := make([]int, len(stages))
	mark := func(i int, parent int, t0 time.Duration, n int) time.Duration {
		t1 := l.since()
		l.tr.add(stages[i], stageLayer(stages[i]), parent, t0, t1, n)
		runtime.ReadMemStats(&m1)
		allocs[i] += m1.Mallocs - m0.Mallocs
		ops[i] += n
		m0 = m1
		return l.since()
	}
	budget := l.budget(replayShare)
	for start := l.since(); l.since()-start < budget; {
		batchStart := l.since()
		parent := l.tr.add("replay.batch", "loadgen", -1, batchStart, batchStart, layerBatch)
		runtime.ReadMemStats(&m0)
		t := l.since()

		arena = arena[:0]
		for i := range payloads {
			ch := l.chans[i]
			from := len(arena)
			arena = appendPayload(arena, t, t, phCruise, ch, seq[ch], l.w.Payload)
			payloads[i] = arena[from:len(arena):len(arena)]
			seq[ch]++
		}
		t = mark(0, parent, t, layerBatch)

		for i := range frames {
			env := message.Envelope{
				Type: message.TypeData, ID: gen.Next(), Channel: l.names[l.chans[i]],
				Payload: payloads[i], PlanVersion: 1, Stamp: time.Now().UnixNano(),
			}
			frames[i] = env.AppendMarshal(frames[i][:0])
		}
		t = mark(1, parent, t, layerBatch)

		wire.Reset()
		pw := resp.NewWriter(&wire)
		for i := range frames {
			if err := pw.WritePublish(l.names[l.chans[i]], frames[i]); err != nil {
				return 0, 0, 0, err
			}
		}
		if err := pw.Flush(); err != nil {
			return 0, 0, 0, err
		}
		t = mark(2, parent, t, layerBatch)

		parser.Feed(wire.Bytes())
		cmds = cmds[:0]
		for {
			args, err := parser.Next()
			if err != nil {
				return 0, 0, 0, err
			}
			if args == nil {
				break
			}
			cmds = append(cmds, parsed{ch: chanIndex(args[1]), payload: args[2]})
		}
		if len(cmds) != layerBatch {
			return 0, 0, 0, fmt.Errorf("replay: parsed %d of %d commands", len(cmds), layerBatch)
		}
		t = mark(3, parent, t, layerBatch)

		got = got[:0]
		for _, c := range cmds {
			node.Broker.Publish(l.names[c.ch], c.payload)
		}
		t = mark(4, parent, t, layerBatch)

		out = out[:0]
		for _, d := range got {
			if d.pattern != "" {
				out = resp.AppendPMessage(out, d.pattern, d.channel, d.payload)
			} else {
				out = resp.AppendMessage(out, d.channel, d.payload)
			}
		}
		t = mark(5, parent, t, len(got))

		pushed = pushed[:0]
		rd := resp.NewReader(bytes.NewReader(out))
		for {
			_, payload, ok, err := rd.ReadMessagePush()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, 0, 0, err
			}
			if ok {
				pushed = append(pushed, payload)
			}
		}
		t = mark(6, parent, t, len(got))

		for _, p := range pushed {
			if _, err := message.Unmarshal(p); err != nil {
				return 0, 0, 0, err
			}
		}
		t = mark(7, parent, t, len(pushed))
		l.tr.setEnd(parent, t)
	}
	totals := selfTimes(l.tr.all())
	for i, name := range stages {
		if name == "replay.stamp" {
			continue // loadgen.stamp_ns is reported from the live sender's spans
		}
		l.res.set(name+"_ns", nsPerOp(totals, name), "ns")
		if ops[i] > 0 {
			l.res.set(name+"_allocs", float64(allocs[i])/float64(ops[i]), "allocs/op")
		} else {
			l.res.set(name+"_allocs", 0, "allocs/op")
		}
	}
	return nsPerOp(totals, "server.publish"), nsPerOp(totals, "resp.append_message"), nsPerOp(totals, "resp.parse_publish"), nil
}

func stageLayer(name string) string {
	for i := range name {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// brokerLayers times the bare broker on the workload's stream and shape:
// publish, the replay ring's price as a feature-cost pair, subscription
// writes, and pattern matching.
func (l *layerRun) brokerLayers(serverNs float64) error {
	bare := broker.New(broker.Options{Name: "bare"})
	defer bare.Close()
	bareNs, err := l.publishBench("broker.publish", bare)
	if err != nil {
		return err
	}
	l.res.set("broker.publish_per_delivery_ns", bareNs/l.meanFan, "ns")

	ring := broker.New(broker.Options{Name: "ring", ReplayDepth: server.DefaultReplayDepth})
	defer ring.Close()
	ringNs, err := l.publishBench("broker.publish_replay", ring)
	if err != nil {
		return err
	}
	l.res.set("broker.replay_retain_ns", ringNs-bareNs, "ns")
	// What the assembled node adds on top of a replay-enabled broker: stage
	// stamping, the LLA, the latency observer, both top-K trackers.
	l.res.set("server.observers_ns", serverNs-ringNs, "ns")

	churn := broker.New(broker.Options{Name: "churn"})
	defer churn.Close()
	var got []collected
	s, err := churn.Connect("churn", collectSink{got: &got})
	if err != nil {
		return err
	}
	i := 0
	var subErr error
	l.measure("broker.sub_unsub_pair", "broker", l.budget(microShare), func(n int) {
		for ; n > 0; n-- {
			name := l.names[i%len(l.names)]
			if _, err := s.Subscribe(name); err != nil {
				subErr = err
			}
			if _, err := s.Unsubscribe(name); err != nil {
				subErr = err
			}
			i++
		}
	})
	if subErr != nil {
		return subErr
	}

	pat := broker.New(broker.Options{Name: "patterns"})
	defer pat.Close()
	ps, err := pat.Connect("patterns", collectSink{got: &got})
	if err != nil {
		return err
	}
	if _, err := ps.PSubscribe("b.c.1*", "b.c.*7"); err != nil {
		return err
	}
	j := 0
	l.measure("broker.pattern_publish", "broker", l.budget(microShare), func(n int) {
		got = got[:0]
		for ; n > 0; n-- {
			pat.Publish(l.names[l.chans[j]], l.frames[j])
			j = (j + 1) % len(l.frames)
		}
	})
	return nil
}

// observerLayers times each per-publication observer the node installs, and
// the envelope peeks and stamps they and the broker perform.
func (l *layerRun) observerLayers() {
	b := l.budget(microShare)
	i := 0
	next := func() (string, []byte) {
		i = (i + 1) % len(l.frames)
		return l.names[l.chans[i]], l.frames[i]
	}
	var sink int64
	l.measure("message.peek_stamp", "message", b, func(n int) {
		for ; n > 0; n-- {
			_, f := next()
			s, _ := message.PeekStageStamp(f)
			sink += s.Stamp
		}
	})
	l.measure("message.stamp_stages", "message", b, func(n int) {
		for ; n > 0; n-- {
			_, f := next()
			stamp, _ := message.StampStages(f, sink, sink+1000)
			message.StampChannelSeq(f, 1, uint64(n))
			sink = stamp
		}
	})
	an := lla.NewAnalyzer(lla.Config{Server: "bench", MaxOutgoingBps: 1.25e6})
	l.measure("lla.on_publish", "lla", b, func(n int) {
		for ; n > 0; n-- {
			ch, f := next()
			an.OnPublish(ch, f, int(l.expect[l.chans[i]]))
		}
	})
	an.Stop()
	topk := obs.NewTopK(-1, time.Now)
	l.measure("obs.topk_record", "obs", b, func(n int) {
		for ; n > 0; n-- {
			ch, _ := next()
			topk.Record(ch)
		}
	})
	lat := obs.NewLatencyTopK(-1, time.Now)
	l.measure("obs.lattopk_observe", "obs", b, func(n int) {
		for ; n > 0; n-- {
			ch, _ := next()
			lat.Observe(ch, time.Duration(100+n)*time.Microsecond)
		}
	})
	// The node's e2e histogram shape (internal/server/obs.go).
	h := metrics.NewHistogram(100*time.Microsecond, 30*time.Second, 160)
	l.measure("metrics.hist_observe", "metrics", b, func(n int) {
		for ; n > 0; n-- {
			h.Observe(time.Duration(100+n) * time.Microsecond)
		}
	})
	// Contended: nproc goroutines on the one histogram, as concurrent
	// publishes on a multi-shard node are. Reported per call per goroutine.
	procs := runtime.GOMAXPROCS(0)
	ops := 0
	var total time.Duration
	for start := l.since(); l.since()-start < b; {
		var wg sync.WaitGroup
		t0 := l.since()
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < layerBatch*4; n++ {
					h.Observe(time.Duration(100+n) * time.Microsecond)
				}
			}()
		}
		wg.Wait()
		t1 := l.since()
		l.tr.add("metrics.hist_observe_contended", "metrics", -1, t0, t1, layerBatch*4)
		total += t1 - t0
		ops += layerBatch * 4
	}
	l.res.set("metrics.hist_observe_contended_ns", float64(total)/float64(ops), "ns")
}

// cacheLayers times the bounded hot-state structures at the capacity the
// node and client run them at, with the workload's channel universe.
func (l *layerRun) cacheLayers() {
	b := l.budget(microShare)
	const capacity = obs.DefaultLatencyTopKCap // 4096, as the client and latency top-K caches
	c := hotstate.New[string, int](hotstate.Config[string, int]{Capacity: capacity})
	keys := make([]string, 2*capacity)
	for i := range keys {
		keys[i] = chanName(i)
		if i < capacity {
			c.Put(keys[i], i)
		}
	}
	i, sink := 0, 0
	l.measure("hotstate.get_hit", "hotstate", b, func(n int) {
		for ; n > 0; n-- {
			// A hit when the key is resident; the first `capacity` keys were.
			v, _ := c.Get(keys[i%capacity])
			sink += v
			i++
		}
	})
	l.measure("hotstate.put_evict", "hotstate", b, func(n int) {
		for ; n > 0; n-- {
			c.Put(keys[i%len(keys)], i) // the key space is twice the capacity
			i++
		}
	})
	servers := []plan.ServerID{"s1", "s2", "s3", "s4"}
	store := localplan.New(servers, 30*time.Second)
	now := time.Now()
	for ch := 0; ch < min(l.w.Channels, capacity); ch++ {
		store.Update(l.names[ch], plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s2"}}, 2, now)
	}
	l.measure("localplan.lookup", "localplan", b, func(n int) {
		for ; n > 0; n-- {
			e, _ := store.Lookup(l.names[l.chans[i%len(l.chans)]], now)
			sink += len(e.Servers)
			i++
		}
	})
	ring := hashring.New(0, "s1", "s2", "s3", "s4")
	l.measure("hashring.lookup", "hashring", b, func(n int) {
		for ; n > 0; n-- {
			sink += len(ring.Lookup(keys[i%len(keys)]))
			i++
		}
	})
	l.res.Detail["sink"] = sink
}

// clientMem times the client library end to end with no network: a client
// over the in-process transport to an assembled node, one message in flight.
func (l *layerRun) clientMem(serverNs float64) error {
	node, err := newBenchNode()
	if err != nil {
		return err
	}
	defer node.Close()
	dialer := transport.NewMemDialer(map[plan.ServerID]*broker.Broker{"bench": node.Broker}, transport.MemDialerOptions{})
	defer dialer.Close()
	c, err := dynamoth.ConnectWithDialer(dialer, []string{"bench"}, dynamoth.Config{NodeID: 1003})
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // teardown
	msgs, err := c.Subscribe(l.names[0])
	if err != nil {
		return err
	}
	payload := appendPayload(nil, 0, 0, phCruise, 0, 0, l.w.Payload)
	var pubErr error
	ns := l.measure("client.mem_roundtrip", "client", l.budget(microShare), func(n int) {
		for ; n > 0; n-- {
			if err := c.Publish(l.names[0], payload); err != nil {
				pubErr = err
				return
			}
			<-msgs
		}
	})
	if pubErr != nil {
		return pubErr
	}
	l.res.set("client.deliver_self_ns", ns-serverNs, "ns")
	return nil
}

// controlPlane times the planner, which no data-path metric should feel;
// listed so a planner change has a number.
func (l *layerRun) controlPlane() {
	servers := []plan.ServerID{"s1", "s2", "s3", "s4"}
	current := plan.New(servers...)
	current.Version = 1
	loads := make([]balancer.ServerLoad, len(servers))
	for i, s := range servers {
		loads[i] = balancer.ServerLoad{Server: string(s), MaxBps: 1.25e6, Channels: map[string]balancer.ChannelLoad{}}
	}
	for ch := 0; ch < 1000; ch++ {
		name := chanName(ch)
		sl := &loads[slices.Index(servers, current.Home(name))]
		bps := 2000.0 / float64(ch+1) * 1000
		sl.Channels[name] = balancer.ChannelLoad{Publishers: 1, Publications: 10, Subscribers: 4, MessagesSent: 40, BytesIn: bps / 4, BytesOut: bps}
		sl.MeasuredBps += bps
	}
	planner := balancer.NewPlanner(balancer.DefaultConfig(), nil, nil, 1.25e6)
	var next *plan.Plan
	ops := 0
	var total time.Duration
	for start := l.since(); l.since()-start < l.budget(microShare); ops++ {
		t0 := l.since()
		d := planner.GeneratePlan(current, loads)
		t1 := l.since()
		l.tr.add("balancer.generate_plan", "balancer", -1, t0, t1, 1)
		total += t1 - t0
		if d.Plan != nil {
			next = d.Plan
		}
	}
	l.res.set("balancer.generate_plan_ns", float64(total)/float64(max(ops, 1)), "ns")
	if next == nil {
		next = current.Clone()
		next.Set(chanName(0), plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s2"}})
	}
	sink := 0
	l.measure("plan.diff", "plan", l.budget(microShare), func(n int) {
		for ; n > 0; n-- {
			sink += len(next.Diff(current))
		}
	})
}
