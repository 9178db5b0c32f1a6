// Benchmarks reproducing every table and figure of the paper's evaluation
// (§V) at a reduced, shape-preserving scale, plus microbenchmarks of the
// substrates on the hot path. Run the full-scale figures with
// cmd/experiments instead:
//
//	go test -bench=. -benchmem            # everything below
//	go run ./cmd/experiments -run all     # paper-scale reproduction
//
// Figure benches report their headline numbers as custom metrics
// (mean response time, max healthy clients, server counts), so the
// paper-vs-measured comparison of EXPERIMENTS.md can be regenerated from
// the bench output alone.
package dynamoth_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/cluster"
	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/experiment"
	"github.com/dynamoth/dynamoth/internal/hashring"
	"github.com/dynamoth/dynamoth/internal/localplan"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/resp"
	"github.com/dynamoth/dynamoth/internal/sim"
	"github.com/dynamoth/dynamoth/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 4a — Experiment 1 "All Publishers" (§V-C1): response time vs
// subscriber count, with and without all-publishers replication.

func BenchmarkFig4aAllPublishers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiment.RunFig4a(experiment.MicroOptions{
			Steps:   []int{100, 300, 500, 700},
			Measure: 10 * time.Second,
			Seed:    int64(i + 1),
		})
		if i == 0 {
			rtPlain, _ := res.Series.Get(700, "noRepl_ms")
			rtRepl, _ := res.Series.Get(700, "repl_ms")
			b.ReportMetric(rtPlain, "noRepl_ms@700subs")
			b.ReportMetric(rtRepl, "repl_ms@700subs")
			b.ReportMetric(float64(res.MaxHealthyNoRepl), "healthy_noRepl_subs")
			b.ReportMetric(float64(res.MaxHealthyRepl), "healthy_repl_subs")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 4b — Experiment 1 "All Subscribers" (§V-C2): response time and
// delivery vs publisher count, with and without all-subscribers replication.

func BenchmarkFig4bAllSubscribers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiment.RunFig4b(experiment.MicroOptions{
			Steps:   []int{100, 200, 400, 600},
			Measure: 10 * time.Second,
			Seed:    int64(i + 1),
		})
		if i == 0 {
			delivPlain, _ := res.Series.Get(400, "noRepl_delivery")
			delivRepl, _ := res.Series.Get(400, "repl_delivery")
			b.ReportMetric(delivPlain*100, "noRepl_delivery_pct@400pubs")
			b.ReportMetric(delivRepl*100, "repl_delivery_pct@400pubs")
			b.ReportMetric(float64(res.MaxHealthyNoRepl), "healthy_noRepl_pubs")
			b.ReportMetric(float64(res.MaxHealthyRepl), "healthy_repl_pubs")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 5 — Experiment 2 (§V-D): the scalability comparison. One bench per
// curve: Dynamoth and the consistent-hashing baseline, same workload.

func benchScalability(b *testing.B, mode sim.Mode) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiment.RunScalability(mode, 480, 400*time.Second, int64(i+1))
		if i == 0 {
			b.ReportMetric(float64(res.MaxHealthyPlayers), "healthy_players")
			b.ReportMetric(res.MeanRTms, "steady_rt_ms")
			b.ReportMetric(float64(res.PeakServers), "peak_servers")
			b.ReportMetric(float64(res.Rebalances), "rebalances")
		}
	}
}

func BenchmarkFig5ScalabilityDynamoth(b *testing.B) {
	benchScalability(b, sim.ModeDynamoth)
}

func BenchmarkFig5ScalabilityConsistentHashing(b *testing.B) {
	benchScalability(b, sim.ModeConsistentHashing)
}

// ---------------------------------------------------------------------------
// Figure 6 — Experiment 2's per-server load ratios for the Dynamoth run: the
// balancer must keep the average below 1 until global saturation.

func BenchmarkFig6LoadRatios(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiment.RunScalability(sim.ModeDynamoth, 480, 400*time.Second, int64(i+1))
		if i == 0 {
			// Average and busiest load ratio midway through the ramp
			// (while the system is healthy).
			avg, _ := res.Series.Get(200, "avgLR")
			max, _ := res.Series.Get(200, "maxLR")
			b.ReportMetric(avg, "avgLR_midrun")
			b.ReportMetric(max, "maxLR_midrun")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 7 — Experiment 3 (§V-E): elasticity under a rise/drop/rise wave.

func BenchmarkFig7Elasticity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiment.RunElasticity(400, 100, 300, 160*time.Second, int64(i+1))
		if i == 0 {
			b.ReportMetric(float64(res.PeakServers), "peak_servers")
			b.ReportMetric(float64(res.FinalServers), "final_servers")
			b.ReportMetric(res.MeanRTms, "steady_rt_ms")
			b.ReportMetric(float64(res.Rebalances), "rebalances")
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate microbenchmarks (the hot paths under every figure above).

func BenchmarkEnvelopeMarshal(b *testing.B) {
	env := &message.Envelope{
		Type:    message.TypeData,
		ID:      message.ID{Node: 7, Seq: 42},
		Channel: "tile-3-4",
		Payload: make([]byte, 200),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = env.Marshal()
	}
}

func BenchmarkEnvelopeUnmarshal(b *testing.B) {
	env := &message.Envelope{
		Type:    message.TypeData,
		ID:      message.ID{Node: 7, Seq: 42},
		Channel: "tile-3-4",
		Payload: make([]byte, 200),
	}
	data := env.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := message.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashringLookup(b *testing.B) {
	ring := hashring.New(128, "pub1", "pub2", "pub3", "pub4", "pub5", "pub6", "pub7", "pub8")
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("tile-%d-%d", i%16, i/16)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ring.Lookup(keys[i%len(keys)])
	}
}

func BenchmarkPlanLookup(b *testing.B) {
	p := plan.New("pub1", "pub2", "pub3", "pub4")
	for i := 0; i < 32; i++ {
		p.Set(fmt.Sprintf("tile-%d", i), plan.Entry{
			Strategy: plan.StrategySingle,
			Servers:  []plan.ServerID{fmt.Sprintf("pub%d", i%4+1)},
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = p.Lookup(fmt.Sprintf("tile-%d", i%64))
	}
}

func BenchmarkDeduperObserve(b *testing.B) {
	d := message.NewDeduper(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Observe(message.ID{Node: 1, Seq: uint64(i)})
	}
}

func BenchmarkBrokerFanOut(b *testing.B) {
	for _, subs := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			// Replay and stage stamping on (the cluster defaults): raw
			// payloads take the peek-and-skip path through both hooks, which
			// must stay allocation-free.
			br := broker.New(broker.Options{
				OutputBuffer: 1 << 16,
				ReplayDepth:  256,
				NowNanos:     func() int64 { return time.Now().UnixNano() },
			})
			defer br.Close()
			connect := func() {
				for br.Subscribers("bench") < subs {
					s, err := br.Connect("c", discardSink{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.Subscribe("bench"); err != nil {
						b.Fatal(err)
					}
				}
			}
			connect()
			payload := make([]byte, 200)
			kills := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := br.Publish("bench", payload); got != subs {
					// A maximum-pressure publisher can outrun a consumer's
					// writer goroutine; the broker then kills the slow
					// consumer exactly like Redis. Reconnect and keep
					// measuring (the kill rate is reported).
					kills++
					connect()
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(kills)/float64(b.N)*100, "slow_consumer_kills_%")
			}
		})
	}
}

type discardSink struct{}

func (discardSink) Deliver(string, []byte) {}
func (discardSink) Closed(error)           {}

// BenchmarkBrokerPublishParallel measures concurrent publishes to disjoint
// channels — the case the sharded subscription registry exists for. Each
// worker cycles through its own slice of the channel space, so with lock
// striping publishers should (almost) never contend.
func BenchmarkBrokerPublishParallel(b *testing.B) {
	br := broker.New(broker.Options{
		OutputBuffer: 1 << 16,
		ReplayDepth:  256,
		NowNanos:     func() int64 { return time.Now().UnixNano() },
	})
	defer br.Close()
	const channels = 64
	names := make([]string, channels)
	for i := range names {
		names[i] = fmt.Sprintf("par-%d", i)
		s, err := br.Connect("c", discardSink{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Subscribe(names[i]); err != nil {
			b.Fatal(err)
		}
	}
	payload := make([]byte, 200)
	var workers atomic.Int64
	var misses atomic.Int64
	b.SetParallelism(4)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(workers.Add(1))
		for pb.Next() {
			if got := br.Publish(names[i%channels], payload); got != 1 {
				// A starved writer goroutine can be culled as a slow
				// consumer under maximum pressure; track it like
				// BenchmarkBrokerFanOut does rather than failing.
				misses.Add(1)
			}
			i++
		}
	})
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(misses.Load())/float64(b.N)*100, "missed_publishes_%")
	}
}

// BenchmarkBrokerPublishReplay isolates the replay retain path: stamped data
// envelopes published to a channel whose ring has wrapped, so every publish
// assigns a sequence, stamps the frame in place, and copies its body into
// the ring's laid-out buffer. Steady state must be zero allocations per publish — the ring is
// on the hot path of every replay-enabled broker. (No subscribers: each
// published buffer is stamped in place and the bench reuses it, which a
// concurrent fan-out reader must never observe.) Stage stamping is on, so
// this is also the full staged-publish hot path: sequence + ingress/fanout
// marks + ring retain, all in place.
func BenchmarkBrokerPublishReplay(b *testing.B) {
	br := broker.New(broker.Options{
		OutputBuffer: 1 << 16,
		ReplayDepth:  256,
		NowNanos:     func() int64 { return time.Now().UnixNano() },
	})
	defer br.Close()
	env := &message.Envelope{
		Type:    message.TypeData,
		ID:      message.ID{Node: 7, Seq: 42},
		Channel: "bench",
		Payload: make([]byte, 200),
		Stamp:   time.Now().UnixNano(),
	}
	frame := env.Marshal()
	// Wrap the ring before the clock starts so the timed region measures
	// writes into the laid-out buffer, not first-lap growth.
	for i := 0; i < 512; i++ {
		br.Publish("bench", frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Publish("bench", frame)
	}
	b.StopTimer()
	if st := br.Stats(); st.ReplayRetained < uint64(b.N) {
		b.Fatalf("retained %d frames, want >= %d (replay path not exercised)", st.ReplayRetained, b.N)
	}
}

// serveRoomy serves br on ln with a slow-consumer limit no benchmark burst
// reaches, so throughput runs never lose a subscriber. It returns when the
// listener closes.
func serveRoomy(ln net.Listener, br *broker.Broker) {
	broker.NewConnServer(br, broker.ServeOptions{WriteBufferLimit: 64 << 20}).Serve(ln) //nolint:errcheck
}

// BenchmarkTCPEndToEnd drives the full RESP path over loopback TCP: a
// pipelined publisher and subs subscriber connections, with every delivery
// read back off the wire before the clock stops. This is the syscall-bound
// path that writer coalescing is meant to amortize.
func BenchmarkTCPEndToEnd(b *testing.B) {
	for _, subs := range []int{1, 8} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			br := broker.New(broker.Options{})
			defer br.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			go serveRoomy(ln, br)
			addr := ln.Addr().String()

			var received atomic.Int64
			for i := 0; i < subs; i++ {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				w := resp.NewWriter(conn)
				r := resp.NewReader(conn)
				if err := w.WriteCommand([]byte("SUBSCRIBE"), []byte("bench")); err != nil {
					b.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
				if _, err := r.ReadValue(); err != nil { // subscribe ack
					b.Fatal(err)
				}
				go func() {
					for {
						if _, err := r.ReadValue(); err != nil {
							return
						}
						received.Add(1)
					}
				}()
			}

			pub, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatal(err)
			}
			defer pub.Close()
			pw := resp.NewWriter(pub)
			pr := resp.NewReader(pub)
			payload := make([]byte, 200)

			// Pipeline publishes in batches, and keep the publisher's lead
			// over the slowest subscriber bounded so nobody overflows their
			// output buffer and gets culled mid-benchmark.
			const pipeline = 64
			const maxLead = 16384
			waitFor := func(want int64) {
				deadline := time.Now().Add(30 * time.Second)
				for received.Load() < want {
					if time.Now().After(deadline) {
						b.Fatalf("stalled: received %d of %d deliveries", received.Load(), want)
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			published := 0
			for published < b.N {
				n := pipeline
				if rem := b.N - published; rem < n {
					n = rem
				}
				for j := 0; j < n; j++ {
					if err := pw.WriteCommand([]byte("PUBLISH"), []byte("bench"), payload); err != nil {
						b.Fatal(err)
					}
				}
				if err := pw.Flush(); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					v, err := pr.ReadValue()
					if err != nil {
						b.Fatal(err)
					}
					if v.Kind != resp.KindInteger || v.Int != int64(subs) {
						b.Fatalf("PUBLISH reply %+v, want %d receivers", v, subs)
					}
				}
				published += n
				if lead := published - int(received.Load())/subs; lead > maxLead {
					waitFor(int64(published-maxLead/2) * int64(subs))
				}
			}
			waitFor(int64(b.N) * int64(subs))
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(received.Load())/sec, "deliveries/s")
			}
		})
	}
}

func BenchmarkClientPublish(b *testing.B) {
	c, err := cluster.Start(cluster.Options{InitialServers: 2, Balancer: cluster.BalancerNone})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	client, err := c.NewClient(dynamoth.Config{NodeID: 42})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	payload := make([]byte, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Publish("bench", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientPublishThroughput measures the client's publish hot path
// over real TCP: lock-free route lookup, envelope encoding into a pooled
// buffer, and the pipelined PUBLISH write. The clock stops only once the
// broker has accepted every publication, so ops/s is true throughput rather
// than local buffer-stuffing speed. The goroutines=4 variant hammers one
// client from four publishers — the case lock-free routing exists for.
func BenchmarkClientPublishThroughput(b *testing.B) {
	for _, gs := range []int{1, 4} {
		b.Run(fmt.Sprintf("goroutines=%d", gs), func(b *testing.B) {
			br := broker.New(broker.Options{})
			defer br.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			go serveRoomy(ln, br)

			client, err := dynamoth.Connect(dynamoth.Config{
				Addrs:  map[string]string{"pub1": ln.Addr().String()},
				NodeID: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			payload := make([]byte, 200)
			// Warm the route: dial the target and publish the connection snapshot.
			if err := client.Publish("bench", payload); err != nil {
				b.Fatal(err)
			}
			base := waitBrokerPublished(b, br, 1)

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < gs; g++ {
				n := b.N / gs
				if g < b.N%gs {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := client.Publish("bench", payload); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			waitBrokerPublished(b, br, base+uint64(b.N))
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "publishes/s")
			}
		})
	}
}

func waitBrokerPublished(b *testing.B, br *broker.Broker, want uint64) uint64 {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := br.Stats().Published
		if got >= want {
			return got
		}
		if time.Now().After(deadline) {
			b.Fatalf("stalled: broker accepted %d of %d publications", got, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// BenchmarkClientEndToEnd runs the full library round trip over loopback
// TCP: publisher client → RESP wire → broker fan-out → subscriber client →
// application channel. The publisher's lead is bounded so the subscriber's
// buffer never overflows; allocs/op covers both ends of the path.
func BenchmarkClientEndToEnd(b *testing.B) {
	br := broker.New(broker.Options{})
	defer br.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go serveRoomy(ln, br)
	addrs := map[string]string{"pub1": ln.Addr().String()}

	sub, err := dynamoth.Connect(dynamoth.Config{Addrs: addrs, NodeID: 43, SubscribeBuffer: 1 << 15})
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	msgs, err := sub.Subscribe("bench")
	if err != nil {
		b.Fatal(err)
	}
	pub, err := dynamoth.Connect(dynamoth.Config{Addrs: addrs, NodeID: 44})
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	payload := make([]byte, 200)

	// Warm up until the subscription is live, then drain the warmup traffic
	// (every warmup publish is eventually delivered — the buffer is large).
	warm := 0
	for delivered := 0; delivered < warm || warm == 0; {
		if err := pub.Publish("bench", payload); err != nil {
			b.Fatal(err)
		}
		warm++
		select {
		case <-msgs:
			delivered++
			for delivered < warm {
				select {
				case <-msgs:
					delivered++
				case <-time.After(time.Second):
					b.Fatalf("warmup: %d of %d deliveries", delivered, warm)
				}
			}
		case <-time.After(100 * time.Millisecond):
			if warm > 50 {
				b.Fatal("subscription never became live")
			}
		}
	}

	var received atomic.Int64
	go func() {
		for range msgs {
			received.Add(1)
		}
	}()
	const maxLead = 8192
	waitFor := func(want int64) {
		deadline := time.Now().Add(30 * time.Second)
		for received.Load() < want {
			if time.Now().After(deadline) {
				b.Fatalf("stalled: received %d of %d deliveries", received.Load(), want)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish("bench", payload); err != nil {
			b.Fatal(err)
		}
		if lead := int64(i+1) - received.Load(); lead > maxLead {
			waitFor(int64(i+1) - maxLead/2)
		}
	}
	waitFor(int64(b.N))
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(received.Load())/sec, "deliveries/s")
	}
}

func BenchmarkSimEventThroughput(b *testing.B) {
	// End-to-end simulator cost per published message (the currency every
	// figure above is paid in).
	s := sim.New(sim.Config{Mode: sim.ModeNone, Seed: 1})
	clients := make([]*sim.Client, 16)
	for i := range clients {
		clients[i] = s.AddClient(uint32(100 + i))
		clients[i].Subscribe(fmt.Sprintf("t-%d", i%4))
	}
	s.RunFor(2 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clients[i%16].PublishTimed(fmt.Sprintf("t-%d", i%4), 200)
		if i%1024 == 1023 {
			s.RunFor(5 * time.Second)
		}
	}
	s.RunFor(10 * time.Second)
}

func BenchmarkWorkloadAdvance(b *testing.B) {
	cfg := workload.Config{}.FillDefaults()
	rng := newBenchRand()
	p := workload.NewPlayer(1, cfg, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Advance(time.Duration(i)*333*time.Millisecond, 333*time.Millisecond, rng)
	}
}

func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func BenchmarkRESPCommandRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	var p resp.CommandParser
	payload := make([]byte, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.WriteCommand([]byte("PUBLISH"), []byte("tile-3-4"), payload); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		p.Feed(buf.Bytes())
		if args, err := p.Next(); err != nil || len(args) != 3 {
			b.Fatalf("parsed %d args, err %v", len(args), err)
		}
	}
}

func BenchmarkLocalPlanLookup(b *testing.B) {
	store := localplan.New([]string{"pub1", "pub2", "pub3", "pub4"}, 0)
	now := time.Now()
	for i := 0; i < 32; i++ {
		store.Update(fmt.Sprintf("tile-%d", i), plan.Entry{
			Strategy: plan.StrategySingle,
			Servers:  []plan.ServerID{"pub2"},
		}, 5, now)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store.Lookup(fmt.Sprintf("tile-%d", i%64), now)
	}
}

func BenchmarkPlannerGeneratePlan(b *testing.B) {
	// One full two-step planning round over an 8-server, 64-channel state.
	cfg := balancer.DefaultConfig()
	cfg.MaxServers = 8
	servers := make([]string, 8)
	for i := range servers {
		servers[i] = fmt.Sprintf("pub%d", i+1)
	}
	current := plan.New(servers...)
	loads := make([]balancer.ServerLoad, len(servers))
	for i, id := range servers {
		loads[i] = balancer.ServerLoad{
			Server:   id,
			MaxBps:   1.25e6,
			Channels: map[string]balancer.ChannelLoad{},
		}
	}
	for c := 0; c < 64; c++ {
		name := fmt.Sprintf("tile-%d", c)
		idx := c % len(servers)
		out := 1e4 + float64(c)*3e3
		loads[idx].Channels[name] = balancer.ChannelLoad{
			Publications: 40, Subscribers: 15, BytesOut: out,
		}
		loads[idx].MeasuredBps += out
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl := balancer.NewPlanner(cfg, plan.IsControlChannel, nil, 1.25e6)
		_ = pl.GeneratePlan(current, loads)
	}
}
