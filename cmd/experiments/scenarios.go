package main

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/loadgen"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/resp"
	"github.com/dynamoth/dynamoth/internal/workload"
)

// runScenarios drives the open-loop scenario suite against real
// dynamoth-node subprocesses: each scenario boots a fresh node, establishes
// its subscriber topology, publishes on a fixed arrival schedule through
// real clients, and judges the run (checkScenarioRun) on latency measured
// from the *intended* send instants. filter selects one scenario by name
// (empty = all); scale shrinks the suite shape-preserving.
func runScenarios(filter string, scale float64, seed int64) error {
	fmt.Println("=== Scenario suite — open-loop load against a real node ===")
	fmt.Printf("scale %.2f; latency is measured from intended send instants (coordinated-omission-safe)\n\n", scale)

	binDir, err := os.MkdirTemp("", "dynamoth-scenarios-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(binDir)
	nodeBin, err := buildNodeBin(binDir)
	if err != nil {
		return err
	}

	ran := 0
	for _, sc := range workload.Scenarios() {
		if filter != "" && sc.Name != filter {
			continue
		}
		sc = sc.Scale(scale)
		if err := sc.Validate(); err != nil {
			return err
		}
		if err := runScenario(nodeBin, sc, seed); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no scenario matches -scenario %q", filter)
	}
	return nil
}

// nextClientID hands out unique client node identities. Envelope IDs embed
// the publisher's node id; two clients sharing one would interleave their
// sequence streams and trip subscriber-side dedup into dropping real
// messages.
var nextClientID atomic.Uint32

func scenarioClient(addr string) (*dynamoth.Client, error) {
	return dynamoth.Connect(dynamoth.Config{
		Addrs:  map[string]string{"bench": addr},
		NodeID: 0xA000 + nextClientID.Add(1),
	})
}

// runScenario boots one node and executes one scenario (or blend) on it.
func runScenario(nodeBin string, sc workload.Scenario, seed int64) error {
	fmt.Printf("--- %s: %s ---\n", sc.Name, sc.Description)
	node, err := startNode(nodeBin)
	if err != nil {
		return err
	}
	defer node.Stop()

	components := sc.Components
	if len(components) == 0 {
		components = []workload.Scenario{sc}
	}

	// One shared recorder per scenario; blends additionally get per-component
	// recorders chained into it so both the blended tail and each tenant's
	// own are judged.
	blended := loadgen.NewRecorder()
	type compRun struct {
		sc  workload.Scenario
		rec *loadgen.Recorder
		rep *loadgen.Report
		err error
	}
	runs := make([]*compRun, len(components))
	for i, comp := range components {
		rec := blended
		if len(sc.Components) > 0 {
			rec = loadgen.NewRecorderChained(blended)
		}
		runs[i] = &compRun{sc: comp, rec: rec}
	}

	var cleanups []func()
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}()

	// Topology: subscribers first, so the readiness barrier below can gate
	// on the broker actually holding every measured channel.
	distinct := map[string]bool{}
	for _, run := range runs {
		comp, rec := run.sc, run.rec
		for i := 0; i < comp.Channels; i++ {
			if comp.Subscribers > 0 {
				distinct[comp.ChannelName(i)] = true
			}
		}
		for s := 0; s < comp.Subscribers; s++ {
			client, err := scenarioClient(node.RespAddr)
			if err != nil {
				return fmt.Errorf("subscriber %d: %w", s, err)
			}
			cleanups = append(cleanups, func() { client.Close() })
			for k := 0; k < comp.SubsPerSubscriber; k++ {
				msgs, err := client.Subscribe(comp.ChannelName(s + k))
				if err != nil {
					return fmt.Errorf("subscribe: %w", err)
				}
				go func(msgs <-chan dynamoth.Message) {
					for m := range msgs {
						rec.Observe(m.Payload)
					}
				}(msgs)
			}
		}
		for p := 0; p < comp.PatternSubscribers; p++ {
			stop, err := patternSubscriber(node.RespAddr, comp.Pattern, rec)
			if err != nil {
				return fmt.Errorf("pattern subscriber: %w", err)
			}
			cleanups = append(cleanups, stop)
		}
	}

	// Readiness barrier: client Subscribe is pipelined fire-and-forget, so
	// poll the broker's channel gauge until every measured channel is held
	// instead of guessing a settle sleep. Pattern subscribers acked their
	// PSUBSCRIBE synchronously inside patternSubscriber.
	if len(distinct) > 0 {
		want := float64(len(distinct))
		if err := awaitMetric(node.AdminAddr, "dynamoth_broker_channels", 30*time.Second,
			func(v float64) bool { return v >= want }); err != nil {
			return fmt.Errorf("subscription barrier: %w", err)
		}
	}

	// Publisher fleets: each component's logical publishers are fanned over
	// a bounded pool of real client connections.
	var wg sync.WaitGroup
	var churnOps atomic.Uint64
	churnStop := make(chan struct{})
	for _, run := range runs {
		comp, rec := run.sc, run.rec
		pool := comp.Publishers
		if pool > 16 {
			pool = 16
		}
		pubs := make([]*dynamoth.Client, pool)
		for i := range pubs {
			client, err := scenarioClient(node.RespAddr)
			if err != nil {
				return fmt.Errorf("publisher pool: %w", err)
			}
			cleanups = append(cleanups, func() { client.Close() })
			pubs[i] = client
		}

		if comp.ChurnPerSec > 0 {
			wg.Add(1)
			go func(comp workload.Scenario) {
				defer wg.Done()
				churnLoop(pubs[0], comp, churnStop, &churnOps)
			}(comp)
		}

		wg.Add(1)
		go func(run *compRun, comp workload.Scenario, rec *loadgen.Recorder) {
			defer wg.Done()
			run.rep, run.err = loadgen.Run(loadgen.Options{
				Publishers: comp.Publishers,
				Rate:       comp.RatePerPublisher,
				Duration:   comp.Duration,
				Arrival:    comp.Arrival,
				Seed:       seed,
				Recorder:   rec,
				Send: func(pub int, seq uint64, intended, actual time.Duration) error {
					payload := loadgen.AppendStamp(nil, intended, actual, comp.PayloadBytes)
					return pubs[pub%len(pubs)].Publish(comp.ChannelName(pub), payload)
				},
			})
		}(run, comp, rec)
	}
	wg.Wait()
	close(churnStop)
	for _, run := range runs {
		if run.err != nil {
			return run.err
		}
	}

	// Drain: deliveries lag the last send by queueing we must not truncate
	// (that would be coordinated omission at the back edge of the run).
	// Wait until the delivered count stops moving.
	awaitDeliveryStable(blended, 10*time.Second)

	// A blend is judged per component (its own report and recorder) and then
	// on the blended recorder; a single scenario's recorder is the blended one.
	var sent uint64
	for _, run := range runs {
		if err := checkScenarioRun(run.sc.Name, run.rep, run.rec); err != nil {
			return err
		}
		sent += run.rep.Sent
	}
	if len(sc.Components) > 0 {
		if err := checkScenarioRun("blend", nil, blended); err != nil {
			return err
		}
	}
	in := blended.Intended()
	fmt.Printf("sent=%d delivered=%d stampErrs=%d churn=%d  intended p50=%v p99=%v p999=%v  actual p99=%v\n\n",
		sent, blended.Delivered(), blended.StampErrors(), churnOps.Load(),
		in.Quantile(0.5), in.Quantile(0.99), in.Quantile(0.999), blended.Actual().Quantile(0.99))
	return nil
}

// checkScenarioRun is the pass/fail rule of one scenario, blend component or
// blend: the generator sent without error (rep, nil for a blend, which has one
// report per component), deliveries arrived with parseable stamps, and
// intended-time p99 dominates actual-time p99 — intended time includes
// send-side queueing, so it can never read below the closed-loop figure.
func checkScenarioRun(tag string, rep *loadgen.Report, rec *loadgen.Recorder) error {
	ip99, ap99 := rec.Intended().Quantile(0.99), rec.Actual().Quantile(0.99)
	switch {
	case rep != nil && rep.Sent == 0:
		return fmt.Errorf("%s: nothing sent", tag)
	case rep != nil && rep.SendErrors != 0:
		return fmt.Errorf("%s: %d send errors of %d sent", tag, rep.SendErrors, rep.Sent)
	case rec.Delivered() == 0:
		return fmt.Errorf("%s: nothing delivered", tag)
	case rec.StampErrors() != 0:
		return fmt.Errorf("%s: %d stamp errors", tag, rec.StampErrors())
	case ip99 < ap99:
		return fmt.Errorf("%s: intended p99 %v below actual p99 %v", tag, ip99, ap99)
	}
	return nil
}

// patternSubscriber opens a raw RESP connection, PSUBSCRIBEs to pattern, and
// feeds every pmessage's inner payload into rec. The high-level client does
// not wrap pattern subscriptions (its dedup tracking is per-channel), so the
// chat scenario exercises the broker's glob delivery path at the wire level.
// The returned func closes the connection. The PSUBSCRIBE ack is awaited
// before returning — this is the pattern half of the readiness barrier.
func patternSubscriber(addr, pattern string, rec *loadgen.Recorder) (func(), error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(resp.AppendCommandStrings(nil, "PSUBSCRIBE", pattern)); err != nil {
		conn.Close()
		return nil, err
	}
	r := resp.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	ack, err := r.ReadValue()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("psubscribe ack: %w", err)
	}
	if ack.Kind != resp.KindArray || len(ack.Array) != 3 || string(ack.Array[0].Str) != "psubscribe" {
		conn.Close()
		return nil, fmt.Errorf("unexpected psubscribe reply %v", ack.Kind)
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	go func() {
		for {
			v, err := r.ReadValue()
			if err != nil {
				return // connection closed by cleanup
			}
			if v.Kind != resp.KindArray || len(v.Array) != 4 || string(v.Array[0].Str) != "pmessage" {
				continue
			}
			// Publishes from real clients arrive as marshaled envelopes;
			// unwrap to reach the loadgen stamp.
			if env, err := message.Unmarshal(v.Array[3].Str); err == nil {
				rec.Observe(env.Payload)
			}
		}
	}()
	return func() { conn.Close() }, nil
}

// churnLoop runs presence-style subscription churn: subscribe/unsubscribe
// pairs against rotating side channels at comp.ChurnPerSec, paced by the
// same drift-free schedule as the publishers.
func churnLoop(client *dynamoth.Client, comp workload.Scenario, stop <-chan struct{}, ops *atomic.Uint64) {
	sched := loadgen.NewSchedule(loadgen.ArrivalPeriodic, comp.ChurnPerSec, 0, 0)
	ticks := sched.Ticks()
	start := time.Now()
	for i := 0; ; i++ {
		at := ticks.Next()
		if at >= comp.Duration {
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(time.Until(start.Add(at))):
		}
		ch := fmt.Sprintf("scn.%s.churn.%d", comp.Name, i%64)
		if _, err := client.Subscribe(ch); err != nil {
			continue
		}
		client.Unsubscribe(ch) //nolint:errcheck
		ops.Add(1)
	}
}

// awaitDeliveryStable polls the recorder until the delivered count stops
// advancing (three consecutive 100ms windows without progress) or limit
// elapses.
func awaitDeliveryStable(rec *loadgen.Recorder, limit time.Duration) {
	deadline := time.Now().Add(limit)
	last := rec.Delivered()
	idle := 0
	for idle < 3 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		if cur := rec.Delivered(); cur != last {
			last = cur
			idle = 0
		} else {
			idle++
		}
	}
}

// scenarioNames lists the stock suite for -h output.
func scenarioNames() string {
	var names []string
	for _, s := range workload.Scenarios() {
		names = append(names, s.Name)
	}
	return strings.Join(names, "|")
}
