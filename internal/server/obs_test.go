package server

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/dispatcher"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/trace"
)

type dropSink struct{}

func (dropSink) Deliver(string, []byte) {}
func (dropSink) Closed(error)           {}

// TestNodeMetricsScrapeUnderPublishStorm hammers the broker from several
// publishers while scraping /metrics concurrently: every exposition must be
// well-formed, and the registry reads must not race the hot path (the test
// is meaningful under -race).
func TestNodeMetricsScrapeUnderPublishStorm(t *testing.T) {
	n := newNode(t, clock.NewReal())

	sess, err := n.Broker.Connect("sub", dropSink{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Subscribe("storm"); err != nil {
		t.Fatal(err)
	}

	gen := message.NewGenerator(0x77)
	var wg sync.WaitGroup
	const perPublisher = 2000
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				env := message.Envelope{
					Type:    message.TypeData,
					ID:      gen.Next(),
					Channel: "storm",
					Payload: []byte("payload"),
					Stamp:   time.Now().UnixNano(),
				}
				n.Broker.Publish("storm", env.Marshal())
			}
		}()
	}

	// Scrape concurrently with the storm; every exposition must parse.
	for i := 0; i < 50; i++ {
		out := n.Registry().String()
		if _, err := obs.ValidateExposition(out); err != nil {
			t.Fatalf("scrape %d malformed: %v\n%s", i, err, out)
		}
		if _, ok := n.Status().(Status); !ok {
			t.Fatalf("Status() returned %T", n.Status())
		}
	}
	wg.Wait()

	// A final burst after the last in-loop Status call, so the hot-channel
	// window (rates since the previous Top call) has fresh activity.
	for i := 0; i < 100; i++ {
		env := message.Envelope{
			Type:    message.TypeData,
			ID:      gen.Next(),
			Channel: "storm",
			Payload: []byte("payload"),
			Stamp:   time.Now().UnixNano(),
		}
		n.Broker.Publish("storm", env.Marshal())
	}

	out := n.Registry().String()
	for _, fam := range []string{
		"dynamoth_broker_published_total",
		"dynamoth_broker_delivered_total",
		"dynamoth_broker_dropped_total",
		"dynamoth_broker_sessions",
		"dynamoth_broker_channels",
		"dynamoth_broker_conn_doorbells_total",
		"dynamoth_broker_conn_adopted_flushes_total",
		"dynamoth_broker_conn_handoffs_total",
		"dynamoth_broker_replay_bytes",
		"dynamoth_plan_version",
		"dynamoth_e2e_latency_seconds_bucket",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing %s:\n%s", fam, out)
		}
	}
	if st := n.Broker.Stats(); st.ReplayBytes <= 0 {
		t.Errorf("ReplayBytes = %d with %d frames retained", st.ReplayBytes, st.ReplayRetained)
	}
	if n.E2ELatency().Count() == 0 {
		t.Error("stamped publications observed no end-to-end latency")
	}
	st := n.Status().(Status)
	if st.Published == 0 || st.Delivered == 0 {
		t.Errorf("status counters empty: %+v", st)
	}
	if len(st.HotChannels) == 0 || st.HotChannels[0].Channel != "storm" {
		t.Errorf("hot channels = %+v, want storm ranked", st.HotChannels)
	}
}

// TestLatencyObserverSkipsUnstampedAndControl checks the broker-side
// observer only measures stamped data traffic.
func TestLatencyObserverSkipsUnstampedAndControl(t *testing.T) {
	clk := clock.NewManual(epoch)
	n := newNode(t, clk)

	unstamped := message.Envelope{Type: message.TypeData, ID: message.ID{Node: 1, Seq: 1}, Channel: "c"}
	n.Broker.Publish("c", unstamped.Marshal())
	control := message.Envelope{Type: message.TypePlan, ID: message.ID{Node: 1, Seq: 2}, Channel: "c", Stamp: epoch.UnixNano()}
	n.Broker.Publish("c", control.Marshal())
	n.Broker.Publish("c", []byte("not an envelope"))
	if got := n.E2ELatency().Count(); got != 0 {
		t.Fatalf("observed %d latencies from unstamped/control traffic", got)
	}

	clk.Advance(50 * time.Millisecond)
	stamped := message.Envelope{Type: message.TypeData, ID: message.ID{Node: 1, Seq: 3}, Channel: "c", Stamp: epoch.UnixNano()}
	n.Broker.Publish("c", stamped.Marshal())
	if got := n.E2ELatency().Count(); got != 1 {
		t.Fatalf("observed %d latencies, want 1", got)
	}
	// 50 ms of manual-clock age, within one log bucket (~8%).
	p := n.E2ELatency().Quantile(0.5)
	if p < 45*time.Millisecond || p > 56*time.Millisecond {
		t.Fatalf("observed latency %v, want ~50ms", p)
	}
}

// tickingClock advances by an odd, sub-microsecond-grained step every time it
// is read, so no two readings agree and any clock read the node makes per
// publication shows up in what it measures.
type tickingClock struct{ *clock.Manual }

func (c tickingClock) Now() time.Time {
	c.Advance(1337 * time.Nanosecond)
	return c.Manual.Now()
}

// TestStagesDecomposeE2EExactly pins "ingress + fanout decompose e2e exactly
// per observation": the observer takes all three from the two marks the
// broker stamped, so on a clock that never reads the same twice the sums
// still agree to the nanosecond — with and without a subscriber (the
// early-exit path stamps too).
func TestStagesDecomposeE2EExactly(t *testing.T) {
	clk := tickingClock{clock.NewManual(epoch)}
	n := newNode(t, clk)
	sess, err := n.Broker.Connect("sub", dropSink{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Subscribe("heard"); err != nil {
		t.Fatal(err)
	}

	const each = 200
	for i := 0; i < each; i++ {
		for _, ch := range []string{"heard", "unheard"} {
			env := message.Envelope{Type: message.TypeData, ID: message.ID{Node: 1, Seq: uint64(i)},
				Channel: ch, Stamp: clk.Now().UnixNano()}
			n.Broker.Publish(ch, env.Marshal())
		}
	}
	e2e, ingress, fanout := n.e2e.Counts(), n.stages.ingress.Counts(), n.stages.fanout.Counts()
	if e2e.Count() != 2*each || ingress.Count() != 2*each || fanout.Count() != 2*each {
		t.Fatalf("observations e2e=%d ingress=%d fanout=%d, want %d each",
			e2e.Count(), ingress.Count(), fanout.Count(), 2*each)
	}
	if e2e.Sum != ingress.Sum+fanout.Sum {
		t.Fatalf("Σe2e %v != Σingress %v + Σfanout %v", e2e.Sum, ingress.Sum, fanout.Sum)
	}
	if fanout.Sum == 0 {
		t.Fatal("fanout leg never measured a clock step")
	}
}

// TestNodeRegistryExportsOnlyDispatcherKinds: a node's flight recorder sees
// only the dispatcher's reconfiguration kinds, so its registry carries those
// families and no balancer or client one, nor a second copy of the broker's
// connection counters.
func TestNodeRegistryExportsOnlyDispatcherKinds(t *testing.T) {
	n, err := New(Options{
		ID:        "pub1",
		NodeNum:   0xD001,
		Initial:   plan.New("pub1"),
		Forwarder: dispatcher.ForwarderFunc(func(plan.ServerID, string, []byte) error { return nil }),
		Recorder:  trace.NewRecorder(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var reconfig []string
	for _, line := range strings.Split(n.Registry().String(), "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name = strings.Fields(name)[0]
		switch {
		case strings.HasPrefix(name, "dynamoth_reconfig_"):
			reconfig = append(reconfig, name)
		case strings.HasPrefix(name, "dynamoth_conn_"), strings.HasPrefix(name, "dynamoth_replay_"):
			t.Errorf("node exports recorder family %s", name)
		}
	}
	slices.Sort(reconfig)
	want := []string{"dynamoth_reconfig_drains_total", "dynamoth_reconfig_plan_applies_total", "dynamoth_reconfig_switch_sent_total"}
	if !slices.Equal(reconfig, want) {
		t.Fatalf("node reconfig families = %v, want the dispatcher's %v", reconfig, want)
	}
}

// TestNodeChannelTableSeesEveryPublication: the latency observer feeds the
// node's one channel table — every publication counts toward the hot
// channels, and only stamped data toward the slow ones.
func TestNodeChannelTableSeesEveryPublication(t *testing.T) {
	clk := clock.NewManual(epoch)
	n := newNode(t, clk)
	const pubs = 4 << obs.DefaultSampleShift
	// Interleaved one-to-one: the table samples one publication in every
	// block of 2^shift at a varying offset, so both channels are seen.
	for i := 0; i < pubs; i++ {
		plain := message.Envelope{Type: message.TypeData, ID: message.ID{Node: 1, Seq: uint64(i)}, Channel: "plain"}
		n.Broker.Publish("plain", plain.Marshal())
		stamped := message.Envelope{Type: message.TypeData, ID: message.ID{Node: 2, Seq: uint64(i)}, Channel: "stamped", Stamp: epoch.UnixNano()}
		n.Broker.Publish("stamped", stamped.Marshal())
	}
	clk.Advance(time.Second)
	var hot []string
	for _, c := range n.Status().(Status).HotChannels {
		hot = append(hot, c.Channel)
	}
	slices.Sort(hot)
	if !slices.Equal(hot, []string{"plain", "stamped"}) {
		t.Fatalf("hot channels = %v, want [plain stamped]", hot)
	}
	slow := n.Waterfall().SlowChannels
	if len(slow) != 1 || slow[0].Channel != "stamped" {
		t.Fatalf("slow channels = %+v, want [stamped]", slow)
	}
}

// BenchmarkRegistryRender renders a fresh default node's /metrics exposition
// into a reused buffer, as each admin scrape does.
func BenchmarkRegistryRender(b *testing.B) {
	n, err := New(Options{
		ID:        "pub1",
		NodeNum:   0xD001,
		Initial:   plan.New("pub1"),
		Forwarder: dispatcher.ForwarderFunc(func(plan.ServerID, string, []byte) error { return nil }),
		Recorder:  trace.NewRecorder(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	reg := n.Registry()
	buf := reg.AppendText(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = reg.AppendText(buf[:0])
	}
}
