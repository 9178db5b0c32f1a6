package lla

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/message"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestAccumulatorSingleUnit(t *testing.T) {
	a := NewAccumulator(Config{}, epoch)
	a.OnSubscribe("tile", 1)
	a.OnSubscribe("tile", 2)
	a.OnPublish("tile", 7, 100, 2)
	a.OnPublish("tile", 7, 100, 2)
	a.OnPublish("tile", 9, 50, 2)

	u := a.Seal()
	if u.Unit != 0 {
		t.Fatalf("unit index=%d", u.Unit)
	}
	if len(u.Channels) != 1 {
		t.Fatalf("channels=%d", len(u.Channels))
	}
	c := u.Channels[0]
	if c.Channel != "tile" {
		t.Fatalf("channel=%q", c.Channel)
	}
	if c.Publishers != 2 {
		t.Fatalf("publishers=%d, want 2 distinct", c.Publishers)
	}
	if c.Publications != 3 {
		t.Fatalf("publications=%d", c.Publications)
	}
	if c.Subscribers != 2 {
		t.Fatalf("subscribers=%d", c.Subscribers)
	}
	if c.MessagesSent != 6 {
		t.Fatalf("messagesSent=%d", c.MessagesSent)
	}
	if c.BytesIn != 250 {
		t.Fatalf("bytesIn=%d", c.BytesIn)
	}
	if c.BytesOut != 500 {
		t.Fatalf("bytesOut=%d", c.BytesOut)
	}
}

func TestAccumulatorUnitsResetButSubscribersPersist(t *testing.T) {
	a := NewAccumulator(Config{}, epoch)
	a.OnSubscribe("c", 5)
	a.OnPublish("c", 1, 10, 5)
	a.Seal()

	u := a.Seal() // second unit: no traffic, but 5 subscribers remain
	if u.Unit != 1 {
		t.Fatalf("unit=%d", u.Unit)
	}
	if len(u.Channels) != 1 {
		t.Fatalf("channels=%+v", u.Channels)
	}
	c := u.Channels[0]
	if c.Publications != 0 || c.Publishers != 0 || c.BytesOut != 0 {
		t.Fatalf("traffic not reset: %+v", c)
	}
	if c.Subscribers != 5 {
		t.Fatalf("subscribers lost across units: %d", c.Subscribers)
	}
}

func TestAccumulatorUnsubscribeToZeroDropsChannel(t *testing.T) {
	a := NewAccumulator(Config{}, epoch)
	a.OnSubscribe("c", 1)
	a.OnUnsubscribe("c", 0)
	a.Seal() // flush the unit in which activity happened
	u := a.Seal()
	if len(u.Channels) != 0 {
		t.Fatalf("dead channel still reported: %+v", u.Channels)
	}
	if a.Subscribers("c") != 0 {
		t.Fatal("subscriber count not cleared")
	}
}

func TestAccumulatorUnknownPublisherNotCounted(t *testing.T) {
	a := NewAccumulator(Config{}, epoch)
	a.OnPublish("c", 0, 10, 1)
	u := a.Seal()
	if u.Channels[0].Publishers != 0 {
		t.Fatalf("unknown publisher counted: %+v", u.Channels[0])
	}
	if u.Channels[0].Publications != 1 {
		t.Fatal("publication missing")
	}
}

func TestAccumulatorChannelsSorted(t *testing.T) {
	a := NewAccumulator(Config{}, epoch)
	for _, ch := range []string{"zeta", "alpha", "mid"} {
		a.OnPublish(ch, 1, 1, 0)
	}
	u := a.Seal()
	if len(u.Channels) != 3 ||
		u.Channels[0].Channel != "alpha" ||
		u.Channels[1].Channel != "mid" ||
		u.Channels[2].Channel != "zeta" {
		t.Fatalf("channels not sorted: %+v", u.Channels)
	}
}

func TestReportMarshalRoundTrip(t *testing.T) {
	r := &Report{
		Server: "pub1",
		Seq:    3,
		Units: []UnitStats{{
			Unit: 9,
			Channels: []ChannelStats{{
				Channel: "c", Publishers: 1, Publications: 2,
				Subscribers: 3, MessagesSent: 6, BytesIn: 200, BytesOut: 600,
			}},
		}},
		MaxOutgoingBps:      1.25e6,
		MeasuredOutgoingBps: 4.2e5,
	}
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// A node older than the removal of region attribution still sends a
	// "regions" key; the report must decode the same with it.
	older := append(bytes.TrimSuffix(data, []byte("}")),
		`,"regions":[{"region":"eu-west","count":3,"sumMs":30,"maxMs":20,"p99Ms":12.5,"buckets":[0,3]}]}`...)
	for _, in := range [][]byte{data, older} {
		got, err := UnmarshalReport(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if got.Server != "pub1" || got.Seq != 3 || len(got.Units) != 1 {
			t.Fatalf("decoded %+v", got)
		}
		if got.Units[0].Channels[0].BytesOut != 600 {
			t.Fatalf("channel stats lost: %+v", got.Units[0].Channels[0])
		}
	}
	if _, err := UnmarshalReport([]byte("{")); err == nil {
		t.Fatal("bad JSON decoded")
	}
}

// TestAnalyzerEndToEndWithManualClock is the shell's wiring test: its
// tickers drive the core on the analyzer's clock, and the report reaches the
// sink with M_i over the elapsed window.
func TestAnalyzerEndToEndWithManualClock(t *testing.T) {
	clk := clock.NewManual(epoch)
	an := NewAnalyzer(Config{
		Server:         "pub1",
		MaxOutgoingBps: 1000,
		Unit:           time.Second,
		ReportEvery:    3 * time.Second,
		Clock:          clk,
	})
	reports := make(chan *Report, 1)
	an.Start(func(r *Report) { reports <- r })
	defer an.Stop()

	env := &message.Envelope{Type: message.TypeData, ID: message.ID{Node: 42, Seq: 1}, Channel: "c", Payload: []byte("xy")}
	payload := env.Marshal()
	an.OnSubscribe("c", "client-1", 1)
	an.OnPublish("c", payload, 1)
	clk.Advance(3 * time.Second)

	select {
	case r := <-reports:
		if r.Server != "pub1" || r.Seq != 1 || r.MaxOutgoingBps != 1000 {
			t.Fatalf("report header %+v", r)
		}
		if want := float64(len(payload)) / 3.0; r.MeasuredOutgoingBps != want {
			t.Fatalf("measuredBps=%f want %f", r.MeasuredOutgoingBps, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no report reached the sink")
	}
}

func TestAnalyzerIsBrokerObserver(t *testing.T) {
	// Wire a real broker to the analyzer and verify counts flow through.
	clk := clock.NewManual(epoch)
	an := NewAnalyzer(Config{Server: "pub1", Clock: clk})
	b := broker.New(broker.Options{})
	defer b.Close()
	b.AddObserver(an)

	sink := make(sinkChan, 8)
	s, err := b.Connect("c1", sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe("game"); err != nil {
		t.Fatal(err)
	}
	b.Publish("game", []byte("hello"))
	<-sink

	u := an.accum.Seal()
	if len(u.Channels) != 1 || u.Channels[0].Publications != 1 || u.Channels[0].Subscribers != 1 {
		t.Fatalf("unit from live broker: %+v", u.Channels)
	}
}

// TestRecordEvictionConservesUnit drives the analyzer through a broker whose
// channel-record table is far smaller than the channels published to within
// one unit: records are evicted and recreated mid-unit, so the analyzer's
// record slots go stale and its own cap folds traffic into overflow. The
// sealed unit must still account for every byte published and delivered, and
// a channel whose record was evicted must come back on a new replay epoch.
func TestRecordEvictionConservesUnit(t *testing.T) {
	const capacity = 32 // one record per broker shard
	an := NewAnalyzer(Config{Server: "pub1", ChannelCap: capacity, Clock: clock.NewManual(epoch)})
	defer an.Stop()
	b := broker.New(broker.Options{ReplayDepth: 4, ChannelCap: capacity, OutputBuffer: 1 << 14})
	defer b.Close()
	b.AddObserver(an)
	s, err := b.Connect("sub", discardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe("hot"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PSubscribe("dev.1*"); err != nil { // receivers on evictable records
		t.Fatal(err)
	}

	var bytesIn, bytesOut int64
	publish := func(ch string) {
		frame := (&message.Envelope{Type: message.TypeData, ID: message.ID{Node: 5}, Channel: ch, Payload: make([]byte, 40)}).Marshal()
		n := b.Publish(ch, frame)
		bytesIn += int64(len(frame))
		bytesOut += int64(len(frame)) * int64(n)
	}
	publish("dev.0")
	first, _, ok := b.ReplayHead("dev.0")
	if !ok {
		t.Fatal("no ring after the first publication")
	}
	for round := 0; round < 2; round++ {
		for i := 1; i < 1000; i++ {
			publish(fmt.Sprintf("dev.%d", i))
			publish("hot")
		}
	}
	if b.ChannelStats().Evictions == 0 {
		t.Fatal("no record was evicted")
	}
	if _, _, ok := b.ReplayHead("dev.0"); ok {
		t.Fatal("dev.0's record survived 1998 other channels in 32 shards of one")
	}
	publish("dev.0")
	if again, head, _ := b.ReplayHead("dev.0"); again == first || head != 1 {
		t.Fatalf("recreated ring: epoch %d (was %d), head %d; want a new epoch from 1", again, first, head)
	}

	u := an.Accumulator().Seal()
	var in, out int64
	for _, c := range u.Channels {
		in, out = in+c.BytesIn, out+c.BytesOut
	}
	if u.Overflow != nil {
		in, out = in+u.Overflow.BytesIn, out+u.Overflow.BytesOut
	}
	if in != bytesIn || out != bytesOut {
		t.Fatalf("unit carries %d bytes in / %d out, published %d / delivered %d", in, out, bytesIn, bytesOut)
	}
	if u.Overflow == nil || len(u.Channels) > capacity {
		t.Fatalf("%d channels tracked, overflow %+v: the cap did not bind", len(u.Channels), u.Overflow)
	}
}

type discardSink struct{}

func (discardSink) Deliver(string, []byte) {}
func (discardSink) Closed(error)           {}

type sinkChan chan struct{}

func (s sinkChan) Deliver(string, []byte) { s <- struct{}{} }
func (s sinkChan) Closed(error)           {}

func TestAnalyzerStopIdempotent(t *testing.T) {
	// Never started: Stop returns at once, and a later Start stays inert.
	idle := NewAnalyzer(Config{Server: "x"})
	idle.Stop()
	idle.Stop()
	idle.Start(func(*Report) { t.Error("report from a stopped analyzer") })

	an := NewAnalyzer(Config{Server: "x"})
	an.Start(func(*Report) {})
	an.Stop()
	an.Stop()
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.Unit != time.Second || c.ReportEvery != 3*time.Second {
		t.Fatalf("defaults: %+v", c)
	}
	if c.Clock == nil || c.MaxOutgoingBps <= 0 {
		t.Fatal("defaults missing")
	}
	if c.ChannelCap != DefaultChannelCap {
		t.Fatalf("channelCap default=%d", c.ChannelCap)
	}
	c = Config{ChannelCap: -1}
	c.fillDefaults()
	if c.ChannelCap != 0 {
		t.Fatalf("negative cap not mapped to unbounded: %d", c.ChannelCap)
	}
}

func TestAccumulatorChannelCapFoldsIntoOverflow(t *testing.T) {
	// Cap of AccumStripes gives each stripe exactly one channel slot, so the
	// tracked-channel count is bounded regardless of how many distinct
	// channels publish.
	a := NewAccumulator(Config{ChannelCap: AccumStripes}, epoch)
	for i := 0; i < 10_000; i++ {
		a.OnPublish(fmt.Sprintf("dev-%d", i), 1, 10, 2)
	}
	if st := a.UnitCacheStats(); st.Size > AccumStripes {
		t.Fatalf("tracked channels=%d exceed cap %d", st.Size, AccumStripes)
	}
	u := a.Seal()
	if len(u.Channels) > AccumStripes {
		t.Fatalf("sealed channels=%d exceed cap", len(u.Channels))
	}
	if u.Overflow == nil {
		t.Fatal("overflow bucket missing")
	}
	// Conservation: tracked + overflow must account for every publication.
	total := u.Overflow.Publications
	var bytesIn int64 = u.Overflow.BytesIn
	for _, c := range u.Channels {
		total += c.Publications
		bytesIn += c.BytesIn
	}
	if total != 10_000 || bytesIn != 100_000 {
		t.Fatalf("publications=%d bytesIn=%d: overflow lost traffic", total, bytesIn)
	}
	// Next unit starts empty: channels that fit again are tracked again.
	u2 := a.Seal()
	if u2.Overflow != nil {
		t.Fatalf("overflow leaked across units: %+v", u2.Overflow)
	}
}

func TestAccumulatorSubscriberMapBounded(t *testing.T) {
	a := NewAccumulator(Config{ChannelCap: AccumStripes}, epoch) // one subscriber slot per stripe
	for i := 0; i < 5_000; i++ {
		a.OnSubscribe(fmt.Sprintf("dev-%d", i), 1)
	}
	st := a.SubscriberCacheStats()
	if st.Size > AccumStripes {
		t.Fatalf("subscriber map size=%d exceeds cap", st.Size)
	}
	if st.Evictions == 0 {
		t.Fatal("no displacement recorded despite cap pressure")
	}
	// Displaced channels self-heal on their next subscription event.
	a.OnSubscribe("dev-0", 3)
	if a.Subscribers("dev-0") != 3 {
		t.Fatal("re-reported channel not tracked")
	}
}

func TestAccumulatorOverflowRoundTripsJSON(t *testing.T) {
	r := &Report{Server: "pub1", Units: []UnitStats{{
		Overflow: &ChannelStats{Channel: "+overflow", Publications: 7, BytesIn: 70},
	}}}
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Units[0].Overflow == nil || got.Units[0].Overflow.Publications != 7 {
		t.Fatalf("overflow lost in transit: %+v", got.Units[0])
	}
}

func TestAccumulatorConcurrentObserversRace(t *testing.T) {
	a := NewAccumulator(Config{ChannelCap: 256}, epoch)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2_000; i++ {
				ch := fmt.Sprintf("ch-%d", (g*31+i)%512)
				switch i % 4 {
				case 0:
					a.OnSubscribe(ch, i%8+1)
				case 3:
					a.OnUnsubscribe(ch, i%2)
				default:
					a.OnPublish(ch, uint32(g+1), 64, 3)
				}
			}
		}(g)
	}
	// This goroutine seals and reports while the observers run. Reports one
	// second apart make each M_i the window's bytes, so their sum must be
	// every publication's: 8 goroutines × 1000 publications × 64 B × 3.
	sealed := 0
	var bytes float64
	now := epoch
	report := func() {
		now = now.Add(time.Second)
		bytes += a.Report(now).MeasuredOutgoingBps
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			a.Seal()
			report()
			if want := 8 * 1000 * 64 * 3.0; bytes != want {
				t.Fatalf("reports carried %v bytes, want %v", bytes, want)
			}
			if sealed == 0 {
				t.Log("no mid-run seal happened") // timing-dependent, not fatal
			}
			return
		default:
			a.Seal()
			report()
			sealed++
			time.Sleep(time.Millisecond)
		}
	}
}

// BenchmarkAccumulatorParallel measures the striped OnPublish path under
// parallel observers (the broker fan-out shape that serialized on the seed's
// single Accumulator.mu). Run with -cpu 8 to exercise 8 goroutines.
func BenchmarkAccumulatorParallel(b *testing.B) {
	a := NewAccumulator(Config{}, epoch)
	channels := make([]string, 1024)
	for i := range channels {
		channels[i] = fmt.Sprintf("game-tile-%d", i)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			a.OnPublish(channels[i&1023], 7, 128, 4)
			i++
		}
	})
}

// BenchmarkAccumulatorSerialBaseline is the same workload single-goroutine,
// for comparing per-op cost against the parallel path.
func BenchmarkAccumulatorSerialBaseline(b *testing.B) {
	a := NewAccumulator(Config{}, epoch)
	channels := make([]string, 1024)
	for i := range channels {
		channels[i] = fmt.Sprintf("game-tile-%d", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.OnPublish(channels[i&1023], 7, 128, 4)
	}
}
