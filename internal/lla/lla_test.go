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
	a := NewAccumulator()
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
	a := NewAccumulator()
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
	a := NewAccumulator()
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
	a := NewAccumulator()
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
	a := NewAccumulator()
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

func TestAnalyzerEndToEndWithManualClock(t *testing.T) {
	clk := clock.NewManual(epoch)
	an := NewAnalyzer(Config{
		Server:         "pub1",
		MaxOutgoingBps: 1000,
		Unit:           time.Second,
		ReportEvery:    3 * time.Second,
		Clock:          clk,
	})
	an.Start()
	defer an.Stop()

	// Simulate broker events: an envelope-wrapped publication so the
	// publisher identity is recovered.
	env := &message.Envelope{Type: message.TypeData, ID: message.ID{Node: 42, Seq: 1}, Channel: "c", Payload: []byte("xy")}
	payload := env.Marshal()
	an.OnSubscribe("c", "client-1", 1)
	an.OnPublish("c", payload, 1)

	// Tick three units; the report fires on the third.
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		time.Sleep(5 * time.Millisecond) // let the loop observe the tick
	}

	select {
	case r := <-an.Reports():
		if r.Server != "pub1" || r.Seq != 1 {
			t.Fatalf("report header %+v", r)
		}
		if r.MaxOutgoingBps != 1000 {
			t.Fatalf("maxBps=%f", r.MaxOutgoingBps)
		}
		wantMeasured := float64(len(payload)) / 3.0
		if diff := r.MeasuredOutgoingBps - wantMeasured; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("measuredBps=%f want %f", r.MeasuredOutgoingBps, wantMeasured)
		}
		if len(r.Units) == 0 {
			t.Fatal("report carries no units")
		}
		c := r.Units[0].Channels[0]
		if c.Publishers != 1 || c.Publications != 1 || c.Subscribers != 1 {
			t.Fatalf("unit stats %+v", c)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no report emitted")
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

type sinkChan chan struct{}

func (s sinkChan) Deliver(string, []byte) { s <- struct{}{} }
func (s sinkChan) Closed(error)           {}

func TestAnalyzerStopIdempotent(t *testing.T) {
	an := NewAnalyzer(Config{Server: "x"})
	an.Start()
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
	a := NewAccumulatorWithCap(AccumStripes)
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
	a := NewAccumulatorWithCap(AccumStripes) // one subscriber slot per stripe
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
	r := &Report{Units: []UnitStats{{
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
	a := NewAccumulatorWithCap(256)
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
	sealed := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			u := a.Seal()
			_ = u
			if sealed == 0 {
				t.Log("no mid-run seal happened") // timing-dependent, not fatal
			}
			return
		default:
			a.Seal()
			sealed++
			time.Sleep(time.Millisecond)
		}
	}
}

// BenchmarkAccumulatorParallel measures the striped OnPublish path under
// parallel observers (the broker fan-out shape that serialized on the seed's
// single Accumulator.mu). Run with -cpu 8 to exercise 8 goroutines.
func BenchmarkAccumulatorParallel(b *testing.B) {
	a := NewAccumulator()
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
	a := NewAccumulator()
	channels := make([]string, 1024)
	for i := range channels {
		channels[i] = fmt.Sprintf("game-tile-%d", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.OnPublish(channels[i&1023], 7, 128, 4)
	}
}
