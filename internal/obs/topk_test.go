package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTopKRanksHotChannels(t *testing.T) {
	now := time.Unix(0, 0)
	tk := NewTopK(0, func() time.Time { return now }) // shift 0: count everything

	for i := 0; i < 1000; i++ {
		tk.Record("hot")
	}
	for i := 0; i < 100; i++ {
		tk.Record("warm")
	}
	tk.Record("cold")

	now = now.Add(time.Second)
	top := tk.Top(2)
	if len(top) != 2 {
		t.Fatalf("top = %+v, want 2 entries", top)
	}
	if top[0].Channel != "hot" || top[1].Channel != "warm" {
		t.Fatalf("order = %+v", top)
	}
	if top[0].Rate < 999 || top[0].Rate > 1001 {
		t.Fatalf("hot rate = %v, want ~1000/s", top[0].Rate)
	}
}

func TestTopKSamplingScalesRates(t *testing.T) {
	now := time.Unix(0, 0)
	tk := NewTopK(4, func() time.Time { return now }) // every 16th
	for i := 0; i < 1600; i++ {
		tk.Record("ch")
	}
	now = now.Add(time.Second)
	top := tk.Top(1)
	if len(top) != 1 {
		t.Fatalf("top = %+v", top)
	}
	// 1600 publishes sampled 1/16 → 100 counted → scaled back to 1600/s.
	if top[0].Rate != 1600 {
		t.Fatalf("rate = %v, want 1600", top[0].Rate)
	}
}

// cycledRates publishes rounds rounds of channels in strict rotation on a
// table sampling one in 16 and returns each channel's ranked rate over one
// second, against the true rate of rounds per second.
func cycledRates(t *testing.T, channels, rounds int) map[string]float64 {
	t.Helper()
	now := time.Unix(0, 0)
	tk := NewTopK(4, func() time.Time { return now })
	for r := 0; r < rounds; r++ {
		for c := 0; c < channels; c++ {
			tk.Record(fmt.Sprintf("ch-%d", c))
		}
	}
	now = now.Add(time.Second)
	rates := map[string]float64{}
	for _, c := range tk.Top(channels) {
		rates[c.Channel] = c.Rate
	}
	return rates
}

// TestTopKSamplingAlternatedChannels: two channels published strictly
// alternately are each ranked within 10% of their true rate. A sample taken
// at a fixed offset in every block of 16 would see only one of them.
func TestTopKSamplingAlternatedChannels(t *testing.T) {
	const rounds = 16000
	rates := cycledRates(t, 2, rounds)
	for c := 0; c < 2; c++ {
		ch := fmt.Sprintf("ch-%d", c)
		if r := rates[ch]; r < 0.9*rounds || r > 1.1*rounds {
			t.Errorf("%s ranked at %v/s, true rate %d/s (all: %v)", ch, r, rounds, rates)
		}
	}
}

// TestTopKSamplingRoundRobin: sixteen channels in round-robin are each ranked
// within 15% of their true rate, where a fixed sampling offset ranks one of
// them at 16 times its rate and hides the rest.
func TestTopKSamplingRoundRobin(t *testing.T) {
	const rounds = 16000
	rates := cycledRates(t, 16, rounds)
	for c := 0; c < 16; c++ {
		ch := fmt.Sprintf("ch-%d", c)
		if r := rates[ch]; r < 0.85*rounds || r > 1.15*rounds {
			t.Errorf("%s ranked at %v/s, true rate %d/s (all: %v)", ch, r, rounds, rates)
		}
	}
}

// TestSampledOnePerBlock: N blocks of 2^shift consecutive calls give exactly
// N samples, one in each block.
func TestSampledOnePerBlock(t *testing.T) {
	for _, shift := range []uint64{0, 1, 4, 7} {
		for block := uint64(0); block < 1000; block++ {
			hits := 0
			for i := uint64(0); i < 1<<shift; i++ {
				if Sampled(block<<shift+i, shift) {
					hits++
				}
			}
			if hits != 1 {
				t.Fatalf("shift %d block %d: %d samples, want 1", shift, block, hits)
			}
		}
	}
}

func TestTopKDropsIdleChannels(t *testing.T) {
	now := time.Unix(0, 0)
	tk := NewTopK(0, func() time.Time { return now })
	tk.Record("once")
	now = now.Add(time.Second)
	if top := tk.Top(10); len(top) != 1 {
		t.Fatalf("first window top = %+v", top)
	}
	// Idle for a full window: evicted, not reported at rate 0.
	now = now.Add(time.Second)
	if top := tk.Top(10); len(top) != 0 {
		t.Fatalf("idle channel still reported: %+v", top)
	}
	if n := tk.CacheStats().Size; n != 0 {
		t.Fatalf("idle channel still held: size %d", n)
	}

	// A latency the slow read-out has not taken keeps the entry through
	// an idle Top window; once Slowest takes it, the next Top drops it.
	tk.Observe("stamped", time.Millisecond)
	tk.Top(10)
	if top := tk.Top(10); len(top) != 0 {
		t.Fatalf("second window top = %+v, want empty", top)
	}
	if n := tk.CacheStats().Size; n != 1 {
		t.Fatalf("entry with an unread latency dropped: size %d", n)
	}
	if slow := tk.Slowest(10); len(slow) != 1 {
		t.Fatalf("slowest = %+v, want [stamped]", slow)
	}
	tk.Top(10)
	if n := tk.CacheStats().Size; n != 0 {
		t.Fatalf("fully read idle channel still held: size %d", n)
	}
}

func TestTopKCapBoundsChannelSet(t *testing.T) {
	now := time.Unix(0, 0)
	tk := newTopK(0, 64, func() time.Time { return now })
	for i := 0; i < 100_000; i++ {
		tk.Record(fmt.Sprintf("dev-%d", i))
	}
	st := tk.CacheStats()
	if st.Size > 64 {
		t.Fatalf("tracked channels=%d exceed cap 64", st.Size)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under cap pressure")
	}
	now = now.Add(time.Second)
	if top := tk.Top(1000); len(top) > 64 {
		t.Fatalf("top returned %d channels", len(top))
	}
}

func TestTopKHotChannelSurvivesColdFlood(t *testing.T) {
	now := time.Unix(0, 0)
	tk := newTopK(0, 64, func() time.Time { return now })
	// Interleave a hot channel with a cold flood: CLOCK keeps the hot one.
	for i := 0; i < 10_000; i++ {
		tk.Record("hot")
		tk.Record(fmt.Sprintf("cold-%d", i))
	}
	now = now.Add(time.Second)
	top := tk.Top(1)
	if len(top) != 1 || top[0].Channel != "hot" {
		t.Fatalf("hot channel lost to cold flood: %+v", top)
	}
}

func TestTopKEvictedChannelDeltaUnderflowGuard(t *testing.T) {
	// A channel read at a high count, then evicted and re-created, must
	// count its new entry from zero, not from the old baseline.
	now := time.Unix(0, 0)
	tk := newTopK(0, 16, func() time.Time { return now }) // 1 slot/shard
	for i := 0; i < 1000; i++ {
		tk.Observe("victim", time.Millisecond)
	}
	now = now.Add(time.Second)
	tk.Top(100) // read victim at 1000
	tk.Slowest(100)
	for i := 0; i < 1000; i++ {
		tk.Record(fmt.Sprintf("flood-%d", i)) // evict victim
	}
	tk.Observe("victim", time.Millisecond) // re-created with count 1
	now = now.Add(time.Second)
	for _, cr := range tk.Top(1000) {
		if cr.Channel == "victim" && cr.Rate != 1 {
			t.Fatalf("re-created victim rate = %v, want 1", cr.Rate)
		}
	}
	for _, cl := range tk.Slowest(1000) {
		if cl.Channel == "victim" && cl.Count != 1 {
			t.Fatalf("re-created victim latency count = %d, want 1", cl.Count)
		}
	}
}

func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(-1, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ch := fmt.Sprintf("ch%d", g%4)
			for i := 0; i < 10000; i++ {
				if g%2 == 0 {
					tk.Record(ch)
				} else {
					tk.Observe(ch, time.Duration(i)*time.Microsecond)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tk.Top(3)
			if i%3 == 0 {
				tk.Slowest(3)
			}
		}
	}()
	wg.Wait()
	<-done
}

// TestTopKReadOutsKeepOwnWindows interleaves the two read-outs at different
// cadences: each reports exactly the publications since its own previous
// call, and neither consumes the other's window.
func TestTopKReadOutsKeepOwnWindows(t *testing.T) {
	now := time.Unix(0, 0)
	tk := NewTopK(0, func() time.Time { return now })
	observe := func(n int) {
		for i := 0; i < n; i++ {
			tk.Observe("ch", time.Millisecond)
		}
	}
	rate := func() float64 {
		now = now.Add(time.Second)
		top := tk.Top(1)
		if len(top) == 0 {
			return 0
		}
		return top[0].Rate
	}
	count := func() uint64 {
		slow := tk.Slowest(1)
		if len(slow) == 0 {
			return 0
		}
		return slow[0].Count
	}
	observe(10)
	if r := rate(); r != 10 {
		t.Fatalf("Top window 1 = %v, want 10", r)
	}
	observe(5)
	if r := rate(); r != 5 {
		t.Fatalf("Top window 2 = %v, want 5", r)
	}
	if c := count(); c != 15 {
		t.Fatalf("Slowest window 1 = %d, want 15 (both Top windows)", c)
	}
	observe(3)
	if c := count(); c != 3 {
		t.Fatalf("Slowest window 2 = %d, want 3", c)
	}
	observe(2)
	if r := rate(); r != 5 {
		t.Fatalf("Top window 3 = %v, want 5 (both Slowest windows)", r)
	}
	if c := count(); c != 2 {
		t.Fatalf("Slowest window 3 = %d, want 2", c)
	}
}

// TestTopKUnstampedHotNotSlow: a publication with no latency counts toward
// the hot channels but never shows among the slow ones.
func TestTopKUnstampedHotNotSlow(t *testing.T) {
	now := time.Unix(0, 0)
	tk := NewTopK(0, func() time.Time { return now })
	tk.Record("plain")
	tk.Observe("stamped", time.Millisecond)
	now = now.Add(time.Second)
	if top := tk.Top(10); len(top) != 2 {
		t.Fatalf("hot = %+v, want plain and stamped", top)
	}
	if slow := tk.Slowest(10); len(slow) != 1 || slow[0].Channel != "stamped" {
		t.Fatalf("slow = %+v, want [stamped]", slow)
	}
}

func TestTopKZeroAllocRecord(t *testing.T) {
	tk := NewTopK(0, nil)
	tk.Record("warm")
	if allocs := testing.AllocsPerRun(100, func() { tk.Record("warm") }); allocs != 0 {
		t.Fatalf("Record allocates %v allocs/op on a warm channel, want 0", allocs)
	}
}

func TestLatencyTopKRanksByContribution(t *testing.T) {
	tk := newTopK(0, 0, nil) // unsampled: every observation counts

	// "hot" is moderately slow but very busy; "glacial" is very slow but
	// near-idle; "fast" is busy but quick. Contribution (p99 × count) must
	// rank hot first.
	for i := 0; i < 1000; i++ {
		tk.Observe("hot", 20*time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		tk.Observe("glacial", 2*time.Second)
	}
	for i := 0; i < 1000; i++ {
		tk.Observe("fast", 200*time.Microsecond)
	}

	top := tk.Slowest(3)
	if len(top) != 3 {
		t.Fatalf("Slowest(3) returned %d channels", len(top))
	}
	if top[0].Channel != "hot" {
		t.Fatalf("top channel = %q, want hot (got %+v)", top[0].Channel, top)
	}
	if top[0].Count != 1000 {
		t.Fatalf("hot count = %d, want 1000", top[0].Count)
	}
	// 20ms lands in the (16.4ms, 32.8ms] power-of-two bucket.
	if top[0].P99 < 0.02 || top[0].P99 > 0.04 {
		t.Fatalf("hot p99 = %v, want ~32ms bucket bound", top[0].P99)
	}
	for _, c := range top {
		if c.Channel == "glacial" && (c.P99 < 2 || c.P99 > 4.2) {
			t.Fatalf("glacial p99 = %v, want in [2s, 4.2s]", c.P99)
		}
	}
}

func TestLatencyTopKWindowed(t *testing.T) {
	tk := newTopK(0, 0, nil)
	tk.Observe("a", time.Millisecond)
	if top := tk.Slowest(10); len(top) != 1 || top[0].Channel != "a" {
		t.Fatalf("first window = %+v, want [a]", top)
	}
	tk.Top(10)
	// Nothing new: the second window is empty and, with both read-outs
	// taken, the idle channel is forgotten.
	if top := tk.Slowest(10); len(top) != 0 {
		t.Fatalf("idle window = %+v, want empty", top)
	}
	if n := tk.CacheStats().Size; n != 0 {
		t.Fatalf("idle channel still held: size %d", n)
	}
	// Re-observation after idle-drop starts a fresh entry.
	tk.Observe("a", time.Millisecond)
	if top := tk.Slowest(10); len(top) != 1 || top[0].Count != 1 {
		t.Fatalf("post-idle window = %+v, want [a count=1]", top)
	}
}

func TestLatencyTopKSampling(t *testing.T) {
	tk := newTopK(2, 0, nil) // every 4th observation
	for i := 0; i < 400; i++ {
		tk.Observe("ch", time.Millisecond)
	}
	top := tk.Slowest(1)
	if len(top) != 1 {
		t.Fatalf("Slowest = %+v", top)
	}
	// 100 sampled observations scaled back by 4.
	if top[0].Count != 400 {
		t.Fatalf("sample-scaled count = %d, want 400", top[0].Count)
	}
}

func TestLatencyTopKZeroAllocObserve(t *testing.T) {
	tk := newTopK(0, 0, nil)
	tk.Observe("warm", time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		tk.Observe("warm", 2*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v allocs/op on a warm channel, want 0", allocs)
	}
}

// BenchmarkTopKScrape gates the steady-state hot read-out (stable channel
// set, reused destination slice): zero allocations per Top call.
func BenchmarkTopKScrape(b *testing.B) {
	now := time.Unix(0, 0)
	tk := NewTopK(0, func() time.Time { return now })
	channels := make([]string, 256)
	for i := range channels {
		channels[i] = fmt.Sprintf("ch-%d", i)
	}
	dst := make([]ChannelRate, 0, 256)
	record := func() {
		for _, ch := range channels {
			tk.Record(ch)
		}
	}
	record()
	now = now.Add(time.Second)
	dst = tk.TopInto(16, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record() // keep every channel active so none are dropped as idle
		now = now.Add(time.Second)
		dst = tk.TopInto(16, dst[:0])
	}
}

func BenchmarkTopKRecordHit(b *testing.B) {
	tk := NewTopK(0, nil)
	tk.Record("ch")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk.Record("ch")
	}
}
