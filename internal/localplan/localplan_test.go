package localplan

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/plan"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// sweepAll runs one full rotation of the incremental sweep.
func sweepAll(s *Store, now time.Time) int {
	dropped := 0
	for i := 0; i < 4; i++ {
		dropped += s.Sweep(now)
	}
	return dropped
}

func mkEntry(strategy plan.Strategy, servers ...string) plan.Entry {
	return plan.Entry{Strategy: strategy, Servers: servers}
}

func TestLookupFallback(t *testing.T) {
	s := New([]string{"s1", "s2"}, 0)
	e, v := s.Lookup("ch", epoch)
	if v != 0 || len(e.Servers) != 1 {
		t.Fatalf("fallback=%+v v=%d", e, v)
	}
	if e.Servers[0] != s.Base().Home("ch") {
		t.Fatal("fallback disagrees with ring")
	}
	if s.Len() != 0 {
		t.Fatal("fallback lookup created an entry")
	}
}

func TestUpdateAndVersioning(t *testing.T) {
	s := New([]string{"s1", "s2"}, 0)
	if !s.Update("ch", mkEntry(plan.StrategySingle, "s2"), 5, epoch) {
		t.Fatal("update rejected")
	}
	e, v := s.Lookup("ch", epoch)
	if v != 5 || e.Servers[0] != "s2" {
		t.Fatalf("entry=%+v v=%d", e, v)
	}
	// Older version ignored.
	if s.Update("ch", mkEntry(plan.StrategySingle, "s1"), 4, epoch) {
		t.Fatal("stale update applied")
	}
	// Same version re-applied (idempotent refresh).
	if !s.Update("ch", mkEntry(plan.StrategySingle, "s1"), 5, epoch) {
		t.Fatal("same-version refresh rejected")
	}
	// Newer version wins.
	if !s.Update("ch", mkEntry(plan.StrategyAllPublishers, "s1", "s2"), 6, epoch) {
		t.Fatal("newer update rejected")
	}
	e, v = s.Lookup("ch", epoch)
	if v != 6 || e.Strategy != plan.StrategyAllPublishers {
		t.Fatalf("entry=%+v v=%d", e, v)
	}
}

func TestUpdateValidation(t *testing.T) {
	s := New([]string{"s1"}, 0)
	if s.Update("", mkEntry(plan.StrategySingle, "s1"), 1, epoch) {
		t.Fatal("empty channel accepted")
	}
	if s.Update("ch", plan.Entry{Strategy: plan.StrategySingle}, 1, epoch) {
		t.Fatal("empty server set accepted")
	}
	if s.Update("ch", plan.Entry{Strategy: 0, Servers: []string{"s1"}}, 1, epoch) {
		t.Fatal("invalid strategy accepted")
	}
}

func TestUpdateCopiesServers(t *testing.T) {
	s := New([]string{"s1"}, 0)
	servers := []string{"s1"}
	s.Update("ch", plan.Entry{Strategy: plan.StrategySingle, Servers: servers}, 1, epoch)
	servers[0] = "mutated"
	if e, _ := s.Lookup("ch", epoch); e.Servers[0] != "s1" {
		t.Fatal("store aliases caller slice")
	}
}

func TestSweepExpiry(t *testing.T) {
	s := New([]string{"s1", "s2"}, 10*time.Second)
	s.Update("old", mkEntry(plan.StrategySingle, "s2"), 1, epoch)
	s.Update("fresh", mkEntry(plan.StrategySingle, "s2"), 1, epoch.Add(8*time.Second))
	s.Update("kept", mkEntry(plan.StrategySingle, "s2"), 1, epoch)

	s.Pin("kept", true)
	dropped := sweepAll(s, epoch.Add(11*time.Second))
	if dropped != 1 {
		t.Fatalf("dropped=%d, want 1", dropped)
	}
	if _, _, ok := s.Peek("old"); ok {
		t.Fatal("expired entry survived")
	}
	if _, _, ok := s.Peek("fresh"); !ok {
		t.Fatal("fresh entry swept")
	}
	if _, _, ok := s.Peek("kept"); !ok {
		t.Fatal("subscribed entry swept")
	}
}

func TestTouchAndLookupResetTimer(t *testing.T) {
	s := New([]string{"s1"}, 10*time.Second)
	s.Update("a", mkEntry(plan.StrategySingle, "s1"), 1, epoch)
	s.Update("b", mkEntry(plan.StrategySingle, "s1"), 1, epoch)
	// Touch "a" (receive), Lookup "b" (send) at t=9s: both timers reset.
	s.Touch("a", epoch.Add(9*time.Second))
	s.Lookup("b", epoch.Add(9*time.Second))
	if dropped := sweepAll(s, epoch.Add(15*time.Second)); dropped != 0 {
		t.Fatalf("dropped=%d after timer resets", dropped)
	}
	if dropped := sweepAll(s, epoch.Add(25*time.Second)); dropped != 2 {
		t.Fatalf("dropped=%d, want 2", dropped)
	}
}

func TestForget(t *testing.T) {
	s := New([]string{"s1"}, 0)
	s.Update("a", mkEntry(plan.StrategySingle, "s1"), 1, epoch)
	s.Forget("a")
	if s.Len() != 0 {
		t.Fatal("Forget failed")
	}
}

func TestDefaultTimeout(t *testing.T) {
	s := New([]string{"s1"}, 0)
	s.Update("a", mkEntry(plan.StrategySingle, "s1"), 1, epoch)
	if dropped := sweepAll(s, epoch.Add(DefaultTimeout-time.Second)); dropped != 0 {
		t.Fatalf("dropped=%d inside the default timeout", dropped)
	}
	if dropped := sweepAll(s, epoch.Add(DefaultTimeout+time.Second)); dropped != 1 {
		t.Fatalf("dropped=%d past the default timeout, want 1", dropped)
	}
}

func TestUpdateRing(t *testing.T) {
	s := New([]string{"s1"}, 0)
	if s.Base().Home("ch") != "s1" {
		t.Fatal("single-member ring broken")
	}
	// Newer version with more members: applied.
	if !s.UpdateRing([]string{"s1", "s2"}, 3) {
		t.Fatal("ring update rejected")
	}
	foundS2 := false
	for i := 0; i < 200 && !foundS2; i++ {
		foundS2 = s.Base().Home("probe-"+string(rune('a'+i%26))+string(rune('0'+i/26))) == "s2"
	}
	if !foundS2 {
		t.Fatal("updated ring never maps to the new member")
	}
	// Same or older version: ignored.
	if s.UpdateRing([]string{"s1"}, 3) {
		t.Fatal("same-version ring update applied")
	}
	if s.UpdateRing([]string{"s1"}, 2) {
		t.Fatal("older ring update applied")
	}
	// Same membership at a newer version: version advances, no rebuild.
	if s.UpdateRing([]string{"s2", "s1"}, 4) {
		t.Fatal("identical membership reported as change")
	}
	// But the version was consumed: a later conflicting v4 is stale.
	if s.UpdateRing([]string{"s9"}, 4) {
		t.Fatal("stale version applied after version consumption")
	}
	// Empty membership never applies.
	if s.UpdateRing(nil, 99) {
		t.Fatal("empty ring update applied")
	}
}

func TestUpdateRingKeepsEntries(t *testing.T) {
	s := New([]string{"s1"}, 0)
	s.Update("ch", mkEntry(plan.StrategySingle, "s1"), 2, epoch)
	s.UpdateRing([]string{"s1", "s2"}, 5)
	if e, v := s.Lookup("ch", epoch); v != 2 || e.Servers[0] != "s1" {
		t.Fatalf("entry lost on ring update: %+v v=%d", e, v)
	}
}

func TestIncrementalSweepCoversStoreOverFullRotation(t *testing.T) {
	s := New([]string{"s1"}, 10*time.Second)
	for i := 0; i < 100; i++ {
		s.Update(fmt.Sprintf("ch-%d", i), mkEntry(plan.StrategySingle, "s1"), 1, epoch)
	}
	// Each Sweep covers a quarter of the shards; four calls cover everything.
	later := epoch.Add(time.Minute)
	total := 0
	for i := 0; i < 4; i++ {
		total += s.Sweep(later)
	}
	if total != 100 || s.Len() != 0 {
		t.Fatalf("4 incremental sweeps dropped %d, len=%d", total, s.Len())
	}
}

func TestCapEvictionFallsBackToRing(t *testing.T) {
	// Cap 16 = one entry per shard: flooding learned routes must evict, and
	// evicted channels must resolve through consistent hashing again.
	s := newStore([]string{"s1", "s2"}, 0, 16)
	for i := 0; i < 500; i++ {
		s.Update(fmt.Sprintf("flood-%d", i), mkEntry(plan.StrategySingle, "s2"), 1, epoch)
	}
	if s.Len() > 16 {
		t.Fatalf("len=%d exceeds cap", s.Len())
	}
	st := s.CacheStats()
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded under cap pressure")
	}
	evicted := ""
	for i := 0; i < 500; i++ {
		ch := fmt.Sprintf("flood-%d", i)
		if _, _, ok := s.Peek(ch); !ok {
			evicted = ch
			break
		}
	}
	if evicted == "" {
		t.Fatal("no channel was evicted")
	}
	e, v := s.Lookup(evicted, epoch)
	if v != 0 {
		t.Fatalf("evicted channel still learned: v=%d", v)
	}
	if e.Servers[0] != s.Base().Home(evicted) {
		t.Fatal("evicted channel does not fall back to ring home")
	}
}

func TestPinnedSubscriptionSurvivesEvictionAndSweep(t *testing.T) {
	// Regression: a subscribed channel's learned route must survive both
	// capacity churn from unbounded channel floods and idle sweeps.
	s := newStore([]string{"s1", "s2"}, 5*time.Second, 16)
	s.Update("subscribed", mkEntry(plan.StrategySingle, "s2"), 7, epoch)
	if !s.Pin("subscribed", true) {
		t.Fatal("pin rejected")
	}
	for i := 0; i < 1000; i++ {
		s.Update(fmt.Sprintf("flood-%d", i), mkEntry(plan.StrategySingle, "s1"), 1, epoch)
	}
	if e, v := s.Lookup("subscribed", epoch); v != 7 || e.Servers[0] != "s2" {
		t.Fatalf("pinned route lost to capacity churn: %+v v=%d", e, v)
	}
	// Idle far past the timeout: still retained.
	if sweepAll(s, epoch.Add(time.Hour)) == 0 {
		t.Fatal("sweep dropped nothing (flood entries should go)")
	}
	if _, v := s.Lookup("subscribed", epoch); v != 7 {
		t.Fatal("pinned route swept while subscribed")
	}
	// Unsubscribe: unpin, and the entry ages out normally.
	s.Pin("subscribed", false)
	sweepAll(s, epoch.Add(2*time.Hour))
	if _, _, ok := s.Peek("subscribed"); ok {
		t.Fatal("unpinned idle route survived sweep")
	}
	// Updates preserve the pin.
	s.Update("sub2", mkEntry(plan.StrategySingle, "s1"), 1, epoch)
	s.Pin("sub2", true)
	s.Update("sub2", mkEntry(plan.StrategySingle, "s2"), 2, epoch)
	if s.CacheStats().Pinned != 1 {
		t.Fatal("update dropped the pin")
	}
}

func TestUpdateRingDoesNotAllocatePerComparison(t *testing.T) {
	s := New([]string{"s1", "s2", "s3", "s4"}, 0)
	members := []string{"s4", "s3", "s2", "s1"}
	version := uint64(1)
	allocs := testing.AllocsPerRun(100, func() {
		version++
		s.UpdateRing(members, version) // same membership: compare, no rebuild
	})
	if allocs != 0 {
		t.Fatalf("UpdateRing allocates %.1f/op on identical membership", allocs)
	}
}

// TestConcurrentTouchSweepUpdateRace is the -race gate over the striped
// store: publish and delivery paths read and Touch learned entries while the
// owner updates, sweeps, pins and re-rings concurrently.
func TestConcurrentTouchSweepUpdateRace(t *testing.T) {
	s := newStore([]string{"s1", "s2"}, 50*time.Millisecond, 128)
	channels := make([]string, 256)
	for i := range channels {
		channels[i] = fmt.Sprintf("ch-%d", i)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				f(i)
			}
		}()
	}
	now := func() time.Time { return time.Now() }
	run(func(i int) { s.Touch(channels[i%256], now()) })
	run(func(i int) { s.Lookup(channels[(i*7)%256], now()) })
	run(func(i int) {
		s.Update(channels[i%256], mkEntry(plan.StrategySingle, "s1"), uint64(i), now())
	})
	run(func(i int) { s.Sweep(now()) })
	run(func(i int) { s.Pin(channels[i%256], i%2 == 0) })
	run(func(i int) {
		s.UpdateRing([]string{"s1", "s2", fmt.Sprintf("s%d", i%4)}, uint64(i))
		s.Base().Home(channels[i%256])
	})
	run(func(i int) {
		s.Learned(channels[(i*3)%256])
		s.CacheStats()
	})
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}
