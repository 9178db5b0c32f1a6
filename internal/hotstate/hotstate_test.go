package hotstate

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newCache(capacity, shards int) *Cache[string, int] {
	return New[string, int](Config[string, int]{Capacity: capacity, Shards: shards})
}

func TestBasicPutGetDelete(t *testing.T) {
	c := newCache(0, 4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	if c.Put("a", 1) {
		t.Fatal("first Put reported replace")
	}
	if !c.Put("a", 2) {
		t.Fatal("second Put did not report replace")
	}
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatalf("Get=%d,%v", v, ok)
	}
	if v, ok := c.Delete("a"); !ok || v != 2 {
		t.Fatalf("Delete=%d,%v", v, ok)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestShardCountPowerOfTwo(t *testing.T) {
	for want, in := range map[int]int{16: 0, 1: 1, 4: 3, 8: 8, 32: 17} {
		if got := New[string, int](Config[string, int]{Shards: in}).ShardCount(); got != want {
			t.Errorf("shards(%d)=%d, want %d", in, got, want)
		}
	}
}

func TestCapacityBoundAndEviction(t *testing.T) {
	c := newCache(8, 1)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 8 {
		t.Fatalf("len=%d, want cap 8", c.Len())
	}
	if st := c.Stats(); st.Evictions != 92 || st.Size != 8 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestClockPrefersColdVictims(t *testing.T) {
	c := New[string, int](Config[string, int]{Capacity: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	// An entry re-referenced between eviction scans keeps its second chance
	// forever: churn 40 cold inserts through the full shard, touching k1
	// before each, and k1 must be the one entry that survives.
	for i := 0; i < 40; i++ {
		if _, ok := c.Get("k1"); !ok {
			t.Fatalf("hot entry k1 evicted at churn step %d", i)
		}
		c.Put(fmt.Sprintf("cold%d", i), i)
	}
	if _, ok := c.Peek("k1"); !ok {
		t.Fatal("hot entry k1 evicted despite constant references")
	}
	if _, ok := c.Peek("k0"); ok {
		t.Fatal("cold entry k0 never evicted under churn")
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	c := New[string, int](Config[string, int]{Capacity: 4, Shards: 1})
	c.Put("pin", 99)
	c.Pin("pin", true)
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if v, ok := c.Get("pin"); !ok || v != 99 {
		t.Fatal("pinned entry evicted by capacity pressure")
	}
	// Sweeping everything must skip the pin too.
	c.Sweep(0, func(string, int) bool { return true })
	if _, ok := c.Get("pin"); !ok {
		t.Fatal("pinned entry swept")
	}
	// Unpinning makes it evictable again.
	c.Pin("pin", false)
	c.Sweep(0, func(string, int) bool { return true })
	if _, ok := c.Peek("pin"); ok {
		t.Fatal("unpinned entry survived a drop-all sweep")
	}
}

func TestAllPinnedOverflowsInsteadOfDeadlock(t *testing.T) {
	c := New[string, int](Config[string, int]{Capacity: 2, Shards: 1})
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("p%d", i), i)
		c.Pin(fmt.Sprintf("p%d", i), true)
	}
	if c.Len() != 10 {
		t.Fatalf("len=%d: pinned entries must overflow the cap, not vanish", c.Len())
	}
	if st := c.Stats(); st.Pinned != 10 {
		t.Fatalf("pinned=%d", st.Pinned)
	}
}

func TestIncrementalSweepCoversAllShardsEventually(t *testing.T) {
	c := New[string, int](Config[string, int]{Shards: 8})
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	total := 0
	for i := 0; i < 8; i++ { // 8 calls at 1 shard each = one full rotation
		total += c.Sweep(1, func(string, int) bool { return true })
	}
	if total != 200 || c.Len() != 0 {
		t.Fatalf("incremental sweep dropped %d, len=%d", total, c.Len())
	}
}

func TestUpsert(t *testing.T) {
	c := newCache(0, 2)
	wrote := c.Upsert("a", func(old int, ok bool) (int, bool) {
		if ok {
			t.Fatal("phantom entry")
		}
		return 7, true
	})
	if !wrote {
		t.Fatal("insert not written")
	}
	// Conditional update: reject when old value is newer.
	wrote = c.Upsert("a", func(old int, ok bool) (int, bool) {
		if !ok || old != 7 {
			t.Fatalf("old=%d ok=%v", old, ok)
		}
		return 3, old < 3
	})
	if wrote {
		t.Fatal("stale write applied")
	}
	if v, _ := c.Get("a"); v != 7 {
		t.Fatalf("v=%d", v)
	}
	// Declined insert leaves no entry behind.
	c.Upsert("ghost", func(int, bool) (int, bool) { return 0, false })
	if _, ok := c.Peek("ghost"); ok {
		t.Fatal("declined insert materialized")
	}
}

// TestConcurrentStress hammers every operation from many goroutines; run
// under -race it is the package's data-race gate.
func TestConcurrentStress(t *testing.T) {
	c := newCache(256, 8)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	worker := func(seed int64, f func(r *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				f(r)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		worker(int64(i), func(r *rand.Rand) { c.Get(keys[r.Intn(len(keys))]) })
		worker(int64(10+i), func(r *rand.Rand) { c.Put(keys[r.Intn(len(keys))], r.Int()) })
	}
	worker(20, func(r *rand.Rand) { c.Delete(keys[r.Intn(len(keys))]) })
	worker(21, func(r *rand.Rand) { c.Pin(keys[r.Intn(len(keys))], r.Intn(2) == 0) })
	worker(22, func(r *rand.Rand) {
		c.Sweep(2, func(_ string, v int) bool { return v%3 == 0 })
	})
	worker(23, func(r *rand.Rand) {
		c.Upsert(keys[r.Intn(len(keys))], func(old int, ok bool) (int, bool) { return old + 1, true })
	})
	worker(24, func(r *rand.Rand) { c.Stats() })
	worker(25, func(r *rand.Rand) {
		n := 0
		c.Range(func(string, int) bool { n++; return n < 64 })
	})
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if l := c.Len(); l > 256+c.ShardCount() {
		t.Fatalf("len=%d exceeds capacity slack", l)
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New[string, int](Config[string, int]{Capacity: 1024})
	for i := 0; i < 512; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get("k37")
	}
}

func BenchmarkCachePutChurn(b *testing.B) {
	c := New[string, int](Config[string, int]{Capacity: 1024})
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i&4095], i)
	}
}

func BenchmarkCacheParallelGet(b *testing.B) {
	c := New[string, int](Config[string, int]{Capacity: 4096})
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		c.Put(keys[i], i)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(keys[i&1023])
			i++
		}
	})
}
