package broker

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/message"
)

// sameShardChannels returns n channel names that land in base's shard of the
// channel-record table — eviction pressure is per shard, so only same-shard
// channels contend for records.
func sameShardChannels(base string, n int) []string {
	want := shardIndex(base)
	var out []string
	for i := 0; len(out) < n; i++ {
		name := fmt.Sprintf("evict%d", i)
		if shardIndex(name) == want {
			out = append(out, name)
		}
	}
	return out
}

// dataFrame builds a marshaled TypeData envelope ready for Publish. Each call
// allocates a fresh buffer: Publish stamps in place and assumes ownership.
func dataFrame(channel, payload string, stamp int64) []byte {
	e := &message.Envelope{Type: message.TypeData, Channel: channel, Payload: []byte(payload), Stamp: stamp}
	return e.Marshal()
}

// deliveredSeq extracts the broker-stamped (epoch, seq) from a delivery
// captured by chanSink.
func deliveredSeq(t *testing.T, m [2]string) (epoch, seq uint64) {
	t.Helper()
	epoch, seq, ok := message.PeekChannelSeq([]byte(m[1]))
	if !ok {
		t.Fatalf("delivery on %q is not a stamped data frame", m[0])
	}
	return epoch, seq
}

// A cursor below the ring tail gets the retained window replayed in order and
// the overwritten prefix reported as a definite gap.
func TestReplayCursorBelowTail(t *testing.T) {
	b := New(Options{ReplayDepth: 4})
	for i := 1; i <= 10; i++ {
		b.Publish("ch", dataFrame("ch", fmt.Sprintf("m%d", i), int64(i)))
	}
	epoch, head, ok := b.ReplayHead("ch")
	if !ok || head != 10 {
		t.Fatalf("ReplayHead = %d, %d, %v", epoch, head, ok)
	}

	sink := newChanSink(16)
	s, err := b.Connect("c1", sink)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SubscribeFrom("ch", message.Cursor{Seen: []message.EpochSeq{{Epoch: epoch, Seq: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 4, head 10: the ring holds (6, 10]. The cursor wants (2, 10], so
	// 3..6 are gone (4 missed) and 7..10 replay.
	if res.Replayed != 4 || res.Missed != 4 || res.Epoch != epoch {
		t.Fatalf("ReplayResult = %+v, want 4 replayed, 4 missed, epoch %d", res, epoch)
	}
	for want := uint64(7); want <= 10; want++ {
		gotEpoch, gotSeq := deliveredSeq(t, sink.next(t))
		if gotEpoch != epoch || gotSeq != want {
			t.Fatalf("replayed (%d, %d), want (%d, %d)", gotEpoch, gotSeq, epoch, want)
		}
	}
	sink.expectNone(t, 50*time.Millisecond)

	st := b.Stats()
	if st.ReplayRequests != 1 || st.ReplayedFrames != 4 || st.ReplayMissed != 4 {
		t.Fatalf("stats = %d requests, %d replayed, %d missed", st.ReplayRequests, st.ReplayedFrames, st.ReplayMissed)
	}
}

// A current cursor and a cursor claiming the future are both owed nothing —
// neither is a gap.
func TestReplayCursorCurrentAndFuture(t *testing.T) {
	b := New(Options{ReplayDepth: 8})
	for i := 1; i <= 3; i++ {
		b.Publish("ch", dataFrame("ch", "m", int64(i)))
	}
	epoch, _, _ := b.ReplayHead("ch")

	for _, seq := range []uint64{3, 99} {
		sink := newChanSink(4)
		s, err := b.Connect(fmt.Sprintf("c%d", seq), sink)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.SubscribeFrom("ch", message.Cursor{Seen: []message.EpochSeq{{Epoch: epoch, Seq: seq}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Replayed != 0 || res.Missed != 0 {
			t.Fatalf("cursor at seq %d: %+v, want nothing owed", seq, res)
		}
		sink.expectNone(t, 50*time.Millisecond)
		s.Close()
	}
}

// A cursor from another epoch (another broker, or this broker's ring before
// an eviction) falls back to stamp-based replay: frames stamped at or after
// SinceStamp replay, nothing is counted missed, and SinceStamp == 0 means a
// fresh baseline with no replay at all.
func TestReplayEpochMissStampFallback(t *testing.T) {
	b := New(Options{ReplayDepth: 8})
	for i := 1; i <= 3; i++ {
		b.Publish("ch", dataFrame("ch", "m", int64(i*10)))
	}
	epoch, _, _ := b.ReplayHead("ch")
	foreign := epoch + 1 // never matches

	sink := newChanSink(8)
	s, err := b.Connect("c1", sink)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SubscribeFrom("ch", message.Cursor{
		SinceStamp: 20,
		Seen:       []message.EpochSeq{{Epoch: foreign, Seq: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 2 || res.Missed != 0 || res.Epoch != epoch {
		t.Fatalf("stamp fallback: %+v, want 2 replayed (stamps 20, 30), 0 missed", res)
	}
	if _, seq := deliveredSeq(t, sink.next(t)); seq != 2 {
		t.Fatalf("first fallback frame seq %d, want 2", seq)
	}

	sink2 := newChanSink(8)
	s2, err := b.Connect("c2", sink2)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s2.SubscribeFrom("ch", message.Cursor{Seen: []message.EpochSeq{{Epoch: foreign, Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 0 || res.Missed != 0 {
		t.Fatalf("zero-stamp epoch miss: %+v, want fresh baseline with no replay", res)
	}
	sink2.expectNone(t, 50*time.Millisecond)
}

// An evicted ring recreated on the next publish restarts at seq 1 under a new
// epoch, so a stale cursor can never mistake the restarted sequence for a
// continuation of the old one.
func TestReplayEvictedRingGetsNewEpoch(t *testing.T) {
	b := New(Options{ReplayDepth: 4, ChannelCap: 1})
	b.Publish("a", dataFrame("a", "m1", 10))
	b.Publish("a", dataFrame("a", "m2", 20))
	epoch1, head1, ok := b.ReplayHead("a")
	if !ok || head1 != 2 {
		t.Fatalf("ReplayHead(a) = %d, %d, %v", epoch1, head1, ok)
	}

	// Capacity 1: a ring on another channel in a's shard evicts a's.
	other := sameShardChannels("a", 1)[0]
	b.Publish(other, dataFrame(other, "m", 30))
	if _, _, ok := b.ReplayHead("a"); ok {
		t.Fatal("a's ring survived eviction at capacity 1")
	}

	b.Publish("a", dataFrame("a", "m3", 40))
	epoch2, head2, ok := b.ReplayHead("a")
	if !ok {
		t.Fatal("a's ring not recreated")
	}
	if epoch2 == epoch1 {
		t.Fatal("recreated ring reused the evicted epoch")
	}
	if head2 != 1 {
		t.Fatalf("recreated ring head = %d, want a restart at 1", head2)
	}

	// A cursor from the dead epoch resumes via its stamp baseline.
	sink := newChanSink(4)
	s, err := b.Connect("c1", sink)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SubscribeFrom("a", message.Cursor{
		SinceStamp: 20,
		Seen:       []message.EpochSeq{{Epoch: epoch1, Seq: head1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 1 || res.Missed != 0 || res.Epoch != epoch2 {
		t.Fatalf("cross-epoch resume: %+v, want 1 replayed under epoch %d", res, epoch2)
	}
}

// A subscribed channel's ring is pinned: eviction pressure from other
// channels must not reset its epoch or sequence.
func TestReplayPinnedRingSurvivesEviction(t *testing.T) {
	b := New(Options{ReplayDepth: 4, ChannelCap: 1, OutputBuffer: 64})
	sink := newChanSink(64)
	s, err := b.Connect("c1", sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe("a"); err != nil {
		t.Fatal(err)
	}
	b.Publish("a", dataFrame("a", "m1", 10))
	epoch1, _, ok := b.ReplayHead("a")
	if !ok {
		t.Fatal("no ring for subscribed channel")
	}

	for _, ch := range sameShardChannels("a", 8) {
		b.Publish(ch, dataFrame(ch, "m", 10))
	}
	b.Publish("a", dataFrame("a", "m2", 20))

	epoch2, head, ok := b.ReplayHead("a")
	if !ok || epoch2 != epoch1 || head != 2 {
		t.Fatalf("pinned ring after pressure: epoch %d->%d, head %d, ok %v; want same epoch, head 2",
			epoch1, epoch2, head, ok)
	}
}

// The happens-before contract: SubscribeFrom registers the subscription
// before snapshotting the ring, and Publish retains before fan-out — so a
// publication concurrent with a cursor subscribe lands in the replay, the
// live flow, or both, never neither. With a ring deep enough to hold
// everything, the union of delivered sequences has no holes.
func TestReplayConcurrentPublishNeverLost(t *testing.T) {
	const (
		preloaded = 50
		total     = 100
		cursorAt  = 20
	)
	b := New(Options{ReplayDepth: 128, OutputBuffer: 1024})
	for i := 1; i <= preloaded; i++ {
		b.Publish("ch", dataFrame("ch", "m", int64(i)))
	}
	epoch, _, _ := b.ReplayHead("ch")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := preloaded + 1; i <= total; i++ {
			b.Publish("ch", dataFrame("ch", "m", int64(i)))
		}
	}()

	sink := newChanSink(1024)
	s, err := b.Connect("c1", sink)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SubscribeFrom("ch", message.Cursor{Seen: []message.EpochSeq{{Epoch: epoch, Seq: cursorAt}}})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.Missed != 0 {
		t.Fatalf("ring deep enough for everything, yet %d missed", res.Missed)
	}

	// Duplicates are allowed (the replay/live overlap is the client's to
	// dedup); holes are not.
	seen := make(map[uint64]bool)
	deadline := time.After(2 * time.Second)
	for len(seen) < total-cursorAt {
		select {
		case m := <-sink.msgs:
			_, seq := deliveredSeq(t, m)
			if seq <= cursorAt {
				t.Fatalf("replayed seq %d at or below the cursor", seq)
			}
			seen[seq] = true
		case <-deadline:
			var missing []uint64
			for q := uint64(cursorAt + 1); q <= total; q++ {
				if !seen[q] {
					missing = append(missing, q)
				}
			}
			t.Fatalf("lost sequences %v (got %d of %d)", missing, len(seen), total-cursorAt)
		}
	}
}

// Cursor subscribes racing ring eviction/recreation churn must stay safe:
// sequences restart only under fresh epochs and nothing panics. Run under
// -race this doubles as a locking test for the store's Get/Upsert/Pin paths.
func TestReplayEvictionChurnRace(t *testing.T) {
	b := New(Options{ReplayDepth: 4, ChannelCap: 2, OutputBuffer: 4096})
	channels := sameShardChannels("a", 5) // same shard, so rings actually churn

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			ch := channels[i%len(channels)]
			b.Publish(ch, dataFrame(ch, "m", int64(i+1)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			sink := newChanSink(256)
			s, err := b.Connect(fmt.Sprintf("churn%d", i), sink)
			if err != nil {
				t.Error(err)
				return
			}
			ch := channels[i%len(channels)]
			cur := message.Cursor{SinceStamp: 1, Seen: []message.EpochSeq{{Epoch: uint64(i + 1), Seq: uint64(i)}}}
			if _, err := s.SubscribeFrom(ch, cur); err != nil {
				t.Error(err)
				return
			}
			s.Close()
		}
	}()
	wg.Wait()
}

// A ring keeps one buffer per body on its first lap, in a slot array that
// follows the frames it has retained up to depth, and from its first wrap on
// holds them in one laid-out buffer indexed by depth offsets. At every fill
// level — empty, one frame, one short of a lap, exactly a lap, one past it,
// several laps — a cursor is owed exactly (cursor, head], less what the ring
// has overwritten.
func TestReplayRingGrowthBoundaries(t *testing.T) {
	const depth = 8
	for _, n := range []int{0, 1, depth - 1, depth, depth + 1, 3 * depth} {
		b := New(Options{ReplayDepth: depth})
		for i := 1; i <= n; i++ {
			b.Publish("ch", dataFrame("ch", fmt.Sprintf("m%d", i), int64(i)))
		}
		var r *replayRing
		if rec := b.peek("ch"); rec != nil {
			r = &rec.ring
		} else {
			r = &replayRing{}
		}
		if cap(r.slots) > depth || cap(r.offs) > depth {
			t.Fatalf("n=%d: %d slots, %d offsets: past depth %d", n, cap(r.slots), cap(r.offs), depth)
		}
		if n <= depth {
			if len(r.slots) != n || r.buf != nil || r.offs != nil {
				t.Fatalf("n=%d: %d slots, %d-byte buffer, %d offsets; want %d slots and no buffer",
					n, len(r.slots), len(r.buf), len(r.offs), n)
			}
		} else if r.slots != nil || r.buf == nil || len(r.offs) != depth {
			t.Fatalf("n=%d: %d slots, %d-byte buffer, %d offsets; want no slots, a buffer and %d offsets",
				n, len(r.slots), len(r.buf), len(r.offs), depth)
		}
		epoch, head, _ := b.ReplayHead("ch")
		if head != uint64(n) {
			t.Fatalf("n=%d: head %d", n, head)
		}
		tail := uint64(1)
		if n > depth {
			tail = uint64(n-depth) + 1
		}
		for _, cursor := range []uint64{0, uint64(n / 2), uint64(n)} {
			frames, missed, _ := b.collect("ch", message.Cursor{Seen: []message.EpochSeq{{Epoch: epoch, Seq: cursor}}})
			from := max(cursor+1, tail)
			if want := from - (cursor + 1); missed != want {
				t.Fatalf("n=%d cursor=%d: %d missed, want %d", n, cursor, missed, want)
			}
			if want := uint64(n) + 1 - from; uint64(len(frames)) != want {
				t.Fatalf("n=%d cursor=%d: %d frames, want %d", n, cursor, len(frames), want)
			}
			for i, f := range frames {
				env, err := message.Unmarshal(f)
				if err != nil {
					t.Fatal(err)
				}
				if seq := from + uint64(i); env.ChannelSeq != seq || string(env.Payload) != fmt.Sprintf("m%d", seq) {
					t.Fatalf("n=%d cursor=%d: frame %d is seq %d %q, want seq %d", n, cursor, i, env.ChannelSeq, env.Payload, seq)
				}
			}
		}
		if n > depth {
			// Wrapped: the laid-out buffer is reused, so retaining costs
			// no allocation (what BenchmarkBrokerPublishReplay times).
			frame := dataFrame("ch", "mX", 1)
			if allocs := testing.AllocsPerRun(100, func() { b.Publish("ch", frame) }); allocs != 0 {
				t.Fatalf("n=%d: publish into a wrapped ring allocates %v times", n, allocs)
			}
		}
	}
}

// A channel that saw one frame costs about that frame: the footprint of many
// barely-used rings must follow what they hold, not depth × channels.
func TestReplayFootprint(t *testing.T) {
	const channels = 8192
	names := make([]string, channels)
	for i := range names {
		names[i] = fmt.Sprintf("tile.%d", i)
	}
	frame := dataFrame("tile", string(make([]byte, 120)), 1) // ~160 B on the wire
	b := New(Options{ReplayDepth: 256})
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for _, ch := range names {
		b.Publish(ch, frame)
	}
	grown := int64(heap()) - int64(before)
	if st := b.Stats(); st.ReplayRings != channels || st.ReplayBytes != int64(channels*len(frame)) {
		t.Fatalf("%d rings holding %d bytes, want %d holding %d", st.ReplayRings, st.ReplayBytes, channels, channels*len(frame))
	}
	if limit := int64(8 << 20); grown > limit {
		t.Fatalf("one %d-byte frame on each of %d channels grew the heap by %d KiB, want under %d KiB",
			len(frame), channels, grown>>10, limit>>10)
	}
	runtime.KeepAlive(b)
}

// ReplayBytes follows the rings' contents: up with each retained frame, level
// once slots are overwritten by frames of the same size, down by a ring's
// whole holding when the bounding cache evicts it.
func TestReplayBytesGauge(t *testing.T) {
	b := New(Options{ReplayDepth: 2, ChannelCap: 1})
	frame := dataFrame("a", "m", 1)
	size := int64(len(frame))
	for i, want := range []int64{size, 2 * size, 2 * size} {
		b.Publish("a", frame)
		if got := b.Stats().ReplayBytes; got != want {
			t.Fatalf("after %d frames: ReplayBytes = %d, want %d", i+1, got, want)
		}
	}
	// Capacity 1: a ring on another channel in a's shard evicts a's.
	other := sameShardChannels("a", 1)[0]
	b.Publish(other, frame)
	if got := b.Stats().ReplayBytes; got != size {
		t.Fatalf("after a's ring was evicted: ReplayBytes = %d, want %d", got, size)
	}
}

// A retained frame costs about its own bytes: over a seeded Zipf(1.0) stream
// of ~175-byte frames on 8192 channels, the live heap the replay rings add
// stays within 1.15× the frame bytes they would hand out (ReplayBytes) —
// slot arrays, buffer rounding and ring bookkeeping included.
func TestReplayHeapPerFrame(t *testing.T) {
	const (
		channels = 8192
		draws    = 300_000
	)
	names := make([]string, channels)
	frames := make([][]byte, channels)
	for i := range frames {
		names[i] = fmt.Sprintf("z.%d", i)
		frames[i] = dataFrame(names[i], string(make([]byte, 135)), int64(i+1))
	}
	cdf := make([]float64, channels)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	rng := rand.New(rand.NewPCG(7, 11))
	seq := make([]int, draws)
	for i := range seq {
		seq[i] = sort.SearchFloat64s(cdf, rng.Float64()*sum)
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	scratch := make([]byte, 0, 256)
	// fill returns the live heap with the filled broker still held.
	fill := func(depth int) (live, replayBytes int64) {
		b := New(Options{ReplayDepth: depth})
		for _, k := range seq {
			scratch = append(scratch[:0], frames[k]...)
			b.Publish(names[k], scratch)
		}
		live = heap()
		replayBytes = b.Stats().ReplayBytes
		runtime.KeepAlive(b)
		return live, replayBytes
	}
	on, replayBytes := fill(256)
	off, _ := fill(0)
	runtime.KeepAlive(frames) // live through both measurements
	runtime.KeepAlive(names)
	runtime.KeepAlive(seq)
	if replayBytes == 0 {
		t.Fatal("no frame retained")
	}
	ratio := float64(on-off) / float64(replayBytes)
	t.Logf("replay heap %d KiB for %d KiB of frames: ×%.3f", (on-off)>>10, replayBytes>>10, ratio)
	if ratio > 1.15 {
		t.Fatalf("replay rings cost ×%.3f their frame bytes, want ≤ ×1.15", ratio)
	}
}

// A wrapped ring costs about its frame bytes whatever their size: eight
// channels cycled through 20 000 uniform frames at depth 256 (each ring laps
// about ten times) add a live heap within 1.10× ReplayBytes, for payloads
// from 64 B to 4 KiB. One buffer per body would pay a 24-byte slot and the
// body's size-class rounding — up to 19% at a power-of-two payload.
func TestReplayWrappedHeapPerFrame(t *testing.T) {
	const (
		channels = 8
		frames   = 20_000
	)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	names := make([]string, channels)
	for i := range names {
		names[i] = fmt.Sprintf("w.%d", i)
	}
	for _, size := range []int{64, 200, 4096} {
		wire := make([][]byte, channels)
		for i, ch := range names {
			wire[i] = dataFrame(ch, string(make([]byte, size)), 1)
		}
		scratch := make([]byte, 0, len(wire[0])+16)
		fill := func(depth int) (live, replayBytes int64) {
			b := New(Options{ReplayDepth: depth})
			for k := 0; k < frames; k++ {
				scratch = append(scratch[:0], wire[k%channels]...)
				b.Publish(names[k%channels], scratch)
			}
			live = heap()
			replayBytes = b.Stats().ReplayBytes
			runtime.KeepAlive(b)
			return live, replayBytes
		}
		on, replayBytes := fill(256)
		off, _ := fill(0)
		runtime.KeepAlive(wire)
		if want := int64(channels * 256 * len(wire[0])); replayBytes != want {
			t.Fatalf("%d B payloads: ReplayBytes = %d, want %d", size, replayBytes, want)
		}
		ratio := float64(on-off) / float64(replayBytes)
		t.Logf("%d B payloads: replay heap %d KiB for %d KiB of frames: ×%.3f", size, (on-off)>>10, replayBytes>>10, ratio)
		if ratio > 1.10 {
			t.Errorf("%d B payloads: wrapped rings cost ×%.3f their frame bytes, want ≤ ×1.10", size, ratio)
		}
	}
}

// A ring whose laid-out buffer would outgrow its offsets keeps one buffer
// per body: lowering the bound, a large frame sends a laid-out ring back to
// slots, and once that frame is overwritten the ring is laid out again —
// with every replay exact throughout.
func TestReplayRingDeclinesUnindexableLayout(t *testing.T) {
	defer func(was int64) { maxLaidOut = was }(maxLaidOut)
	maxLaidOut = 1 << 10
	const depth = 4
	b := New(Options{ReplayDepth: depth})
	var sent []string
	form := func() string {
		r := &b.peek("ch").ring
		switch {
		case r.buf != nil && r.slots == nil:
			return "laid out"
		case r.buf == nil && r.offs == nil && len(r.slots) == depth:
			return "slots"
		}
		return fmt.Sprintf("%d slots, %d-byte buffer, %d offsets", len(r.slots), len(r.buf), len(r.offs))
	}
	for k, step := range []struct {
		size int
		want string
	}{
		{10, ""}, {10, ""}, {10, ""}, {10, ""}, {10, "laid out"}, {10, "laid out"},
		{2000, "slots"}, {10, "slots"}, {10, "slots"}, {10, "slots"}, {10, "laid out"},
	} {
		payload := fmt.Sprintf("%d:%s", k, strings.Repeat("x", step.size))
		sent = append(sent, payload)
		b.Publish("ch", dataFrame("ch", payload, 1))
		if step.want != "" {
			if got := form(); got != step.want {
				t.Fatalf("frame %d (%d B): ring is %s, want %s", k+1, step.size, got, step.want)
			}
		}
		epoch, head, _ := b.ReplayHead("ch")
		frames, _, _ := b.collect("ch", message.Cursor{Seen: []message.EpochSeq{{Epoch: epoch}}})
		from := max(int(head), depth) - depth + 1
		if len(frames) != int(head)-from+1 {
			t.Fatalf("frame %d: replayed %d frames, want %d", k+1, len(frames), int(head)-from+1)
		}
		for i, f := range frames {
			env, err := message.Unmarshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if seq := from + i; env.ChannelSeq != uint64(seq) || string(env.Payload) != sent[seq-1] {
				t.Fatalf("frame %d: replay %d is seq %d %.8q, want seq %d %.8q", k+1, i, env.ChannelSeq, env.Payload, seq, sent[seq-1])
			}
		}
	}
}

// A body may fill a laid-out buffer exactly: it is written in place, not
// laid out again, and it reads back whole — as does the small body after it.
func TestReplayRingBodyFillsBuffer(t *testing.T) {
	b := New(Options{ReplayDepth: 1})
	b.Publish("ch", dataFrame("ch", "a", 1))
	b.Publish("ch", dataFrame("ch", "b", 1)) // wraps: laid out
	r := &b.peek("ch").ring
	buf := r.buf
	overhead := len(dataFrame("ch", "", 1)) - message.StrippedLen
	for _, payload := range []string{strings.Repeat("x", len(buf)-overhead), "c"} {
		b.Publish("ch", dataFrame("ch", payload, 1))
		if &r.buf[0] != &buf[0] {
			t.Fatalf("%d-byte payload: the ring was laid out again", len(payload))
		}
		epoch, head, _ := b.ReplayHead("ch")
		frames, _, _ := b.collect("ch", message.Cursor{Seen: []message.EpochSeq{{Epoch: epoch, Seq: head - 1}}})
		if len(frames) != 1 {
			t.Fatalf("%d-byte payload: replayed %d frames, want 1", len(payload), len(frames))
		}
		if env, err := message.Unmarshal(frames[0]); err != nil || string(env.Payload) != payload || env.ChannelSeq != head {
			t.Fatalf("%d-byte payload: replayed %v, err %v", len(payload), env, err)
		}
	}
}
