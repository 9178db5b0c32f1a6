package broker

import (
	"testing"
	"time"
)

// TestDirectAndPatternExactlyOneCopy is the regression test for the old
// parallel receivers/targets slices: a direct subscriber must get exactly
// one "message" copy, a pattern subscriber exactly one "pmessage" copy, and
// the two must stay correctly attributed (no drift between session and
// pattern).
func TestDirectAndPatternExactlyOneCopy(t *testing.T) {
	b := New(Options{})
	defer b.Close()

	direct := &patternSink{frames: make(chan [3]string, 8)}
	ds, err := b.Connect("direct", direct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Subscribe("news.sports"); err != nil {
		t.Fatal(err)
	}

	patterned := &patternSink{frames: make(chan [3]string, 8)}
	ps, err := b.Connect("patterned", patterned)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.PSubscribe("news.*"); err != nil {
		t.Fatal(err)
	}

	if got := b.Publish("news.sports", []byte("goal")); got != 2 {
		t.Fatalf("Publish receivers=%d, want 2", got)
	}

	recv := func(sink *patternSink) [3]string {
		select {
		case f := <-sink.frames:
			return f
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for delivery")
			return [3]string{}
		}
	}
	if f := recv(direct); f != [3]string{"", "news.sports", "goal"} {
		t.Fatalf("direct subscriber frame=%v", f)
	}
	if f := recv(patterned); f != [3]string{"news.*", "news.sports", "goal"} {
		t.Fatalf("pattern subscriber frame=%v", f)
	}
	// Exactly one copy each: no duplicates trailing behind.
	time.Sleep(30 * time.Millisecond)
	select {
	case f := <-direct.frames:
		t.Fatalf("direct subscriber got a second copy: %v", f)
	case f := <-patterned.frames:
		t.Fatalf("pattern subscriber got a second copy: %v", f)
	default:
	}
}

// TestPublishEarlyExitStillObserved: the no-subscriber fast path must not
// skip observer callbacks or the published counter — the LLA accounts for
// publications to idle channels too.
func TestPublishEarlyExitStillObserved(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	obs := &recordingObserver{}
	b.AddObserver(obs)
	if got := b.Publish("idle", []byte("xyz")); got != 0 {
		t.Fatalf("Publish=%d", got)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.pubs) != 1 || obs.pubs[0] != "idle/3/0" {
		t.Fatalf("observer pubs=%v, want [idle/3/0]", obs.pubs)
	}
	if st := b.Stats(); st.Published != 1 || st.Delivered != 0 {
		t.Fatalf("stats=%+v", st)
	}
}

// TestShardIndexStability pins the FNV-1a stripe function: same channel,
// same shard, and the index is always in range.
func TestShardIndexStability(t *testing.T) {
	seen := make(map[uint32]bool)
	for _, ch := range []string{"", "a", "tile-3-4", "news.sports", "ch-31"} {
		i := shardIndex(ch)
		if i >= numShards {
			t.Fatalf("shardIndex(%q)=%d out of range", ch, i)
		}
		if j := shardIndex(ch); j != i {
			t.Fatalf("shardIndex(%q) unstable: %d then %d", ch, i, j)
		}
		seen[i] = true
	}
	if len(seen) < 2 {
		t.Fatalf("suspiciously degenerate distribution: %v", seen)
	}
}
