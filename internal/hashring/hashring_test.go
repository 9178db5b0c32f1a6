package hashring

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("channel-%d", i)
	}
	return out
}

func TestLookupEmptyRing(t *testing.T) {
	r := New(8)
	if got := r.Lookup("anything"); got != "" {
		t.Fatalf("empty ring Lookup=%q, want empty", got)
	}
	if got := r.LookupN("anything", 3); got != nil {
		t.Fatalf("empty ring LookupN=%v, want nil", got)
	}
}

func TestLookupDeterministic(t *testing.T) {
	a := New(64, "s1", "s2", "s3")
	b := New(64, "s3", "s1", "s2") // different insertion order
	for _, k := range keys(200) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("ring mapping depends on insertion order for %q", k)
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Ring
	r.Add("only")
	if got := r.Lookup("x"); got != "only" {
		t.Fatalf("zero-value ring Lookup=%q", got)
	}
}

func TestSingleServerGetsEverything(t *testing.T) {
	r := New(16, "solo")
	for _, k := range keys(50) {
		if got := r.Lookup(k); got != "solo" {
			t.Fatalf("Lookup(%q)=%q, want solo", k, got)
		}
	}
}

func TestAddOnlyStealsForNewServer(t *testing.T) {
	r := New(128, "s1", "s2", "s3")
	before := make(map[string]string)
	for _, k := range keys(1000) {
		before[k] = r.Lookup(k)
	}
	r.Add("s4")
	moved := 0
	for k, old := range before {
		now := r.Lookup(k)
		if now != old {
			moved++
			if now != "s4" {
				t.Fatalf("key %q moved from %q to %q, not to the new server", k, old, now)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new server")
	}
	// Expect roughly 1/4 of the keys to move.
	if moved > 500 {
		t.Fatalf("too many keys moved: %d of 1000", moved)
	}
}

func TestAddExistingNoop(t *testing.T) {
	r := New(32, "s1", "s2")
	before := make(map[string]string)
	for _, k := range keys(100) {
		before[k] = r.Lookup(k)
	}
	r.Add("s1")
	for k, old := range before {
		if got := r.Lookup(k); got != old {
			t.Fatalf("no-op mutation changed mapping of %q", k)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("Len=%d, want 2", r.Len())
	}
}

func TestBalance(t *testing.T) {
	servers := []string{"s1", "s2", "s3", "s4", "s5"}
	r := New(256, servers...)
	counts := make(map[string]int)
	const n = 20000
	for _, k := range keys(n) {
		counts[r.Lookup(k)]++
	}
	mean := float64(n) / float64(len(servers))
	for s, c := range counts {
		dev := math.Abs(float64(c)-mean) / mean
		if dev > 0.35 {
			t.Fatalf("server %s holds %d keys, %.0f%% off the mean %f", s, c, dev*100, mean)
		}
	}
}

func TestLookupNDistinctAndStable(t *testing.T) {
	r := New(64, "s1", "s2", "s3", "s4")
	got := r.LookupN("key", 3)
	if len(got) != 3 {
		t.Fatalf("LookupN returned %d servers, want 3", len(got))
	}
	seen := map[string]struct{}{}
	for _, s := range got {
		if _, dup := seen[s]; dup {
			t.Fatalf("LookupN returned duplicate %q in %v", s, got)
		}
		seen[s] = struct{}{}
	}
	if got[0] != r.Lookup("key") {
		t.Fatalf("LookupN first element %q != Lookup %q", got[0], r.Lookup("key"))
	}
	// Asking for more servers than exist returns all of them.
	if all := r.LookupN("key", 10); len(all) != 4 {
		t.Fatalf("LookupN(10) returned %d servers, want 4", len(all))
	}
}

func TestCloneIndependent(t *testing.T) {
	r := New(32, "s1", "s2")
	c := r.Clone()
	r.Add("s3")
	if c.Contains("s3") {
		t.Fatal("clone mutated by change to original")
	}
	if c.Lookup("k") == "" {
		t.Fatal("clone lookup failed")
	}
}

func TestLookupQuickAlwaysMember(t *testing.T) {
	r := New(32, "s1", "s2", "s3")
	f := func(key string) bool { return r.Contains(r.Lookup(key)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New(32, "s1", "s2")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Add(fmt.Sprintf("x%d", i))
		}
	}()
	for i := 0; i < 5000; i++ {
		if got := r.Lookup("steady-key"); got == "" {
			t.Fatal("lookup returned empty on non-empty ring")
		}
	}
	<-done
}

func TestString(t *testing.T) {
	r := New(4, "a")
	if got, want := r.String(), "hashring{servers=1 vnodes=4}"; got != want {
		t.Fatalf("String=%q, want %q", got, want)
	}
}
