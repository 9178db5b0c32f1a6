package obs

import (
	"strings"
	"testing"
	"time"
)

func TestLatencyTopKRanksByContribution(t *testing.T) {
	lt := NewLatencyTopKWithCap(0, 0, nil) // unsampled: every observation counts

	// "hot" is moderately slow but very busy; "glacial" is very slow but
	// near-idle; "fast" is busy but quick. Contribution (p99 × count) must
	// rank hot first.
	for i := 0; i < 1000; i++ {
		lt.Observe("hot", 20*time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		lt.Observe("glacial", 2*time.Second)
	}
	for i := 0; i < 1000; i++ {
		lt.Observe("fast", 200*time.Microsecond)
	}

	top := lt.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d channels", len(top))
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
	lt := NewLatencyTopKWithCap(0, 0, nil)
	lt.Observe("a", time.Millisecond)
	if top := lt.Top(10); len(top) != 1 || top[0].Channel != "a" {
		t.Fatalf("first window = %+v, want [a]", top)
	}
	// Nothing new: the second window is empty and the idle channel is
	// forgotten.
	if top := lt.Top(10); len(top) != 0 {
		t.Fatalf("idle window = %+v, want empty", top)
	}
	// Re-observation after idle-drop starts a fresh entry.
	lt.Observe("a", time.Millisecond)
	if top := lt.Top(10); len(top) != 1 || top[0].Count != 1 {
		t.Fatalf("post-idle window = %+v, want [a count=1]", top)
	}
}

func TestLatencyTopKSampling(t *testing.T) {
	lt := NewLatencyTopKWithCap(2, 0, nil) // every 4th observation
	for i := 0; i < 400; i++ {
		lt.Observe("ch", time.Millisecond)
	}
	top := lt.Top(1)
	if len(top) != 1 {
		t.Fatalf("Top = %+v", top)
	}
	// 100 sampled observations scaled back by 4.
	if top[0].Count != 400 {
		t.Fatalf("sample-scaled count = %d, want 400", top[0].Count)
	}
}

func TestLatencyTopKZeroAllocObserve(t *testing.T) {
	lt := NewLatencyTopKWithCap(0, 0, nil)
	lt.Observe("warm", time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		lt.Observe("warm", 2*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v allocs/op on a warm channel, want 0", allocs)
	}
}

func TestRegistryInfo(t *testing.T) {
	r := NewRegistry()
	r.Info("dynamoth_build_info",
		"Build identity; value is always 1.",
		[2]string{"version", "v1.2.3-test"},
		[2]string{"go_version", "go1.22"},
	)
	out := r.String()
	want := `dynamoth_build_info{version="v1.2.3-test",go_version="go1.22"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("rendered exposition missing %q:\n%s", want, out)
	}
	if _, err := ValidateExposition(out); err != nil {
		t.Fatalf("info family fails exposition validation: %v", err)
	}
}

func TestRegistryInfoBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Info accepted an invalid label name")
		}
	}()
	NewRegistry().Info("x_info", "h", [2]string{"bad-label", "v"})
}
