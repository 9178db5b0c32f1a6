package lla

import (
	"testing"
	"time"
)

func TestDetectorProbeMisses(t *testing.T) {
	d := NewDetector(DetectorConfig{StaleAfter: time.Hour, ProbeMisses: 3})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	d.Track("s1", t0)
	d.Track("s2", t0)

	d.ObserveProbe("s1", false)
	d.ObserveProbe("s1", false)
	if dead := d.Dead(t0); len(dead) != 0 {
		t.Fatalf("dead after 2 misses: %v", dead)
	}
	// A success resets the consecutive counter.
	d.ObserveProbe("s1", true)
	if got := d.Misses("s1"); got != 0 {
		t.Fatalf("misses after success=%d", got)
	}
	d.ObserveProbe("s1", false)
	d.ObserveProbe("s1", false)
	d.ObserveProbe("s1", false)
	dead := d.Dead(t0)
	if len(dead) != 1 || dead[0].Server != "s1" {
		t.Fatalf("dead=%v, want [s1]", dead)
	}
}

func TestDetectorReportStaleness(t *testing.T) {
	d := NewDetector(DetectorConfig{StaleAfter: 10 * time.Second, ProbeMisses: 3})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	d.Track("s1", t0)
	d.ObserveReport("s1", t0.Add(5*time.Second))
	if dead := d.Dead(t0.Add(14 * time.Second)); len(dead) != 0 {
		t.Fatalf("dead with fresh report: %v", dead)
	}
	dead := d.Dead(t0.Add(16 * time.Second))
	if len(dead) != 1 || dead[0].Server != "s1" {
		t.Fatalf("dead=%v, want [s1]", dead)
	}
}

func TestDetectorProbeSuccessDoesNotRefreshReports(t *testing.T) {
	// A reachable node whose reporting stack died is still faulty: PONGs
	// must not mask report silence.
	d := NewDetector(DetectorConfig{StaleAfter: 10 * time.Second, ProbeMisses: 3})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	d.Track("s1", t0)
	for i := 0; i < 20; i++ {
		d.ObserveProbe("s1", true)
	}
	if dead := d.Dead(t0.Add(11 * time.Second)); len(dead) != 1 {
		t.Fatalf("dead=%v, want [s1] despite healthy probes", dead)
	}
}

func TestDetectorStickyUntilForget(t *testing.T) {
	d := NewDetector(DetectorConfig{StaleAfter: 10 * time.Second, ProbeMisses: 1})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	d.Track("s1", t0)
	d.ObserveProbe("s1", false)
	if dead := d.Dead(t0); len(dead) != 1 {
		t.Fatalf("dead=%v", dead)
	}
	// Later evidence does not resurrect a declared server.
	d.ObserveProbe("s1", true)
	d.ObserveReport("s1", t0.Add(time.Second))
	if dead := d.Dead(t0.Add(time.Second)); len(dead) != 1 {
		t.Fatalf("declaration not sticky: %v", dead)
	}
	d.Forget("s1")
	if dead := d.Dead(t0.Add(time.Second)); len(dead) != 0 {
		t.Fatalf("dead after forget: %v", dead)
	}
	// Re-tracking starts a fresh grace window.
	d.Track("s1", t0.Add(time.Minute))
	if dead := d.Dead(t0.Add(time.Minute)); len(dead) != 0 {
		t.Fatalf("fresh track instantly dead: %v", dead)
	}
}

func TestDetectorDeadIsSorted(t *testing.T) {
	d := NewDetector(DetectorConfig{StaleAfter: time.Hour, ProbeMisses: 1})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, s := range []string{"s9", "s3", "s1", "s7", "s5"} {
		d.Track(s, t0)
	}
	d.ObserveProbe("s7", false)
	d.ObserveProbe("s3", false)
	for i := 0; i < 50; i++ {
		if dead := d.Dead(t0); len(dead) != 2 || dead[0].Server != "s3" || dead[1].Server != "s7" {
			t.Fatalf("call %d: dead=%v, want [s3 s7]", i, dead)
		}
	}
}

func TestDetectorUntrackedProbesIgnored(t *testing.T) {
	d := NewDetector(DetectorConfig{ProbeMisses: 1})
	d.ObserveProbe("ghost", false)
	if dead := d.Dead(time.Now()); len(dead) != 0 {
		t.Fatalf("untracked server declared dead: %v", dead)
	}
}
