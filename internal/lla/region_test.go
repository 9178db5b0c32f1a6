package lla

import (
	"fmt"
	"testing"
	"time"
)

func TestRegionTrackerDrainWindows(t *testing.T) {
	rt := newRegionTracker(0, nil)
	for i := 0; i < 100; i++ {
		rt.Observe("eu", 30*time.Millisecond)
	}
	rt.Observe("us", 5*time.Millisecond)

	stats := rt.Drain()
	if len(stats) != 2 {
		t.Fatalf("Drain returned %d regions, want 2: %+v", len(stats), stats)
	}
	if stats[0].Region != "eu" || stats[1].Region != "us" {
		t.Fatalf("regions not sorted: %+v", stats)
	}
	eu := stats[0]
	if eu.Count != 100 {
		t.Fatalf("eu count = %d, want 100", eu.Count)
	}
	// 30ms lands in the (16.4ms, 32.8ms] bucket.
	if eu.P99Ms < 30 || eu.P99Ms > 66 {
		t.Fatalf("eu p99 = %vms, want ~32.8ms bucket bound", eu.P99Ms)
	}
	if eu.MaxMs < 29 || eu.MaxMs > 31 {
		t.Fatalf("eu max = %vms, want ~30ms", eu.MaxMs)
	}
	if eu.SumMs < 2990 || eu.SumMs > 3010 {
		t.Fatalf("eu sum = %vms, want ~3000ms", eu.SumMs)
	}

	// The next window only contains what happened since the last drain.
	rt.Observe("eu", time.Millisecond)
	stats = rt.Drain()
	if len(stats) != 1 || stats[0].Region != "eu" || stats[0].Count != 1 {
		t.Fatalf("second window = %+v, want [eu count=1]", stats)
	}

	// Snapshot stays cumulative and non-destructive.
	snap := rt.Snapshot()
	if len(snap) != 2 || snap[0].Count != 101 {
		t.Fatalf("snapshot = %+v, want cumulative eu count 101", snap)
	}
}

func TestRegionTrackerWANDelayModel(t *testing.T) {
	rt := newRegionTracker(0, func(region string) time.Duration {
		if region == "ap" {
			return 120 * time.Millisecond
		}
		return 0
	})
	rt.Observe("ap", time.Millisecond)
	stats := rt.Drain()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].MaxMs < 120 {
		t.Fatalf("ap max = %vms, want >= 120ms (WAN model applied)", stats[0].MaxMs)
	}
}

func TestRegionTrackerCapOverflow(t *testing.T) {
	rt := newRegionTracker(2, nil)
	rt.Observe("r0", time.Millisecond)
	rt.Observe("r1", time.Millisecond)
	rt.Observe("r2", time.Millisecond) // beyond cap: folds into overflow
	rt.Observe("r3", time.Millisecond)
	stats := rt.Drain()
	var overflow *RegionStats
	for i := range stats {
		if stats[i].Region == RegionOverflow {
			overflow = &stats[i]
		}
	}
	if overflow == nil || overflow.Count != 2 {
		t.Fatalf("overflow = %+v, want count 2 (stats %+v)", overflow, stats)
	}
}

func TestReportRegionsRoundTrip(t *testing.T) {
	rt := newRegionTracker(0, nil)
	for i := 0; i < 10; i++ {
		rt.Observe("eu", 20*time.Millisecond)
	}
	r := &Report{Server: "pub1", Seq: 1, Regions: rt.Drain()}
	data, err := r.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalReport(data)
	if err != nil {
		t.Fatalf("UnmarshalReport: %v", err)
	}
	if len(got.Regions) != 1 || got.Regions[0].Region != "eu" || got.Regions[0].Count != 10 {
		t.Fatalf("regions did not survive the report path: %+v", got.Regions)
	}
	if len(got.Regions[0].Buckets) != RegionBuckets {
		t.Fatalf("buckets did not survive: %d", len(got.Regions[0].Buckets))
	}

	// The report is a wire format: one marshalled before the region tracker
	// moved onto metrics.Histogram (ten 20 ms deliveries and one of 300 ms)
	// must still unmarshal, and merge bucket for bucket with the same
	// deliveries observed now.
	const golden = `{"server":"pub1","seq":1,"units":null,"maxOutgoingBps":0,"measuredOutgoingBps":0,"regions":[{"region":"eu","count":11,"sumMs":500,"maxMs":300,"p99Ms":524.288,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,10,0,0,0,1,0,0,0,0,0,0,0,0,0]}]}`
	old, err := UnmarshalReport([]byte(golden))
	if err != nil {
		t.Fatalf("UnmarshalReport(golden): %v", err)
	}
	for i := 0; i < 10; i++ {
		rt.Observe("eu", 20*time.Millisecond)
	}
	rt.Observe("eu", 300*time.Millisecond)
	m := MergeRegionStats(old.Regions[0], rt.Drain()[0])
	if m.Count != 22 || m.Buckets[14] != 20 || m.Buckets[18] != 2 {
		t.Fatalf("golden report merged into other buckets: %+v", m)
	}
	if m.SumMs != 1000 || m.MaxMs != 300 || m.P99Ms != 300 {
		t.Fatalf("merged sum/max/p99 = %v/%v/%v ms, want 1000/300/300", m.SumMs, m.MaxMs, m.P99Ms)
	}
}

func TestMergeRegionStats(t *testing.T) {
	rt := newRegionTracker(0, nil)
	for i := 0; i < 99; i++ {
		rt.Observe("eu", time.Millisecond)
	}
	a := rt.Drain()[0]
	rt2 := newRegionTracker(0, nil)
	for i := 0; i < 99; i++ {
		rt2.Observe("eu", 500*time.Millisecond)
	}
	b := rt2.Drain()[0]

	m := MergeRegionStats(a, b)
	if m.Count != 198 {
		t.Fatalf("merged count = %d, want 198", m.Count)
	}
	// Half the merged observations are ~500ms, so the merged p99 must come
	// from the slow side's bucket.
	if m.P99Ms < 500 {
		t.Fatalf("merged p99 = %vms, want >= 500ms", m.P99Ms)
	}
	if m.MaxMs < b.MaxMs {
		t.Fatalf("merged max = %v, want >= %v", m.MaxMs, b.MaxMs)
	}
}

func TestRegionObserveParallel(t *testing.T) {
	rt := newRegionTracker(0, nil)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			region := fmt.Sprintf("r%d", g%4)
			for i := 0; i < 1000; i++ {
				rt.Observe(region, time.Millisecond)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	var total uint64
	for _, s := range rt.Drain() {
		total += s.Count
	}
	if total != 8000 {
		t.Fatalf("total observations = %d, want 8000", total)
	}
}
