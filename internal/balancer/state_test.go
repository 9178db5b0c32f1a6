package balancer

import (
	"bytes"
	"testing"

	"github.com/dynamoth/dynamoth/internal/lla"
)

func report(server string, seq uint64, maxBps, measured float64, units ...lla.UnitStats) *lla.Report {
	return &lla.Report{
		Server:              server,
		Seq:                 seq,
		Units:               units,
		MaxOutgoingBps:      maxBps,
		MeasuredOutgoingBps: measured,
	}
}

func unit(idx int64, chans ...lla.ChannelStats) lla.UnitStats {
	return lla.UnitStats{Unit: idx, Channels: chans}
}

func chanStats(ch string, pubs, publications, subs, sent int, in, out int64) lla.ChannelStats {
	return lla.ChannelStats{
		Channel: ch, Publishers: pubs, Publications: publications,
		Subscribers: subs, MessagesSent: sent, BytesIn: in, BytesOut: out,
	}
}

func TestStateSnapshotAveraging(t *testing.T) {
	st := NewState(5)
	// The report arrives as a node older than the removal of region
	// attribution sends it, "regions" key and all: its units fold the same.
	wire, err := report("s1", 1, 1000, 500,
		unit(0, chanStats("a", 1, 10, 2, 20, 100, 200)),
		unit(1, chanStats("a", 1, 30, 4, 120, 300, 1200)),
	).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wire = append(bytes.TrimSuffix(wire, []byte("}")), `,"regions":[{"region":"eu-west","count":3,"p99Ms":12.5}]}`...)
	r, err := lla.UnmarshalReport(wire)
	if err != nil {
		t.Fatal(err)
	}
	st.AddReport(r)
	snap := st.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot=%d servers", len(snap))
	}
	s := snap[0]
	if s.Server != "s1" || s.MaxBps != 1000 || s.MeasuredBps != 500 {
		t.Fatalf("server fields %+v", s)
	}
	if got := s.Ratio(); got != 0.5 {
		t.Fatalf("Ratio=%f", got)
	}
	a := s.Channels["a"]
	if a.Publications != 20 { // (10+30)/2
		t.Fatalf("Publications=%f", a.Publications)
	}
	if a.Subscribers != 4 { // latest, not averaged
		t.Fatalf("Subscribers=%f", a.Subscribers)
	}
	if a.BytesOut != 700 { // (200+1200)/2
		t.Fatalf("BytesOut=%f", a.BytesOut)
	}
}

func TestStateWindowTrimming(t *testing.T) {
	st := NewState(2)
	st.AddReport(report("s1", 1, 1000, 100,
		unit(0, chanStats("a", 1, 100, 1, 100, 0, 1000)),
		unit(1, chanStats("a", 1, 100, 1, 100, 0, 1000)),
		unit(2, chanStats("a", 1, 10, 1, 10, 0, 10)),
		unit(3, chanStats("a", 1, 10, 1, 10, 0, 10)),
	))
	snap := st.Snapshot()
	if got := snap[0].Channels["a"].Publications; got != 10 {
		t.Fatalf("window not trimmed: publications=%f", got)
	}
}

func TestStateStaleReportIgnored(t *testing.T) {
	st := NewState(5)
	st.AddReport(report("s1", 2, 1000, 800))
	st.AddReport(report("s1", 1, 1000, 100)) // stale
	if got := st.Snapshot()[0].MeasuredBps; got != 800 {
		t.Fatalf("stale report applied: measured=%f", got)
	}
}

func TestStateForgetAndServers(t *testing.T) {
	st := NewState(5)
	st.AddReport(report("b", 1, 1, 0))
	st.AddReport(report("a", 1, 1, 0))
	if got := st.Servers(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Servers=%v", got)
	}
	st.Forget("a")
	if got := st.Servers(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("after Forget: %v", got)
	}
}

func TestTotalChannelLoad(t *testing.T) {
	loads := []ServerLoad{
		{Server: "s1", Channels: map[string]ChannelLoad{"c": {Publications: 10, Subscribers: 5, BytesOut: 100}}},
		{Server: "s2", Channels: map[string]ChannelLoad{"c": {Publications: 20, Subscribers: 5, BytesOut: 300}}},
		{Server: "s3", Channels: map[string]ChannelLoad{"other": {Publications: 99}}},
	}
	total := TotalChannelLoad(loads, "c")
	if total.Publications != 30 || total.Subscribers != 10 || total.BytesOut != 400 {
		t.Fatalf("total=%+v", total)
	}
}

func TestRatioZeroCapacity(t *testing.T) {
	s := ServerLoad{MeasuredBps: 100}
	if s.Ratio() != 0 {
		t.Fatal("zero-capacity ratio not 0")
	}
}
