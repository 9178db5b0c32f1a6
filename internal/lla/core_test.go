package lla

import (
	"fmt"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/message"
)

// The core's tests pass every time explicitly: no tickers, no sleeps.

func newCore(cfg Config) *Accumulator {
	cfg.Server = "pub1"
	cfg.ReportEvery = 3 * time.Second
	return NewAccumulator(cfg, epoch)
}

// TestBuildReportUsesElapsedTimeNotInterval is the regression test for the
// late-ticker measurement bug: a report built after 2× the configured
// interval must divide the byte count by the time that actually elapsed.
// Dividing by ReportEvery would double the measured Bps and make the
// balancer see phantom overload.
func TestBuildReportUsesElapsedTimeNotInterval(t *testing.T) {
	a := newCore(Config{})

	// 600 bytes × 10 receivers = 6000 bytes out in the window, which
	// closes late: 6 s elapse instead of the configured 3 s.
	a.OnPublish("game", 0, 600, 10)
	r := a.Report(epoch.Add(6 * time.Second))
	if want := 6000.0 / 6.0; r.MeasuredOutgoingBps != want {
		t.Fatalf("MeasuredOutgoingBps = %v, want %v (bytes/elapsed, not bytes/ReportEvery)",
			r.MeasuredOutgoingBps, want)
	}

	// The next window starts at this report: another 6000 bytes over the
	// nominal 3 s must yield the full rate, unaffected by the late first
	// report.
	a.OnPublish("game", 0, 600, 10)
	r = a.Report(epoch.Add(9 * time.Second))
	if want := 6000.0 / 3.0; r.MeasuredOutgoingBps != want {
		t.Fatalf("second window Bps = %v, want %v", r.MeasuredOutgoingBps, want)
	}
}

// TestBuildReportZeroElapsedFallsBack covers two reports at the same
// instant: the rate divides by the configured interval instead of zero.
func TestBuildReportZeroElapsedFallsBack(t *testing.T) {
	a := newCore(Config{})
	a.OnPublish("game", 0, 300, 1)
	if r := a.Report(epoch); r.MeasuredOutgoingBps != 300.0/3.0 {
		t.Fatalf("zero-elapsed Bps = %v, want %v (ReportEvery fallback)", r.MeasuredOutgoingBps, 300.0/3.0)
	}
}

// TestCoreSealThenReport: a report carries exactly the units sealed since
// the previous one, oldest first, and numbers itself in sequence; a unit
// sealed after a report waits for the next.
func TestCoreSealThenReport(t *testing.T) {
	a := newCore(Config{MaxOutgoingBps: 1000})
	a.OnPublish("c", 1, 10, 1)
	a.Seal()
	a.OnPublish("c", 1, 10, 1)
	a.Seal()
	r1 := a.Report(epoch.Add(3 * time.Second))
	if r1.Server != "pub1" || r1.Seq != 1 || r1.MaxOutgoingBps != 1000 {
		t.Fatalf("first report header %+v", r1)
	}
	if len(r1.Units) != 2 || r1.Units[0].Unit != 0 || r1.Units[1].Unit != 1 {
		t.Fatalf("first report units %+v, want units 0 and 1", r1.Units)
	}
	a.Seal()
	r2 := a.Report(epoch.Add(6 * time.Second))
	if r2.Seq != 2 || len(r2.Units) != 1 || r2.Units[0].Unit != 2 {
		t.Fatalf("second report seq %d units %+v, want seq 2 with unit 2", r2.Seq, r2.Units)
	}
	if r2.MeasuredOutgoingBps != 0 {
		t.Fatalf("idle window measured %v", r2.MeasuredOutgoingBps)
	}
	if got := a.ReportsBuilt(); got != 2 {
		t.Fatalf("ReportsBuilt = %d", got)
	}
}

// TestCoreOverflowCountsInMi: traffic on channels past the cap loses its
// channel identity but not its bytes; M_i counts it.
func TestCoreOverflowCountsInMi(t *testing.T) {
	a := newCore(Config{ChannelCap: AccumStripes})
	for i := 0; i < 1000; i++ {
		a.OnPublish(fmt.Sprintf("dev-%d", i), 0, 3, 1)
	}
	u := a.Seal()
	if u.Overflow == nil {
		t.Fatal("no overflow at 1000 channels over a cap of 32")
	}
	if r := a.Report(epoch.Add(3 * time.Second)); r.MeasuredOutgoingBps != 3000.0/3.0 {
		t.Fatalf("M_i = %v, want every channel's bytes (%v)", r.MeasuredOutgoingBps, 3000.0/3.0)
	}
}

// TestCoreCountsControlFrames: the LLA counts what the broker fans out,
// control frames included — a SWITCH shows in its channel's unit and in M_i.
func TestCoreCountsControlFrames(t *testing.T) {
	an := NewAnalyzer(Config{Server: "pub1", ReportEvery: 3 * time.Second, Clock: clock.NewManual(epoch)})
	defer an.Stop()
	sw := &message.Envelope{Type: message.TypeSwitch, ID: message.ID{Node: 7, Seq: 1}, Channel: "room", Servers: []string{"pub2"}, PlanVersion: 2}
	frame := sw.Marshal()
	an.OnPublish("room", frame, 4)

	core := an.Accumulator()
	u := core.Seal()
	if len(u.Channels) != 1 || u.Channels[0].Publications != 1 || u.Channels[0].BytesOut != int64(4*len(frame)) {
		t.Fatalf("unit %+v, want the SWITCH on room fanned out to 4", u.Channels)
	}
	if r := core.Report(epoch.Add(3 * time.Second)); r.MeasuredOutgoingBps != float64(4*len(frame))/3 {
		t.Fatalf("M_i = %v, want the SWITCH's %d bytes over 3 s", r.MeasuredOutgoingBps, 4*len(frame))
	}
}
