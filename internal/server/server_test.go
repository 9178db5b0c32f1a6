package server

import (
	"net"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/dispatcher"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/resp"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newNode(t *testing.T, clk clock.Clock) *Node {
	t.Helper()
	initial := plan.New("pub1")
	initial.Version = 1
	n, err := New(Options{
		ID:             "pub1",
		NodeNum:        0xD001,
		Initial:        initial,
		Forwarder:      dispatcher.ForwarderFunc(func(plan.ServerID, string, []byte) error { return nil }),
		Clock:          clk,
		MaxOutgoingBps: 1000,
		Unit:           time.Second,
		ReportEvery:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

type captureSink struct{ reports chan *lla.Report }

func (s captureSink) Deliver(_ string, payload []byte) {
	env, err := message.Unmarshal(payload)
	if err != nil || env.Type != message.TypeLoadReport {
		return
	}
	if r, err := lla.UnmarshalReport(env.Payload); err == nil {
		select {
		case s.reports <- r:
		default:
		}
	}
}
func (captureSink) Closed(error) {}

// TestNodeAssemblyAndReportPump: a node publishes its LLA reports on the
// control plane without being asked; no option turns that on.
func TestNodeAssemblyAndReportPump(t *testing.T) {
	clk := clock.NewManual(epoch)
	n := newNode(t, clk)

	// Subscribe to the node's report channel like the load balancer does.
	sink := captureSink{reports: make(chan *lla.Report, 8)}
	sess, err := n.Broker.Connect("lb", sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Subscribe(plan.ReportChannel); err != nil {
		t.Fatal(err)
	}

	// Generate some traffic so the report has content.
	n.Broker.Publish("game", []byte("x"))

	clk.Advance(2 * time.Second) // one report interval
	select {
	case r := <-sink.reports:
		if r.Server != "pub1" || r.MaxOutgoingBps != 1000 {
			t.Fatalf("report %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no report published on the control channel")
	}
}

func TestNodeServeTCP(t *testing.T) {
	n := newNode(t, clock.NewReal())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.ServeTCP(ln) //nolint:errcheck // ends on close
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := resp.NewWriter(conn)
	if err := w.WriteCommand([]byte("PING")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	v, err := resp.NewReader(conn).ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Str) != "PONG" {
		t.Fatalf("PING => %+v", v)
	}
}

func TestNodeValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("node without ID created")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	n := newNode(t, clock.NewReal())
	n.Close()
	n.Close()
}
