package main

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/trace"
)

// serveAdmin answers routes on a free loopback port, as a daemon's admin
// plane does, until the test ends or it closes the returned listener.
func serveAdmin(t *testing.T, routes ...obs.Route) net.Listener {
	t.Helper()
	ln, err := obs.Serve("127.0.0.1:0", obs.NewMux(routes...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// syncBuffer is an io.Writer safe to read while the tail goroutine writes.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTailEventsCursor runs the events subcommand's tail loop against a real
// recorder-backed HTTP handler: a snapshot poll must print every retained
// event as schema-valid JSONL, and a follow poll resuming from the returned
// cursor must print only what arrived in between — never a duplicate.
func TestTailEventsCursor(t *testing.T) {
	rec := trace.NewRecorder(64)
	rec.Record(trace.KindTrigger, 2, "", "overload", 1_800_000, 0)
	rec.Record(trace.KindPlanPush, 2, "pub1", "", 1000, 0)

	ln := serveAdmin(t, obs.Route{Path: "/debug/events", Handler: rec.EventsHandler()})
	url := "http://" + ln.Addr().String()

	var first strings.Builder
	if err := tailEvents(url, time.Millisecond, false, &first); err != nil {
		t.Fatal(err)
	}
	if n, err := trace.ValidateJSONL(strings.NewReader(first.String())); err != nil || n != 2 {
		t.Fatalf("snapshot printed %d valid events (err=%v):\n%s", n, err, first.String())
	}

	// Tail again in follow mode with one more event landing mid-stream; the
	// loop is cut after the second poll by closing the admin listener.
	rec.Record(trace.KindPlanApply, 2, "pub1", "", 0, 1)
	var second syncBuffer
	done := make(chan error, 1)
	go func() { done <- tailEvents(url, 5*time.Millisecond, true, &second) }()
	deadline := time.After(5 * time.Second)
	for !strings.Contains(second.String(), `"plan_apply"`) {
		select {
		case err := <-done:
			t.Fatalf("tail exited early: %v\n%s", err, second.String())
		case <-deadline:
			t.Fatalf("tail never printed the new event:\n%s", second.String())
		case <-time.After(time.Millisecond):
		}
	}
	ln.Close()
	<-done

	if n, err := trace.ValidateJSONL(strings.NewReader(second.String())); err != nil || n != 3 {
		t.Fatalf("follow printed %d valid events (err=%v):\n%s", n, err, second.String())
	}
	if strings.Count(second.String(), `"trigger"`) != 1 {
		t.Fatalf("cursor failed to deduplicate polls:\n%s", second.String())
	}
}

// TestTailEventsURLNormalization accepts a bare host:port and an explicit
// /debug/events URL alike.
func TestTailEventsURLNormalization(t *testing.T) {
	rec := trace.NewRecorder(8)
	rec.Record(trace.KindRelease, 3, "pub2", "graceful", 0, 0)
	addr := serveAdmin(t, obs.Route{Path: "/debug/events", Handler: rec.EventsHandler()}).Addr().String()

	for _, target := range []string{
		addr,
		"http://" + addr + "/debug/events",
	} {
		var out strings.Builder
		if err := tailEvents(target, time.Millisecond, false, &out); err != nil {
			t.Fatalf("tail %q: %v", target, err)
		}
		if !strings.Contains(out.String(), `"release"`) {
			t.Fatalf("tail %q printed nothing useful: %q", target, out.String())
		}
	}
}
