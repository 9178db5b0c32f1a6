package dynamoth

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/trace"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// flakyDialer wraps a transport dialer, failing dials to servers marked
// dead and recording the (virtual) time of every dial attempt per server.
type flakyDialer struct {
	inner transport.Dialer
	clk   clock.Clock

	mu       sync.Mutex
	dead     map[plan.ServerID]bool
	attempts map[plan.ServerID][]time.Time
	handlers map[plan.ServerID][]transport.Handler
}

func newFlakyDialer(inner transport.Dialer, clk clock.Clock) *flakyDialer {
	return &flakyDialer{
		inner:    inner,
		clk:      clk,
		dead:     make(map[plan.ServerID]bool),
		attempts: make(map[plan.ServerID][]time.Time),
		handlers: make(map[plan.ServerID][]transport.Handler),
	}
}

// cut reports every connection dialed to server as dropped, the way a reset
// link surfaces: the client closes the connection and must redial.
func (f *flakyDialer) cut(server plan.ServerID) {
	f.mu.Lock()
	hs := f.handlers[server]
	f.handlers[server] = nil
	f.mu.Unlock()
	for _, h := range hs {
		h.OnDisconnect(errors.New("link reset"))
	}
}

func (f *flakyDialer) setDead(server plan.ServerID, dead bool) {
	f.mu.Lock()
	f.dead[server] = dead
	f.mu.Unlock()
}

func (f *flakyDialer) attemptsTo(server plan.ServerID) []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.attempts[server]...)
}

func (f *flakyDialer) Dial(server plan.ServerID, h transport.Handler) (transport.Conn, error) {
	f.mu.Lock()
	f.attempts[server] = append(f.attempts[server], f.clk.Now())
	dead := f.dead[server]
	f.mu.Unlock()
	if dead {
		return nil, errors.New("dial refused: server down")
	}
	f.mu.Lock()
	f.handlers[server] = append(f.handlers[server], h)
	f.mu.Unlock()
	return f.inner.Dial(server, h)
}

// fallbackChannel returns a channel name whose consistent-hash home in the
// given plan is server.
func fallbackChannel(t *testing.T, p *plan.Plan, server plan.ServerID) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		ch := fmt.Sprintf("room-%d", i)
		if p.Home(ch) == server {
			return ch
		}
	}
	t.Fatalf("no channel hashes to %s", server)
	return ""
}

// TestFailoverPublishBackoffSpacing crashes a broker and asserts the
// publisher (a) keeps publishing by substituting the ring successor, (b)
// redials the dead server with exponential, capped spacing, and (c) never
// hot-spins: publishes between backoff expiries trigger no dials.
func TestFailoverPublishBackoffSpacing(t *testing.T) {
	manual := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	d := newTestDeployment(t, "s1", "s2")
	flaky := newFlakyDialer(d.dialer, manual)

	const redialMin = 100 * time.Millisecond
	const redialMax = 800 * time.Millisecond
	pub, err := ConnectWithDialer(flaky, d.servers, Config{
		NodeID:    500,
		Clock:     manual,
		RedialMin: redialMin,
		RedialMax: redialMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	p := plan.New(d.servers...)
	ch := fallbackChannel(t, p, "s1")
	if err := pub.Publish(ch, []byte("pre-crash")); err != nil {
		t.Fatal(err)
	}
	baseline := len(flaky.attemptsTo("s1"))

	// Crash s1: refuse future dials and kill existing connections.
	flaky.setDead("s1", true)
	d.brokers["s1"].Close()
	// Wait for the disconnect callback to arm the redial backoff.
	deadline := time.Now().Add(2 * time.Second)
	for pub.Stats().Redials == 0 && pub.Stats().DialFailures == 0 {
		if time.Now().After(deadline) {
			break // backoff armed by the disconnect itself; proceed
		}
		time.Sleep(5 * time.Millisecond)
		if err := pub.Publish(ch, []byte("probe")); err == nil &&
			len(flaky.attemptsTo("s2")) > 0 {
			break // already failed over
		}
	}

	// Publishes must fail over to s2 without redialing s1 (backoff window).
	if err := pub.Publish(ch, []byte("failover")); err != nil {
		t.Fatalf("publish after crash did not fail over: %v", err)
	}

	// Drive virtual time in small steps, publishing every step. Dial
	// attempts to s1 may only happen when a backoff window expires.
	var stormErr error
	for i := 0; i < 100; i++ {
		manual.Advance(50 * time.Millisecond)
		for j := 0; j < 5; j++ { // hot-loop publishes within one instant
			if err := pub.Publish(ch, []byte("x")); err != nil && stormErr == nil {
				stormErr = err
			}
		}
	}
	if stormErr != nil {
		t.Fatalf("publish during backoff failed: %v", stormErr)
	}

	atts := flaky.attemptsTo("s1")[baseline:]
	// 5 s of virtual time with delays in [min/2, max]: attempts bounded by
	// 5s/(min/2)=100 in theory, but exponential growth caps them hard.
	if len(atts) < 3 {
		t.Fatalf("only %d redial attempts in 5s virtual", len(atts))
	}
	if len(atts) > 20 {
		t.Fatalf("%d redial attempts in 5s virtual: hot-spin", len(atts))
	}
	for i := 1; i < len(atts); i++ {
		gap := atts[i].Sub(atts[i-1])
		if gap < redialMin/2 {
			t.Fatalf("attempts %d→%d spaced %v, want ≥ %v", i-1, i, gap, redialMin/2)
		}
		if gap > redialMax+100*time.Millisecond {
			t.Fatalf("attempts %d→%d spaced %v, want ≤ cap %v (+step)", i-1, i, gap, redialMax)
		}
	}
	// Spacing grows until the cap: the last gap must be well above the first.
	first := atts[1].Sub(atts[0])
	last := atts[len(atts)-1].Sub(atts[len(atts)-2])
	if last < first {
		t.Fatalf("backoff not growing: first gap %v, last gap %v", first, last)
	}
	if s := pub.Stats(); s.DialFailures == 0 {
		t.Fatalf("stats did not count dial failures: %+v", s)
	}
}

// TestFailoverSubscriptionRepair crashes the broker holding a subscription
// and asserts the subscription is re-homed onto the surviving ring successor
// (no subscription lost) and that post-repair publishes are delivered
// exactly once.
func TestFailoverSubscriptionRepair(t *testing.T) {
	manual := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	d := newTestDeployment(t, "s1", "s2")

	sub, err := ConnectWithDialer(d.dialer, d.servers, Config{NodeID: 600, Clock: manual})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := ConnectWithDialer(d.dialer, d.servers, Config{NodeID: 601, Clock: manual})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	p := plan.New(d.servers...)
	ch := fallbackChannel(t, p, "s1")
	msgs, err := sub.Subscribe(ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(ch, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if m := recvMsg(t, msgs); string(m.Payload) != "before" {
		t.Fatalf("payload=%q", m.Payload)
	}

	// Crash s1. The subscriber's prompt repair sweep (woken by the
	// disconnect, not the timer) must move the subscription to s2.
	d.brokers["s1"].Close()
	deadline := time.Now().Add(3 * time.Second)
	for d.brokers["s2"].Subscribers(ch) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription not re-homed onto the survivor")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Post-repair publishes flow again, exactly once each.
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			_ = pub.Publish(ch, []byte(fmt.Sprintf("msg-%d", i)))
		}
	}()
	got := make(map[string]int, n)
	timeout := time.After(5 * time.Second)
	for len(got) < n {
		select {
		case m, ok := <-msgs:
			if !ok {
				t.Fatal("stream closed mid-recovery")
			}
			got[string(m.Payload)]++
			if got[string(m.Payload)] > 1 {
				t.Fatalf("duplicate delivery of %q", m.Payload)
			}
		case <-timeout:
			t.Fatalf("received %d/%d post-repair messages", len(got), n)
		}
	}

	// Unsubscribing must reach the stand-in that actually holds the
	// subscription, not the crashed home the plan still names.
	if err := sub.Unsubscribe(ch); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for d.brokers["s2"].Subscribers(ch) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("s2 still holds %d subscriber(s) after Unsubscribe", d.brokers["s2"].Subscribers(ch))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailoverRepairsAStandIn crashes the home of a subscription — a channel
// or the redirect inbox — waits for it to move to a stand-in, then crashes
// the stand-in: the subscription must move again, onto the third broker. A
// client that remembered where the plan put a subscription instead of where
// it was would never notice the second crash, leaving it stranded for good.
func TestFailoverRepairsAStandIn(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inbox bool
	}{
		{name: "channel"},
		{name: "inbox", inbox: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			manual := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
			d := newTestDeployment(t, "s1", "s2", "s3")
			p := plan.New(d.servers...)
			node, ch := uint32(900), fallbackChannel(t, p, "s1")
			if tc.inbox {
				node = inboxOn(t, p, "s1")
				ch = plan.InboxChannel(node)
			}
			cl, err := ConnectWithDialer(d.dialer, d.servers, Config{NodeID: node, Clock: manual})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if !tc.inbox {
				if _, err := cl.Subscribe(ch); err != nil {
					t.Fatal(err)
				}
			}
			heldOn := func() plan.ServerID {
				for _, s := range d.servers {
					if d.brokers[s].Subscribers(ch) > 0 {
						return s
					}
				}
				return ""
			}
			// waitFor advances virtual time too, so redial backoffs and
			// maintenance sweeps run while the test waits.
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				deadline := time.Now().Add(3 * time.Second)
				for !cond() {
					if time.Now().After(deadline) {
						t.Fatalf("%s: %s held on %q", what, ch, heldOn())
					}
					manual.Advance(100 * time.Millisecond)
					time.Sleep(5 * time.Millisecond)
				}
			}
			waitFor("not placed on its home", func() bool { return heldOn() == "s1" })

			d.brokers["s1"].Close()
			var standIn plan.ServerID
			waitFor("not re-homed after the home crashed", func() bool {
				standIn = heldOn()
				return standIn != "" && standIn != "s1"
			})

			d.brokers[standIn].Close()
			third := "s2"
			if standIn == "s2" {
				third = "s3"
			}
			waitFor("not re-homed after the stand-in crashed", func() bool {
				return d.brokers[third].Subscribers(ch) > 0
			})
		})
	}
}

// inboxOn returns a node ID whose redirect inbox hashes to server.
func inboxOn(t *testing.T, p *plan.Plan, server plan.ServerID) uint32 {
	t.Helper()
	for id := uint32(700); id < 10000; id++ {
		if p.Home(plan.InboxChannel(id)) == server {
			return id
		}
	}
	t.Fatalf("no node ID homes its inbox on %s", server)
	return 0
}

// TestFailoverRepairInbox crashes the broker hosting the client's redirect
// inbox and asserts the inbox subscription is re-homed, so dispatcher
// redirects keep reaching the client.
func TestFailoverRepairInbox(t *testing.T) {
	manual := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	d := newTestDeployment(t, "s1", "s2")
	p := plan.New(d.servers...)

	nodeID := inboxOn(t, p, "s1")
	cl, err := ConnectWithDialer(d.dialer, d.servers, Config{NodeID: nodeID, Clock: manual})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	inbox := plan.InboxChannel(nodeID)
	if d.brokers["s1"].Subscribers(inbox) != 1 {
		t.Fatalf("inbox not on s1: %d subscribers", d.brokers["s1"].Subscribers(inbox))
	}

	d.brokers["s1"].Close()
	deadline := time.Now().Add(3 * time.Second)
	for d.brokers["s2"].Subscribers(inbox) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("inbox not re-homed after crash")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailoverNoGoroutineLeak runs a crash/repair cycle and verifies client
// teardown leaks no goroutines.
func TestFailoverNoGoroutineLeak(t *testing.T) {
	manual := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	d := newTestDeployment(t, "s1", "s2")
	p := plan.New(d.servers...)
	ch := fallbackChannel(t, p, "s1")

	// Baseline after the deployment is up: the check isolates goroutines
	// owned by the client (and its broker sessions).
	before := runtime.NumGoroutine()

	cl, err := ConnectWithDialer(d.dialer, d.servers, Config{NodeID: 800, Clock: manual})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(ch); err != nil {
		t.Fatal(err)
	}
	d.brokers["s1"].Close()
	deadline := time.Now().Add(3 * time.Second)
	for d.brokers["s2"].Subscribers(ch) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no repair")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close is a no-op.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	deadline = time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFailoverReplayGapReported cuts a subscriber off while more frames are
// published than its broker's ring holds. When the redial re-homes the
// subscription with its resume cursor, the broker replays what the ring still
// has and declares the rest overwritten: the gap must reach the application
// once, with the exact count, in the stats and in the flight recorder.
func TestFailoverReplayGapReported(t *testing.T) {
	const depth, cutOff = 4, 20
	b := broker.New(broker.Options{Name: "s1", ReplayDepth: depth})
	defer b.Close()
	inner := transport.NewMemDialer(map[plan.ServerID]*broker.Broker{"s1": b}, transport.MemDialerOptions{})
	defer inner.Close()
	manual := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	flaky := newFlakyDialer(inner, manual)

	var gapMu sync.Mutex
	var gaps []uint64
	rec := trace.NewRecorder(4096)
	sub, err := ConnectWithDialer(flaky, []string{"s1"}, Config{
		NodeID:   700,
		Clock:    manual,
		Recorder: rec,
		OnReplayGap: func(channel string, missed uint64) {
			gapMu.Lock()
			gaps = append(gaps, missed)
			gapMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := ConnectWithDialer(inner, []string{"s1"}, Config{NodeID: 701})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const ch = "arena"
	msgs, err := sub.Subscribe(ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(ch, []byte("m0")); err != nil {
		t.Fatal(err)
	}
	if m := recvMsg(t, msgs); string(m.Payload) != "m0" {
		t.Fatalf("payload=%q", m.Payload)
	}

	flaky.cut("s1")
	deadline := time.Now().Add(2 * time.Second)
	for b.Subscribers(ch) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the cut connection still holds its subscription")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= cutOff; i++ {
		if err := pub.Publish(ch, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Past the redial backoff, the repair sweep redials s1 and resumes by
	// cursor: m1..m16 are overwritten, m17..m20 are still in the ring.
	const missed = cutOff - depth
	for i := depth; i >= 1; i-- {
		want := fmt.Sprintf("m%d", cutOff-i+1)
		deadline := time.Now().Add(5 * time.Second)
		var m Message
		for got := false; !got; {
			select {
			case m = <-msgs:
				got = true
			case <-time.After(10 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("%s never arrived after the redial", want)
				}
				manual.Advance(time.Second)
			}
		}
		if string(m.Payload) != want {
			t.Fatalf("got %q, want %q", m.Payload, want)
		}
	}
	select {
	case m := <-msgs:
		t.Fatalf("unexpected extra delivery %q", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}

	gapMu.Lock()
	defer gapMu.Unlock()
	if len(gaps) != 1 || gaps[0] != missed {
		t.Fatalf("OnReplayGap calls %v, want one of %d", gaps, missed)
	}
	if st := sub.Stats(); st.ReplayGapFrames != missed || st.ReplayedFrames != depth {
		t.Fatalf("stats: %d gap frames, %d replayed; want %d and %d",
			st.ReplayGapFrames, st.ReplayedFrames, missed, depth)
	}
	if n := rec.Count(trace.KindReplayGap); n != 1 {
		t.Fatalf("%d replay-gap events recorded, want 1", n)
	}
	if n := sub.ReplayGaps(); n != 0 {
		t.Fatalf("%d frames still owed after the gap was declared", n)
	}
}
