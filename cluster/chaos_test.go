package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/deliverycheck"
)

// TestChaosBrokerCrashMidPublishStorm kills one of four brokers in the
// middle of a 50-channel sequenced publish storm and asserts the zero-loss
// recovery contract: the failure detector repairs the plan within a bounded
// window, every subscription survives on the remaining brokers, and every
// accepted publish — including those racing the detection/repair window —
// is delivered exactly once (zero gaps, zero dupes). The storm pauses for
// the crash instant itself: a frame the dying broker accepted but had not
// yet fanned out needs publisher acknowledgments to recover, which is out
// of scope; the replay rings close the much larger failover window — frames
// published to a channel's new home before the subscriber's cursor
// resubscribe lands there.
func TestChaosBrokerCrashMidPublishStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is seconds-long")
	}
	clk := clock.NewScaled(epoch, 10)
	c, err := Start(Options{
		InitialServers: 4,
		Balancer:       BalancerDynamoth,
		Clock:          clk,
		Seed:           7,
		TWait:          5 * time.Second,
		ReportEvery:    time.Second, // detection window ≈ 4 s virtual
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	const channels = 50
	chName := func(i int) string { return fmt.Sprintf("storm-%d", i) }

	sub, err := c.NewClient(dynamoth.Config{NodeID: 1000, Clock: clk, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := c.NewClient(dynamoth.Config{NodeID: 1001, Clock: clk, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Every subscription drains into the ledger.
	l := deliverycheck.New()
	for i := 0; i < channels; i++ {
		msgs, err := sub.Subscribe(chName(i))
		if err != nil {
			t.Fatal(err)
		}
		deliverycheck.Drain(l, "sub", chName(i), msgs, payloadKey)
	}

	// Sequenced storm: every message is unique, and a publish that errors
	// (dead home mid-failover) retries until a live home accepts it.
	publishOne := func(i int) error {
		return publishAccepted(l, pub, chName(i%channels), fmt.Sprintf("storm-%d", i), 20*time.Second)
	}

	// Phase 1: pre-crash storm across every channel, fully delivered before
	// the crash — each channel's seqTracker now has a baseline to resume
	// from, and no frame is in flight when the broker dies.
	const phase1, phase2 = 3 * channels, 3 * channels
	for i := 0; i < phase1; i++ {
		if err := publishOne(i); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Wait(15 * time.Second); err != nil {
		t.Fatalf("pre-crash: %v", err)
	}

	// Kill a non-pinned broker abruptly, and resume the storm immediately —
	// phase 2 races the detection and repair windows: publishes to channels
	// homed on the dead broker fail and retry until the repaired plan gives
	// them a live home, and frames the new home accepts before the
	// subscriber's cursor resubscribe arrives must be replayed from its ring.
	if err := c.Crash("pub3"); err != nil {
		t.Fatal(err)
	}
	stormErr := make(chan error, 1)
	go func() {
		for i := phase1; i < phase1+phase2; i++ {
			if err := publishOne(i); err != nil {
				stormErr <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		stormErr <- nil
	}()

	// Bounded recovery window: detection (~4 s virtual = 400 ms real at
	// ×10) plus repair must complete well within the deadline.
	if !waitUntil(15*time.Second, func() bool { return c.Failures() >= 1 }) {
		t.Fatalf("failure never detected: failures=%d servers=%d", c.Failures(), c.ActiveServers())
	}
	if err := <-stormErr; err != nil {
		t.Fatal(err)
	}

	if got := c.ActiveServers(); got != 3 {
		t.Fatalf("ActiveServers=%d after crash, want 3", got)
	}
	if v := c.PlanVersion(); v < 2 {
		t.Fatalf("plan not repaired: version=%d", v)
	}

	// Zero loss, exactly once: every accepted publish — pre-crash and racing
	// the repair — delivered once, and nothing that was never accepted.
	if err := l.Wait(15 * time.Second); err != nil {
		t.Fatalf("post-crash: %v", err)
	}

	// Zero gaps: the cursor machinery owes nothing (every hole was replayed
	// or never existed), and with 256-deep rings against a handful of frames
	// per channel, no gap was ever declared unrecoverable.
	if gaps := sub.ReplayGaps(); gaps != 0 {
		t.Fatalf("ReplayGaps=%d at quiescence, want 0", gaps)
	}
	ss := sub.Stats()
	if ss.ReplayGapFrames != 0 {
		t.Fatalf("ReplayGapFrames=%d with rings deeper than the storm, want 0", ss.ReplayGapFrames)
	}
	// The failover path actually exercised cursors: the subscriber was
	// re-homed off the dead broker with per-channel resume state in hand.
	if ss.ReplayRequests == 0 {
		t.Fatalf("no cursor resubscribes issued across a broker crash; stats %+v", ss)
	}
}

// TestChaosRebalanceDrainZeroLoss drives enough load through a one-broker
// cluster to trigger an elastic scale-up and asserts the T_wait rebalance
// drain loses nothing: every accepted publish is delivered exactly once to
// every subscriber across the SWITCH migration — the drain window where the
// old home forwards, the new home replays from its ring, and the client's
// dedup absorbs the overlap.
func TestChaosRebalanceDrainZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is seconds-long")
	}
	clk := clock.NewScaled(epoch, 10)
	c, err := Start(Options{
		InitialServers: 1,
		MaxServers:     4,
		Balancer:       BalancerDynamoth,
		Clock:          clk,
		MaxOutgoingBps: 4000, // tiny virtual capacity so the storm overloads
		TWait:          3 * time.Second,
		BootDelay:      2 * time.Second,
		ReportEvery:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	const channels = 6
	chName := func(i int) string { return fmt.Sprintf("room-%d", i) }

	// Two independent subscribers over every channel (doubling egress toward
	// the overload threshold); each must observe the full sequence exactly
	// once.
	l := deliverycheck.New()
	subs := make([]*dynamoth.Client, 0, 2)
	for si, name := range []string{"A", "B"} {
		sub, err := c.NewClient(dynamoth.Config{NodeID: uint32(2000 + si), Clock: clk, Seed: int64(si + 1)})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		defer sub.Close()
		for i := 0; i < channels; i++ {
			msgs, err := sub.Subscribe(chName(i))
			if err != nil {
				t.Fatal(err)
			}
			deliverycheck.Drain(l, name, chName(i), msgs, payloadKey)
		}
	}
	pub, err := c.NewClient(dynamoth.Config{NodeID: 2002, Clock: clk, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Sequenced 120-byte payloads at 2 ms: ~60 kB/s real = 6 kB/s virtual at
	// ×10, comfortably past the 4 kB/s cap once doubled by fan-out.
	var stopLoad atomic.Bool
	loadErr := make(chan error, 1)
	go func() {
		pad := make([]byte, 120)
		for i := 0; !stopLoad.Load(); i++ {
			copy(pad, fmt.Sprintf("drain-%05d", i))
			if err := publishAccepted(l, pub, chName(i%channels), string(pad), 4*time.Second); err != nil {
				loadErr <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		loadErr <- nil
	}()

	// Wait for the scale-up rebalance (spawn + T_wait drain + switch), then
	// keep the storm running through the post-switch window before stopping.
	if !waitUntil(30*time.Second, func() bool { return c.ActiveServers() >= 2 && c.Rebalances() >= 1 }) {
		stopLoad.Store(true)
		<-loadErr
		t.Fatalf("no rebalance: servers=%d rebalances=%d", c.ActiveServers(), c.Rebalances())
	}
	time.Sleep(500 * time.Millisecond)
	stopLoad.Store(true)
	if err := <-loadErr; err != nil {
		t.Fatal(err)
	}

	// Zero loss across the drain: both subscribers receive the full accepted
	// set, exactly once.
	if err := l.Wait(15 * time.Second); err != nil {
		t.Fatalf("after rebalance: %v", err)
	}

	// Zero gaps, and the migration actually exercised cursor resubscribes.
	var replayRequests uint64
	for i, sub := range subs {
		if gaps := sub.ReplayGaps(); gaps != 0 {
			t.Fatalf("subscriber %d: ReplayGaps=%d at quiescence", i, gaps)
		}
		st := sub.Stats()
		if st.ReplayGapFrames != 0 {
			t.Fatalf("subscriber %d: ReplayGapFrames=%d across a drain, want 0", i, st.ReplayGapFrames)
		}
		replayRequests += st.ReplayRequests
	}
	if replayRequests == 0 {
		t.Fatal("no cursor resubscribes issued across a rebalance migration")
	}
}

func payloadKey(m dynamoth.Message) string { return string(m.Payload) }

// publishAccepted publishes payload on channel, retrying every 2 ms until
// the client accepts it, and records it in l; it gives up after within.
func publishAccepted(l *deliverycheck.Ledger, pub *dynamoth.Client, channel, payload string, within time.Duration) error {
	for deadline := time.Now().Add(within); pub.Publish(channel, []byte(payload)) != nil; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("publish %q never accepted", payload)
		}
	}
	l.Published(channel, payload)
	return nil
}

// waitUntil polls cond every 20 ms for up to timeout and reports whether it
// came true.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestChaosPartitionDetectedBySilence blackholes a broker (connections stay
// up, packets vanish) and asserts the silent failure is still detected and
// evacuated — the signal crashes give for free (connection errors) is absent
// here, so only report staleness and probe timeouts can catch it.
func TestChaosPartitionDetectedBySilence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is seconds-long")
	}
	clk := clock.NewScaled(epoch, 10)
	c, err := Start(Options{
		InitialServers: 2,
		Balancer:       BalancerDynamoth,
		Clock:          clk,
		TWait:          time.Hour, // isolate the repair path from rebalancing
		ReportEvery:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if err := c.PartitionServer("pub2"); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(15*time.Second, func() bool { return c.Failures() >= 1 }) {
		t.Fatalf("silent partition never detected: failures=%d", c.Failures())
	}
	if got := c.ActiveServers(); got != 1 {
		t.Fatalf("ActiveServers=%d, want 1 after fencing", got)
	}
}

// TestChaosCrashUnknownServer asserts the fault-injection API rejects
// unknown ids.
func TestChaosCrashUnknownServer(t *testing.T) {
	c, err := Start(Options{InitialServers: 1, Balancer: BalancerNone})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Crash("ghost"); err == nil {
		t.Fatal("crash of unknown server succeeded")
	}
	if err := c.PartitionServer("ghost"); err == nil {
		t.Fatal("partition of unknown server succeeded")
	}
}

// TestChaosReplacementSpawn crashes a broker with ReplaceFailedServers set
// and waits for the cloud to boot a substitute node.
func TestChaosReplacementSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is seconds-long")
	}
	clk := clock.NewScaled(epoch, 10)
	c, err := Start(Options{
		InitialServers:       2,
		MaxServers:           4,
		Balancer:             BalancerDynamoth,
		Clock:                clk,
		TWait:                time.Hour,
		ReportEvery:          time.Second,
		BootDelay:            time.Second,
		ReplaceFailedServers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if err := c.Crash("pub2"); err != nil {
		t.Fatal(err)
	}
	// The crashed node is fenced and a replacement node is running.
	if !waitUntil(20*time.Second, func() bool { return c.Failures() >= 1 && c.ActiveServers() == 2 }) {
		t.Fatalf("no replacement: failures=%d servers=%v", c.Failures(), c.Servers())
	}
	for _, id := range c.Servers() {
		if id == "pub2" {
			t.Fatalf("crashed server still listed: %v", c.Servers())
		}
	}
}
