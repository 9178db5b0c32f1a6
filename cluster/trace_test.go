package cluster

import (
	"fmt"
	"testing"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/server"
	"github.com/dynamoth/dynamoth/internal/trace"
)

// TestClusterPlanVersionConvergence crashes one broker and asserts the
// repaired plan actually lands everywhere: every surviving node's /statusz
// document reports the orchestrator's plan version (and a server list that no
// longer contains the dead broker) once the push settles.
func TestClusterPlanVersionConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is seconds-long")
	}
	clk := clock.NewScaled(epoch, 10)
	c, err := Start(Options{
		InitialServers: 3,
		Balancer:       BalancerDynamoth,
		Clock:          clk,
		TWait:          time.Hour, // isolate the repair path from rebalancing
		ReportEvery:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if err := c.Crash("pub3"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for c.Failures() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("failure never detected: failures=%d", c.Failures())
		}
		time.Sleep(20 * time.Millisecond)
	}

	want := c.orch.Plan().Version
	if want < 2 {
		t.Fatalf("orchestrator plan version=%d after repair, want >= 2", want)
	}
	for time.Now().Before(deadline) {
		if st, lagging := nodeStatuses(c, want); lagging == "" {
			for _, s := range st {
				for _, srv := range s.PlanServers {
					if srv == "pub3" {
						t.Fatalf("node %s still lists dead server: %v", s.Server, s.PlanServers)
					}
				}
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, lagging := nodeStatuses(c, want)
	t.Fatalf("node %s never converged to plan version %d", lagging, want)
}

// nodeStatuses snapshots every live node's Status and returns the ID of the
// first node (if any) whose reported plan version lags want.
func nodeStatuses(c *Cluster, want uint64) ([]server.Status, string) {
	c.mu.Lock()
	nodes := make([]*server.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	out := make([]server.Status, 0, len(nodes))
	for _, n := range nodes {
		st := n.Status().(server.Status)
		out = append(out, st)
		if st.PlanVersion != want {
			return out, st.Server
		}
	}
	return out, ""
}

// TestChaosRepairTimeline is the flight recorder's end-to-end contract: a
// broker crash must leave a complete, internally consistent repair timeline
// behind — detection with evidence, the repair span, the plan push and apply
// on every survivor, and the client-side failover migration — with monotone
// timestamps and a suppressed-duplicates total that matches what the clients
// themselves counted.
func TestChaosRepairTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is seconds-long")
	}
	clk := clock.NewScaled(epoch, 10)
	c, err := Start(Options{
		InitialServers: 3,
		Balancer:       BalancerDynamoth,
		Clock:          clk,
		TWait:          time.Hour,
		ReportEvery:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub, err := c.NewClient(dynamoth.Config{NodeID: 900, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := c.NewClient(dynamoth.Config{NodeID: 901, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Subscribe to a channel homed on the broker we are about to kill, so the
	// crash forces a client-side failover migration.
	p := plan.New("pub1", "pub2", "pub3")
	victim := ""
	for i := 0; victim == "" && i < 1000; i++ {
		ch := fmt.Sprintf("arena-%d", i)
		if p.Home(ch) == "pub3" {
			victim = ch
		}
	}
	if victim == "" {
		t.Fatal("no channel hashes to pub3")
	}
	msgs, err := sub.Subscribe(victim)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.Crash("pub3"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for c.Failures() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("failure never detected: failures=%d", c.Failures())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Prove the client recovered: a post-repair publish must arrive, which
	// requires the subscription to have been re-homed (the migrate event the
	// timeline assertion below depends on).
	go func() {
		for i := 0; ; i++ {
			if err := pub.Publish(victim, []byte("post-repair")); err == nil && i >= 3 {
				return // a few extra sends ride out the failover race
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	select {
	case <-msgs:
	case <-time.After(15 * time.Second):
		t.Fatal("post-repair publication never delivered")
	}

	sub.Close()
	pub.Close()
	wantSuppressed := int64(sub.Stats().Duplicates + pub.Stats().Duplicates)

	timelines := c.Timelines()
	var repair *trace.Rebalance
	for i := range timelines {
		if timelines[i].Kind == "repair" {
			repair = &timelines[i]
		}
	}
	if repair == nil {
		t.Fatalf("no repair timeline; got %+v", timelines)
	}

	// Every phase of the lifecycle must be present.
	for _, name := range []string{"detect", "repair", "plan_push", "plan_apply", "migrate"} {
		if repair.Phase(name) == nil {
			t.Errorf("repair timeline missing %q phase: %+v", name, repair.Phases)
		}
	}
	if det := repair.Phase("detect"); det != nil {
		if len(det.Subjects) == 0 || det.Subjects[0] != "pub3" {
			t.Errorf("detect phase subjects=%v, want [pub3]", det.Subjects)
		}
	}
	if push := repair.Phase("plan_push"); push != nil && push.Count < 2 {
		t.Errorf("plan_push count=%d, want one per surviving node (>= 2)", push.Count)
	}

	// Timestamps must be monotone: the timeline bounds hold every phase, and
	// phases are ordered by start.
	if repair.Start <= 0 || repair.End < repair.Start {
		t.Fatalf("timeline bounds not monotone: start=%d end=%d", repair.Start, repair.End)
	}
	prev := repair.Start
	for _, ph := range repair.Phases {
		if ph.Start < repair.Start || ph.End > repair.End || ph.End < ph.Start {
			t.Errorf("phase %s [%d,%d] escapes timeline [%d,%d]",
				ph.Name, ph.Start, ph.End, repair.Start, repair.End)
		}
		if ph.Start < prev {
			t.Errorf("phase %s starts before its predecessor", ph.Name)
		}
		prev = ph.Start
	}

	// The timelines' suppressed total must equal the clients' own counters:
	// each duplicate is one event, counted once and attributed once.
	var total int64
	for _, rb := range timelines {
		total += rb.Suppressed
	}
	if total != wantSuppressed {
		t.Errorf("timeline suppressed=%d, client counters=%d", total, wantSuppressed)
	}
}

// TestRebalanceReplayDuplicatesInTimelines pins duplicate accounting against
// the replay machinery under a real scale-up rebalance: several channels
// migrate while cursor subscribes replay overlap, and every duplicate the
// clients suppressed must land in exactly one rebalance timeline.
func TestRebalanceReplayDuplicatesInTimelines(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is seconds-long")
	}
	clk := clock.NewScaled(epoch, 10)
	c, err := Start(Options{
		InitialServers: 1,
		MaxServers:     4,
		Balancer:       BalancerDynamoth,
		Clock:          clk,
		MaxOutgoingBps: 4000,
		TWait:          3 * time.Second,
		BootDelay:      2 * time.Second,
		ReportEvery:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	const channels = 6
	sub, err := c.NewClient(dynamoth.Config{NodeID: 950, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < channels; i++ {
		msgs, err := sub.Subscribe(fmt.Sprintf("evict-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		go func(msgs <-chan dynamoth.Message) {
			for range msgs { // drain; delivery counts are not this test's concern
			}
		}(msgs)
	}
	pub, err := c.NewClient(dynamoth.Config{NodeID: 951, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Enough sustained load to trigger a scale-up rebalance, so several
	// channels migrate while replay resubscribes deliver overlap duplicates.
	stopLoad := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		payload := make([]byte, 120)
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			_ = pub.Publish(fmt.Sprintf("evict-%d", i%channels), payload)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for c.ActiveServers() < 2 || c.Rebalances() < 1 {
		if time.Now().After(deadline) {
			close(stopLoad)
			<-loadDone
			t.Fatalf("no rebalance: servers=%d rebalances=%d", c.ActiveServers(), c.Rebalances())
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)
	close(stopLoad)
	<-loadDone
	time.Sleep(500 * time.Millisecond) // let in-flight deliveries settle

	if sub.Stats().ReplayRequests == 0 {
		t.Fatal("no cursor resubscribes issued: the migration path did not exercise replay")
	}

	sub.Close()
	pub.Close()
	wantSuppressed := int64(sub.Stats().Duplicates + pub.Stats().Duplicates)

	var total int64
	for _, rb := range c.Timelines() {
		total += rb.Suppressed
	}
	if total != wantSuppressed {
		t.Errorf("timeline suppressed=%d, client counters=%d (duplicates lost or double-counted)",
			total, wantSuppressed)
	}
	st := sub.Stats()
	t.Logf("duplicates=%d replayRequests=%d replayed=%d",
		st.Duplicates, st.ReplayRequests, st.ReplayedFrames)
}
