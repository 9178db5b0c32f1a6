package balancer

import (
	"strings"
	"testing"

	"github.com/dynamoth/dynamoth/internal/plan"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TWait = 0
	return cfg
}

func load(server string, maxBps, measured float64, chans map[string]ChannelLoad) ServerLoad {
	if chans == nil {
		chans = map[string]ChannelLoad{}
	}
	return ServerLoad{Server: server, MaxBps: maxBps, MeasuredBps: measured, Channels: chans}
}

// --- Algorithm 1: replication decision -------------------------------------

func TestDecideReplicationNoReplication(t *testing.T) {
	cfg := testConfig()
	tests := []struct {
		name string
		cl   ChannelLoad
	}{
		{"idle", ChannelLoad{}},
		{"modest traffic", ChannelLoad{Publications: 100, Subscribers: 20}},
		{"high ratio but few publications", ChannelLoad{Publications: 400, Subscribers: 0.2}},
		{"many subscribers but low ratio", ChannelLoad{Publications: 50, Subscribers: 900}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if dec := decideReplication(cfg, tt.cl); dec.Strategy != plan.StrategySingle {
				t.Fatalf("decision=%+v, want single", dec)
			}
		})
	}
}

func TestDecideReplicationAllSubscribers(t *testing.T) {
	cfg := testConfig()
	// Fig 4b-style: thousands of publications, one subscriber.
	cl := ChannelLoad{Publications: 4000, Subscribers: 1}
	dec := decideReplication(cfg, cl)
	if dec.Strategy != plan.StrategyAllSubscribers {
		t.Fatalf("decision=%+v", dec)
	}
	// N = ceil(4000/1500) = 3.
	if dec.Replicas != 3 {
		t.Fatalf("replicas=%d, want 3", dec.Replicas)
	}
}

func TestDecideReplicationAllPublishers(t *testing.T) {
	cfg := testConfig()
	// Fig 4a-style: one publisher at 10 pub/s, 800 subscribers.
	cl := ChannelLoad{Publications: 10, Subscribers: 800}
	dec := decideReplication(cfg, cl)
	if dec.Strategy != plan.StrategyAllPublishers {
		t.Fatalf("decision=%+v", dec)
	}
	// S_ratio=80, threshold 30 => ceil(80/30)=3.
	if dec.Replicas != 3 {
		t.Fatalf("replicas=%d, want 3", dec.Replicas)
	}
}

func TestDecideReplicationCornerCaseBothLarge(t *testing.T) {
	cfg := testConfig()
	// Both enormous: all-subscribers must win (§III-B1 corner case).
	cl := ChannelLoad{Publications: 100000, Subscribers: 10000}
	// P_ratio = 10 < 1500... scale so both conditions trigger:
	// need P_ratio > 1500 AND S_ratio > 30 — mathematically exclusive
	// (P_ratio*S_ratio = 1), so the corner case in practice is huge pubs
	// with subs over the subscriber threshold but ratio tests competing.
	// Construct explicitly: pubs huge, subs just above threshold.
	cl = ChannelLoad{Publications: 1e6, Subscribers: 400}
	dec := decideReplication(cfg, cl)
	if dec.Strategy != plan.StrategyAllSubscribers {
		t.Fatalf("decision=%+v, want all-subscribers to win", dec)
	}
}

func TestDecideReplicationZeroSubscribers(t *testing.T) {
	cfg := testConfig()
	// No subscribers: P_ratio degenerates to raw publication rate.
	cl := ChannelLoad{Publications: 2000, Subscribers: 0}
	dec := decideReplication(cfg, cl)
	if dec.Strategy != plan.StrategyAllSubscribers {
		t.Fatalf("decision=%+v", dec)
	}
}

func TestDecideReplicationClamped(t *testing.T) {
	cfg := testConfig()
	cfg.MaxReplicas = 4
	cl := ChannelLoad{Publications: 1e9, Subscribers: 1}
	dec := decideReplication(cfg, cl)
	if dec.Replicas != 4 {
		t.Fatalf("replicas=%d, want clamp 4", dec.Replicas)
	}
}

func TestTrueChannelLoadCorrections(t *testing.T) {
	loads := []ServerLoad{
		{Server: "s1", Channels: map[string]ChannelLoad{"c": {Publications: 100, Subscribers: 50, BytesIn: 1000, Publishers: 10}}},
		{Server: "s2", Channels: map[string]ChannelLoad{"c": {Publications: 100, Subscribers: 50, BytesIn: 1000, Publishers: 10}}},
	}
	single := TrueChannelLoad(loads, "c", plan.Entry{Strategy: plan.StrategySingle, Servers: []string{"s1"}})
	if single.Publications != 200 || single.Subscribers != 100 {
		t.Fatalf("single: %+v", single)
	}
	// All-subscribers: every replica sees every subscriber => divide subs.
	as := TrueChannelLoad(loads, "c", plan.Entry{Strategy: plan.StrategyAllSubscribers, Servers: []string{"s1", "s2"}})
	if as.Subscribers != 50 || as.Publications != 200 {
		t.Fatalf("all-subscribers: %+v", as)
	}
	// All-publishers: every replica receives every publication => divide pubs.
	ap := TrueChannelLoad(loads, "c", plan.Entry{Strategy: plan.StrategyAllPublishers, Servers: []string{"s1", "s2"}})
	if ap.Publications != 100 || ap.Subscribers != 100 || ap.BytesIn != 1000 || ap.Publishers != 10 {
		t.Fatalf("all-publishers: %+v", ap)
	}
}

// --- GeneratePlan: channel-level -------------------------------------------

func TestGeneratePlanEnablesReplication(t *testing.T) {
	cfg := testConfig()
	pl := NewPlanner(cfg, nil, nil, 1.25e6)
	current := plan.New("s1", "s2", "s3")
	hot := current.Home("hot")

	loads := []ServerLoad{
		load("s1", 1.25e6, 1e5, nil),
		load("s2", 1.25e6, 1e5, nil),
		load("s3", 1.25e6, 1e5, nil),
	}
	// Put the hot channel's metrics on its home server.
	for i := range loads {
		if loads[i].Server == hot {
			loads[i].Channels["hot"] = ChannelLoad{Publications: 4000, Subscribers: 1, BytesOut: 4000 * 100}
		}
	}
	d := pl.GeneratePlan(current, loads)
	if d.Plan == nil {
		t.Fatal("no plan generated")
	}
	e, explicit := d.Plan.Lookup("hot")
	if !explicit || e.Strategy != plan.StrategyAllSubscribers {
		t.Fatalf("hot entry %+v explicit=%t", e, explicit)
	}
	if len(e.Servers) != 3 {
		t.Fatalf("replicas=%v", e.Servers)
	}
	if d.Plan.Version != current.Version+1 {
		t.Fatalf("version=%d", d.Plan.Version)
	}
	if !strings.Contains(d.Reason, "replication") {
		t.Fatalf("reason=%q", d.Reason)
	}
}

func TestGeneratePlanCancelsReplication(t *testing.T) {
	cfg := testConfig()
	pl := NewPlanner(cfg, nil, nil, 1.25e6)
	current := plan.New("s1", "s2", "s3")
	current.Set("cool", plan.Entry{Strategy: plan.StrategyAllSubscribers, Servers: []string{"s1", "s2"}})

	// Loads comfortably in the middle band so neither the high-load nor
	// the low-load pass kicks in and muddies the assertion.
	loads := []ServerLoad{
		load("s1", 1.25e6, 6e5, map[string]ChannelLoad{"cool": {Publications: 5, Subscribers: 3}}),
		load("s2", 1.25e6, 7e5, map[string]ChannelLoad{"cool": {Publications: 5, Subscribers: 3}}),
		load("s3", 1.25e6, 6.5e5, nil),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Plan == nil {
		t.Fatal("no plan generated")
	}
	e, _ := d.Plan.Lookup("cool")
	if e.Strategy != plan.StrategySingle || len(e.Servers) != 1 {
		t.Fatalf("replication not cancelled: %+v", e)
	}
	// Collapses onto the least-loaded member (s1 at 1e5 vs s2 at 2e5).
	if e.Servers[0] != "s1" {
		t.Fatalf("collapsed onto %q, want least-loaded member s1", e.Servers[0])
	}
}

func TestGeneratePlanGrowsReplicaSetLeastLoadedFirst(t *testing.T) {
	cfg := testConfig()
	pl := NewPlanner(cfg, nil, nil, 1.25e6)
	current := plan.New("s1", "s2", "s3", "s4")
	current.Set("hot", plan.Entry{Strategy: plan.StrategyAllSubscribers, Servers: []string{"s1", "s2"}})

	loads := []ServerLoad{
		load("s1", 1.25e6, 3e5, map[string]ChannelLoad{"hot": {Publications: 3000, Subscribers: 1, BytesOut: 3e5}}),
		load("s2", 1.25e6, 3e5, map[string]ChannelLoad{"hot": {Publications: 3000, Subscribers: 1, BytesOut: 3e5}}),
		load("s3", 1.25e6, 9e5, nil), // busy
		load("s4", 1.25e6, 1e5, nil), // quiet — should be chosen
	}
	// True pubs = 6000/s => N = ceil((6000/1)/1500) = 4 but only 4 servers.
	d := pl.GeneratePlan(current, loads)
	if d.Plan == nil {
		t.Fatal("no plan")
	}
	e, _ := d.Plan.Lookup("hot")
	if len(e.Servers) != 4 {
		t.Fatalf("want 4 replicas, got %v", e.Servers)
	}
}

// --- GeneratePlan: high load -----------------------------------------------

// channelsHomedOn returns n channel names whose consistent-hash home in p is
// server (as in a real run, where traffic sits where the plan routed it).
func channelsHomedOn(p *plan.Plan, server string, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		name := "ch" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		if p.Home(name) == server {
			out = append(out, name)
		}
	}
	return out
}

func TestGeneratePlanHighLoadMigratesBusiestChannel(t *testing.T) {
	cfg := testConfig()
	pl := NewPlanner(cfg, nil, nil, 1.25e6)
	current := plan.New("s1", "s2")
	names := channelsHomedOn(current, "s1", 3)
	big, mid, small := names[0], names[1], names[2]

	// s1 overloaded (LR 0.96), s2 idle. Busiest channel on s1 is big.
	loads := []ServerLoad{
		load("s1", 1e6, 9.6e5, map[string]ChannelLoad{
			big:   {BytesOut: 5e5, Publications: 100, Subscribers: 10},
			mid:   {BytesOut: 3e5, Publications: 60, Subscribers: 10},
			small: {BytesOut: 1.6e5, Publications: 30, Subscribers: 10},
		}),
		load("s2", 1e6, 0, nil),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Plan == nil {
		t.Fatal("no plan")
	}
	// big must now live on s2.
	e, explicit := d.Plan.Lookup(big)
	if !explicit || e.Servers[0] != "s2" {
		t.Fatalf("big: %+v explicit=%t", e, explicit)
	}
	if !strings.Contains(d.Reason, "high-load") {
		t.Fatalf("reason=%q", d.Reason)
	}
	if d.Spawn != 0 {
		t.Fatalf("unnecessary spawn: %+v", d)
	}
}

func TestGeneratePlanUnreportedServerIsIdle(t *testing.T) {
	// s2 is in the plan but has not reported yet (a fresh boot): the
	// planner counts it idle at its default capacity and moves load to it.
	pl := NewPlanner(testConfig(), nil, nil, 1e6)
	current := plan.New("s1", "s2")
	big := channelsHomedOn(current, "s1", 1)[0]
	loads := []ServerLoad{
		load("s1", 1e6, 9.6e5, map[string]ChannelLoad{big: {BytesOut: 5e5}}),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Plan == nil || d.Spawn != 0 {
		t.Fatalf("decision=%+v, want a migration and no spawn", d)
	}
	if e, explicit := d.Plan.Lookup(big); !explicit || e.Servers[0] != "s2" {
		t.Fatalf("%s: %+v explicit=%t, want it on s2", big, e, explicit)
	}
}

func TestGeneratePlanHighLoadStopsBelowSafe(t *testing.T) {
	cfg := testConfig()
	pl := NewPlanner(cfg, nil, nil, 1e6)
	current := plan.New("s1", "s2")
	// 10 channels of 1e5 each on s1 => LR 1.0; safe=0.75 means move until
	// est < 0.75 (i.e. move 3 channels).
	names := channelsHomedOn(current, "s1", 10)
	chans := map[string]ChannelLoad{}
	for _, name := range names {
		chans[name] = ChannelLoad{BytesOut: 1e5}
	}
	loads := []ServerLoad{
		load("s1", 1e6, 1e6, chans),
		load("s2", 1e6, 0, nil),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Plan == nil {
		t.Fatal("no plan")
	}
	moved := 0
	for _, name := range names {
		if e, explicit := d.Plan.Lookup(name); explicit && e.Servers[0] == "s2" {
			moved++
		}
	}
	if moved < 3 || moved > 5 {
		t.Fatalf("moved %d channels, want ~3 (enough to reach LR_safe)", moved)
	}
}

func TestGeneratePlanHighLoadWantsSpawnWhenFull(t *testing.T) {
	cfg := testConfig()
	pl := NewPlanner(cfg, nil, nil, 1e6)
	current := plan.New("s1", "s2")
	// Both servers hot: migrating anywhere would overload the receiver.
	loads := []ServerLoad{
		load("s1", 1e6, 9.5e5, map[string]ChannelLoad{"a": {BytesOut: 5e5}, "b": {BytesOut: 4.5e5}}),
		load("s2", 1e6, 7.8e5, map[string]ChannelLoad{"c": {BytesOut: 7.8e5}}),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Spawn != 1 {
		t.Fatalf("decision=%+v, want spawn", d)
	}
}

func TestGeneratePlanHighLoadRespectsMaxServers(t *testing.T) {
	cfg := testConfig()
	cfg.MaxServers = 2
	pl := NewPlanner(cfg, nil, nil, 1e6)
	current := plan.New("s1", "s2")
	loads := []ServerLoad{
		load("s1", 1e6, 9.5e5, map[string]ChannelLoad{"a": {BytesOut: 9.5e5}}),
		load("s2", 1e6, 9.5e5, map[string]ChannelLoad{"b": {BytesOut: 9.5e5}}),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Spawn != 0 {
		t.Fatalf("spawned beyond MaxServers: %+v", d)
	}
}

func TestGeneratePlanControlChannelNeverMigrates(t *testing.T) {
	cfg := testConfig()
	isControl := func(ch string) bool { return strings.HasPrefix(ch, "__dynamoth.") }
	pl := NewPlanner(cfg, isControl, nil, 1e6)
	current := plan.New("s1", "s2")
	loads := []ServerLoad{
		load("s1", 1e6, 9.6e5, map[string]ChannelLoad{
			"__dynamoth.plan": {BytesOut: 9e5, Publications: 5000, Subscribers: 1},
			"user":            {BytesOut: 0.6e5},
		}),
		load("s2", 1e6, 0, nil),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Plan != nil {
		if _, explicit := d.Plan.Lookup("__dynamoth.plan"); explicit {
			t.Fatal("control channel was migrated or replicated")
		}
	}
}

// --- GeneratePlan: low load ------------------------------------------------

func TestGeneratePlanLowLoadReleasesServer(t *testing.T) {
	cfg := testConfig()
	pinned := func(s string) bool { return s == "s1" }
	pl := NewPlanner(cfg, nil, pinned, 1e6)
	current := plan.New("s1", "s2", "s3")
	current.Set("a", plan.Entry{Strategy: plan.StrategySingle, Servers: []string{"s3"}})

	loads := []ServerLoad{
		load("s1", 1e6, 2e5, map[string]ChannelLoad{"x": {BytesOut: 2e5}}),
		load("s2", 1e6, 1.5e5, map[string]ChannelLoad{"y": {BytesOut: 1.5e5}}),
		load("s3", 1e6, 0.5e5, map[string]ChannelLoad{"a": {BytesOut: 0.5e5}}),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Release != "s3" {
		t.Fatalf("decision=%+v, want release of s3", d)
	}
	if d.Plan == nil {
		t.Fatal("no plan")
	}
	if d.Plan.HasServer("s3") {
		t.Fatal("released server still in plan")
	}
	e, _ := d.Plan.Lookup("a")
	if e.Servers[0] == "s3" {
		t.Fatalf("channel a still on released server: %+v", e)
	}
}

func TestGeneratePlanLowLoadNeverReleasesPinned(t *testing.T) {
	cfg := testConfig()
	pinned := func(s string) bool { return s == "s1" }
	pl := NewPlanner(cfg, nil, pinned, 1e6)
	current := plan.New("s1", "s2")
	loads := []ServerLoad{
		load("s1", 1e6, 0, nil), // pinned and completely idle
		load("s2", 1e6, 3e5, map[string]ChannelLoad{"y": {BytesOut: 3e5}}),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Release == "s1" {
		t.Fatal("pinned server released")
	}
}

func TestGeneratePlanLowLoadRespectsMinServers(t *testing.T) {
	cfg := testConfig()
	cfg.MinServers = 2
	pl := NewPlanner(cfg, nil, nil, 1e6)
	current := plan.New("s1", "s2")
	loads := []ServerLoad{
		load("s1", 1e6, 1e4, nil),
		load("s2", 1e6, 1e4, nil),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Release != "" {
		t.Fatalf("released below MinServers: %+v", d)
	}
}

func TestGeneratePlanNoChangeReturnsNil(t *testing.T) {
	cfg := testConfig()
	pl := NewPlanner(cfg, nil, nil, 1e6)
	current := plan.New("s1", "s2")
	// Comfortable load everywhere, not low enough for release.
	loads := []ServerLoad{
		load("s1", 1e6, 5e5, map[string]ChannelLoad{"a": {BytesOut: 5e5}}),
		load("s2", 1e6, 5e5, map[string]ChannelLoad{"b": {BytesOut: 5e5}}),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Changed() {
		t.Fatalf("decision=%+v, want no change", d)
	}
}

// --- Consistent-hashing baseline -------------------------------------------

func TestCHPlannerSpawnsOnOverload(t *testing.T) {
	cfg := testConfig()
	pl := NewCHPlanner(cfg)
	current := plan.New("s1")
	d := pl.GeneratePlan(current, []ServerLoad{load("s1", 1e6, 9.5e5, nil)})
	if d.Spawn != 1 {
		t.Fatalf("decision=%+v", d)
	}
	// Under threshold: nothing.
	d = pl.GeneratePlan(current, []ServerLoad{load("s1", 1e6, 5e5, nil)})
	if d.Changed() {
		t.Fatalf("decision=%+v, want none", d)
	}
}

func TestCHPlannerCapsAtMaxServers(t *testing.T) {
	cfg := testConfig()
	cfg.MaxServers = 1
	pl := NewCHPlanner(cfg)
	current := plan.New("s1")
	d := pl.GeneratePlan(current, []ServerLoad{load("s1", 1e6, 9.9e5, nil)})
	if d.Spawn != 0 {
		t.Fatalf("spawned past max: %+v", d)
	}
}

// --- estimator internals ----------------------------------------------------

func TestEstimatorMigrateAccounting(t *testing.T) {
	loads := []ServerLoad{
		load("s1", 1e6, 6e5, map[string]ChannelLoad{"a": {BytesOut: 4e5}, "b": {BytesOut: 2e5}}),
		load("s2", 1e6, 1e5, map[string]ChannelLoad{"c": {BytesOut: 1e5}}),
	}
	e := newEstimator(loads, []string{"s1", "s2"}, 1e6)
	if got := e.ratio("s1"); got != 0.6 {
		t.Fatalf("ratio s1=%f", got)
	}
	e.migrate("a", "s1", "s2")
	if got := e.ratio("s1"); got != 0.2 {
		t.Fatalf("after migrate, s1=%f", got)
	}
	if got := e.ratio("s2"); got != 0.5 {
		t.Fatalf("after migrate, s2=%f", got)
	}
	if got := e.channelOut("s2", "a"); got != 4e5 {
		t.Fatalf("channel attribution=%f", got)
	}
	s, r := e.maxRatio()
	if s != "s2" || r != 0.5 {
		t.Fatalf("maxRatio=%s/%f", s, r)
	}
	s, _ = e.minRatio("s2")
	if s != "s1" {
		t.Fatalf("minRatio=%s", s)
	}
}

func TestEstimatorUnreportedServerIsIdle(t *testing.T) {
	e := newEstimator(nil, []string{"fresh"}, 2e6)
	if got := e.ratio("fresh"); got != 0 {
		t.Fatalf("fresh server ratio=%f", got)
	}
	if got := e.maxBps["fresh"]; got != 2e6 {
		t.Fatalf("fresh server capacity=%f", got)
	}
}

func TestEstimatorDropBusiest(t *testing.T) {
	loads := []ServerLoad{
		load("s1", 1e6, 9e5, nil),
		load("s2", 1e6, 1e5, nil),
		load("s3", 1e6, 5e5, nil),
	}
	e := newEstimator(loads, []string{"s1", "s2", "s3"}, 1e6)
	kept := e.dropBusiest([]string{"s1", "s2", "s3"}, 1)
	if len(kept) != 2 || kept[0] != "s2" || kept[1] != "s3" {
		t.Fatalf("kept=%v", kept)
	}
}
