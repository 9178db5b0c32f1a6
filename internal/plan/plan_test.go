package plan

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLookupFallbackMatchesRing(t *testing.T) {
	p := New("s1", "s2", "s3")
	for _, ch := range []string{"a", "b", "tile-1-1", "tile-9-9", "world"} {
		e, explicit := p.Lookup(ch)
		if explicit {
			t.Fatalf("channel %q unexpectedly explicit", ch)
		}
		if e.Strategy != StrategySingle || len(e.Servers) != 1 {
			t.Fatalf("fallback entry %+v", e)
		}
		if want := p.Ring().Lookup(ch); e.Servers[0] != want {
			t.Fatalf("fallback server %q, ring says %q", e.Servers[0], want)
		}
		if p.Home(ch) != e.Servers[0] {
			t.Fatalf("Home != fallback for %q", ch)
		}
	}
}

// Holds is Lookup's entry searched for one server, for mapped and unmapped
// channels alike, and it does not build the entry to find out.
func TestHoldsMatchesLookup(t *testing.T) {
	p := New("a", "b", "c")
	p.Set("single", Entry{Strategy: StrategySingle, Servers: []ServerID{"b"}})
	p.Set("replicated", Entry{Strategy: StrategyAllPublishers, Servers: []ServerID{"a", "c"}})
	for _, ch := range []string{"single", "replicated", "unmapped-1", "unmapped-2", "unmapped-3"} {
		e, explicit := p.Lookup(ch)
		for _, s := range []ServerID{"a", "b", "c", "stranger", ""} {
			want := false
			for _, have := range e.Servers {
				want = want || have == s
			}
			holds, gotExplicit := p.Holds(ch, s)
			if holds != want || gotExplicit != explicit {
				t.Errorf("Holds(%q, %q) = %v, %v; Lookup says %v, %v", ch, s, holds, gotExplicit, want, explicit)
			}
		}
	}
	if holds, explicit := New().Holds("anything", ""); holds || explicit {
		t.Errorf("empty plan holds a channel: %v, %v", holds, explicit)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.Holds("single", "b")
		p.Holds("unmapped-1", "a")
	}); allocs != 0 {
		t.Errorf("Holds allocates %v times", allocs)
	}
}

func TestLookupEmptyPlan(t *testing.T) {
	p := New()
	if e, ok := p.Lookup("x"); ok || len(e.Servers) != 0 {
		t.Fatalf("empty plan Lookup=%+v,%t", e, ok)
	}
}

func TestSetUnsetLookup(t *testing.T) {
	p := New("s1", "s2")
	p.Set("hot", Entry{Strategy: StrategyAllSubscribers, Servers: []ServerID{"s1", "s2"}})
	e, explicit := p.Lookup("hot")
	if !explicit || e.Strategy != StrategyAllSubscribers || len(e.Servers) != 2 {
		t.Fatalf("explicit lookup %+v,%t", e, explicit)
	}
	p.Unset("hot")
	if _, explicit := p.Lookup("hot"); explicit {
		t.Fatal("Unset did not remove mapping")
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	p := New("s1", "s2")
	p.Set("c", Entry{Strategy: StrategySingle, Servers: []ServerID{"s1"}})
	e, _ := p.Lookup("c")
	e.Servers[0] = "mutated"
	e2, _ := p.Lookup("c")
	if e2.Servers[0] != "s1" {
		t.Fatal("Lookup exposed internal entry state")
	}
}

func TestPublishSubscribeTargetsSingle(t *testing.T) {
	e := Entry{Strategy: StrategySingle, Servers: []ServerID{"s1"}}
	if got := PublishTargets(e, rand.Intn); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("PublishTargets=%v", got)
	}
	if got := SubscribeTargets(e, "c", "client"); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("SubscribeTargets=%v", got)
	}
}

func TestAllSubscribersSemantics(t *testing.T) {
	// Figure 2b: publishers pick one random replica, subscribers take all.
	e := Entry{Strategy: StrategyAllSubscribers, Servers: []ServerID{"h1", "h2", "h3"}}
	if got := SubscribeTargets(e, "c", "any"); len(got) != 3 {
		t.Fatalf("subscriber must subscribe on all replicas, got %v", got)
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		got := PublishTargets(e, rng.Intn)
		if len(got) != 1 {
			t.Fatalf("publisher must publish to exactly one replica, got %v", got)
		}
		seen[got[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("publications never spread over all replicas: %v", seen)
	}
}

func TestAllPublishersSemantics(t *testing.T) {
	// Figure 2c: publishers publish to all replicas, subscribers pick one,
	// sticky per client.
	e := Entry{Strategy: StrategyAllPublishers, Servers: []ServerID{"h1", "h2", "h3"}}
	if got := PublishTargets(e, rand.Intn); len(got) != 3 {
		t.Fatalf("publisher must publish to all replicas, got %v", got)
	}
	first := SubscribeTargets(e, "c", "client-42")
	if len(first) != 1 {
		t.Fatalf("subscriber must subscribe on exactly one replica, got %v", first)
	}
	for i := 0; i < 10; i++ {
		if got := SubscribeTargets(e, "c", "client-42"); got[0] != first[0] {
			t.Fatal("replica choice not sticky for same client")
		}
	}
	// Different clients spread across replicas.
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		got := SubscribeTargets(e, "c", "client-"+string(rune('a'+i%26))+string(rune('0'+i/26)))
		seen[got[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("subscribers never spread over all replicas: %v", seen)
	}
}

func TestPublishTargetsNilPick(t *testing.T) {
	e := Entry{Strategy: StrategyAllSubscribers, Servers: []ServerID{"h1", "h2"}}
	if got := PublishTargets(e, nil); len(got) != 1 {
		t.Fatalf("nil pick must degrade to first replica, got %v", got)
	}
}

func TestMigrate(t *testing.T) {
	p := New("s1", "s2", "s3")
	ch := "channel-x"
	home := p.Home(ch)
	var dest ServerID
	for _, s := range p.Servers {
		if s != home {
			dest = s
			break
		}
	}
	if err := p.Migrate(ch, home, dest); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	e, explicit := p.Lookup(ch)
	if !explicit || e.Servers[0] != dest {
		t.Fatalf("after migrate: %+v explicit=%t", e, explicit)
	}
	// Migrating from a server that doesn't hold the channel fails.
	if err := p.Migrate(ch, home, dest); err == nil {
		t.Fatal("Migrate from non-holder succeeded")
	}
}

func TestMigrateReplicated(t *testing.T) {
	p := New("s1", "s2", "s3", "s4")
	p.Set("hot", Entry{Strategy: StrategyAllSubscribers, Servers: []ServerID{"s1", "s2"}})
	if err := p.Migrate("hot", "s2", "s4"); err != nil {
		t.Fatal(err)
	}
	e, _ := p.Lookup("hot")
	if !reflect.DeepEqual(e.Servers, []ServerID{"s1", "s4"}) {
		t.Fatalf("replica set after migrate: %v", e.Servers)
	}
	if e.Strategy != StrategyAllSubscribers {
		t.Fatal("strategy lost in migration")
	}
}

func TestMigrateOnEmptyPlan(t *testing.T) {
	p := New()
	if err := p.Migrate("c", "a", "b"); err == nil {
		t.Fatal("Migrate on empty plan succeeded")
	}
}

func TestAddServerDoesNotTouchRing(t *testing.T) {
	// Dynamoth spawn: a new server must not remap any fallback channel.
	p := New("s1")
	p.AddServer("s2")
	p.AddServer("s2") // idempotent
	if len(p.Servers) != 2 {
		t.Fatalf("Servers=%v", p.Servers)
	}
	if !p.HasServer("s2") || p.HasServer("s9") {
		t.Fatal("HasServer wrong")
	}
	for i := 0; i < 200; i++ {
		if p.Home(probeChannel(i)) != "s1" {
			t.Fatal("AddServer changed the fallback ring")
		}
	}
	p.RemoveServer("s2")
	if p.HasServer("s2") {
		t.Fatal("RemoveServer failed")
	}
}

func TestAddRingServerGrowsRing(t *testing.T) {
	// Consistent-hashing baseline spawn: the ring itself grows.
	p := New("s1")
	p.AddRingServer("s2")
	p.AddRingServer("s2") // idempotent
	if len(p.RingServers) != 2 {
		t.Fatalf("RingServers=%v", p.RingServers)
	}
	foundS2 := false
	for i := 0; i < 200; i++ {
		if p.Home(probeChannel(i)) == "s2" {
			foundS2 = true
			break
		}
	}
	if !foundS2 {
		t.Fatal("ring not rebuilt after AddRingServer")
	}
	p.RemoveServer("s2")
	for i := 0; i < 200; i++ {
		if p.Home(probeChannel(i)) == "s2" {
			t.Fatal("removed server still in ring")
		}
	}
}

func probeChannel(i int) string {
	return "probe-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestCloneIndependence(t *testing.T) {
	p := New("s1", "s2")
	p.Set("c", Entry{Strategy: StrategySingle, Servers: []ServerID{"s1"}})
	c := p.Clone()
	c.Set("c", Entry{Strategy: StrategySingle, Servers: []ServerID{"s2"}})
	c.AddServer("s3")
	if e, _ := p.Lookup("c"); e.Servers[0] != "s1" {
		t.Fatal("clone mutation leaked into original")
	}
	if p.HasServer("s3") {
		t.Fatal("clone server add leaked into original")
	}
}

func TestDiff(t *testing.T) {
	old := New("s1", "s2")
	old.Set("a", Entry{Strategy: StrategySingle, Servers: []ServerID{"s1"}})
	old.Set("b", Entry{Strategy: StrategySingle, Servers: []ServerID{"s1"}})

	next := old.Clone()
	next.Set("a", Entry{Strategy: StrategySingle, Servers: []ServerID{"s2"}})
	next.Set("c", Entry{Strategy: StrategyAllPublishers, Servers: []ServerID{"s1", "s2"}})

	changes := next.Diff(old)
	if len(changes) != 2 {
		t.Fatalf("Diff=%+v, want 2 changes", changes)
	}
	if changes[0].Channel != "a" || changes[1].Channel != "c" {
		t.Fatalf("Diff channels: %v %v", changes[0].Channel, changes[1].Channel)
	}
	if changes[0].New.Servers[0] != "s2" {
		t.Fatalf("change a: %+v", changes[0])
	}
}

func TestDiffNoFalsePositiveOnFallbackMaterialization(t *testing.T) {
	old := New("s1", "s2")
	next := old.Clone()
	ch := "some-channel"
	home := next.Home(ch)
	// Materialize the existing fallback mapping explicitly: nothing moved.
	next.Set(ch, Entry{Strategy: StrategySingle, Servers: []ServerID{home}})
	if changes := next.Diff(old); len(changes) != 0 {
		t.Fatalf("materializing fallback reported a change: %+v", changes)
	}
}

func TestDiffServerSetOrderInsensitive(t *testing.T) {
	old := New("s1", "s2")
	old.Set("r", Entry{Strategy: StrategyAllSubscribers, Servers: []ServerID{"s1", "s2"}})
	next := old.Clone()
	next.Set("r", Entry{Strategy: StrategyAllSubscribers, Servers: []ServerID{"s2", "s1"}})
	if changes := next.Diff(old); len(changes) != 0 {
		t.Fatalf("replica order reported as change: %+v", changes)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := New("s1", "s2")
	p.Version = 7
	p.Set("hot", Entry{Strategy: StrategyAllPublishers, Servers: []ServerID{"s1", "s2"}})
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || len(got.Servers) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	e, explicit := got.Lookup("hot")
	if !explicit || e.Strategy != StrategyAllPublishers || len(e.Servers) != 2 {
		t.Fatalf("decoded entry %+v", e)
	}
	// Ring still works after decode (ringOnce not serialized).
	if got.Home("anything") == "" {
		t.Fatal("decoded plan ring broken")
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	tests := []string{
		`{"version":1,"servers":["s1"],"channels":{"c":{"strategy":0,"servers":["s1"]}}}`,
		`{"version":1,"servers":["s1"],"channels":{"c":{"strategy":1,"servers":[]}}}`,
		`{"version":1,"servers":["s1"],"channels":{"c":{"strategy":1,"servers":["s1",""]}}}`,
		`{"version":1,"servers":["s1",""],"ringServers":["s1"]}`,
		`{"version":1,"servers":["s1"],"ringServers":["s1",""]}`,
		`not json`,
	}
	for _, data := range tests {
		if _, err := Unmarshal([]byte(data)); err == nil {
			t.Fatalf("invalid plan %q decoded without error", data)
		}
	}
}

func TestStickyIndexUniform(t *testing.T) {
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[stickyIndex("channel", "client-"+string(rune(i)), 4)]++
	}
	for i, c := range counts {
		if c < 600 || c > 1400 {
			t.Fatalf("sticky index skewed: replica %d got %d of 4000", i, c)
		}
	}
}

func TestStrategyStringAndValid(t *testing.T) {
	if StrategySingle.String() != "single" ||
		StrategyAllSubscribers.String() != "all-subscribers" ||
		StrategyAllPublishers.String() != "all-publishers" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(0).Valid() || Strategy(9).Valid() {
		t.Fatal("invalid strategies reported valid")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy has empty name")
	}
}

func TestLookupQuickFallbackAlwaysActiveServer(t *testing.T) {
	p := New("s1", "s2", "s3", "s4")
	f := func(ch string) bool {
		e, _ := p.Lookup(ch)
		return len(e.Servers) == 1 && p.HasServer(e.Servers[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanString(t *testing.T) {
	p := New("s1")
	p.Version = 3
	if got := p.String(); got != "plan{v3 servers=1 channels=0}" {
		t.Fatalf("String=%q", got)
	}
}
