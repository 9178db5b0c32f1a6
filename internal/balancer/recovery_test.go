package balancer

import (
	"testing"

	"github.com/dynamoth/dynamoth/internal/plan"
)

func TestRepairPlanEvacuatesToRingSuccessor(t *testing.T) {
	p := plan.New("s1", "s2", "s3")
	p.Version = 4
	p.Set("alpha", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s2"}})
	p.Set("beta", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s1"}})

	next, evacuated, changed := RepairPlan(p, "s2")
	if !changed || evacuated != 1 {
		t.Fatalf("changed=%t evacuated=%d, want true and 1 (alpha)", changed, evacuated)
	}
	if next.Version != 5 {
		t.Fatalf("version=%d, want 5", next.Version)
	}
	if next.HasServer("s2") {
		t.Fatal("dead server still in plan")
	}
	for _, s := range next.RingServers {
		if s == "s2" {
			t.Fatal("dead server still on the ring")
		}
	}
	e, ok := next.Lookup("alpha")
	if !ok {
		t.Fatal("evacuated channel lost its entry")
	}
	if len(e.Servers) != 1 || e.Servers[0] == "s2" {
		t.Fatalf("alpha servers=%v", e.Servers)
	}
	// The substitute must be the channel's first live ring candidate — the
	// same server a failed-over client picks before the new plan arrives.
	want := next.Ring().LookupN("alpha", 2)[0]
	if e.Servers[0] != want {
		t.Fatalf("alpha evacuated to %s, ring successor is %s", e.Servers[0], want)
	}
	// Untouched entries survive verbatim.
	if e, _ := next.Lookup("beta"); len(e.Servers) != 1 || e.Servers[0] != "s1" {
		t.Fatalf("beta servers=%v", e.Servers)
	}
	// Original plan untouched.
	if !p.HasServer("s2") || p.Version != 4 {
		t.Fatal("RepairPlan mutated its input")
	}
}

func TestRepairPlanPreservesReplication(t *testing.T) {
	p := plan.New("s1", "s2", "s3", "s4")
	p.Set("hot", plan.Entry{
		Strategy: plan.StrategyAllSubscribers,
		Servers:  []plan.ServerID{"s1", "s2"},
	})
	next, _, changed := RepairPlan(p, "s2")
	if !changed {
		t.Fatal("unchanged")
	}
	e, _ := next.Lookup("hot")
	if e.Strategy != plan.StrategyAllSubscribers {
		t.Fatalf("strategy=%v", e.Strategy)
	}
	if len(e.Servers) != 2 {
		t.Fatalf("replica count not preserved: %v", e.Servers)
	}
	seen := map[plan.ServerID]bool{}
	for _, s := range e.Servers {
		if s == "s2" {
			t.Fatalf("dead replica retained: %v", e.Servers)
		}
		if seen[s] {
			t.Fatalf("duplicate replica: %v", e.Servers)
		}
		seen[s] = true
	}
	if !seen["s1"] {
		t.Fatalf("surviving replica dropped: %v", e.Servers)
	}
}

func TestRepairPlanNonMemberNoChange(t *testing.T) {
	p := plan.New("s1", "s2")
	next, _, changed := RepairPlan(p, "ghost")
	if changed {
		t.Fatal("repair of a non-member reported changed")
	}
	if next.Version != p.Version+1 {
		t.Fatalf("version=%d", next.Version)
	}
}

func TestRepairPlanLastServerDropsEntries(t *testing.T) {
	p := plan.New("s1")
	p.Set("only", plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{"s1"}})
	next, _, changed := RepairPlan(p, "s1")
	if !changed {
		t.Fatal("unchanged")
	}
	if len(next.Servers) != 0 || len(next.RingServers) != 0 {
		t.Fatalf("servers=%v ring=%v", next.Servers, next.RingServers)
	}
	if _, ok := next.Channels["only"]; ok {
		t.Fatal("entry survived with an empty pool")
	}
}
