package balancer

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dynamoth/dynamoth/internal/plan"
)

// randomSnapshot builds a random but self-consistent cluster state: servers
// with random loads composed of per-channel contributions that sum to the
// measured totals, channels placed where the plan says they are.
func randomSnapshot(rng *rand.Rand, servers, channels int) (*plan.Plan, []ServerLoad) {
	ids := make([]string, servers)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i+1)
	}
	p := plan.New(ids...)
	p.Version = 1 + uint64(rng.Intn(5))

	loads := make([]ServerLoad, servers)
	for i, id := range ids {
		loads[i] = ServerLoad{
			Server:   id,
			MaxBps:   1e6,
			Channels: map[string]ChannelLoad{},
		}
	}
	byID := make(map[string]*ServerLoad, servers)
	for i := range loads {
		byID[loads[i].Server] = &loads[i]
	}

	for c := 0; c < channels; c++ {
		name := fmt.Sprintf("ch-%d", c)
		owner := p.Home(name)
		if rng.Float64() < 0.3 {
			// Explicitly placed somewhere else.
			owner = ids[rng.Intn(len(ids))]
			p.Set(name, plan.Entry{Strategy: plan.StrategySingle, Servers: []plan.ServerID{owner}})
		}
		out := rng.Float64() * 4e5
		sl := byID[owner]
		sl.Channels[name] = ChannelLoad{
			Publications: rng.Float64() * 100,
			Subscribers:  float64(rng.Intn(50)),
			BytesOut:     out,
		}
		sl.MeasuredBps += out
	}
	return p, loads
}

// TestPlannerInvariantsRandomized fuzzes GeneratePlan over random cluster
// states and checks structural invariants of every produced plan.
func TestPlannerInvariantsRandomized(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		servers := 1 + rng.Intn(8)
		channels := rng.Intn(40)
		current, loads := randomSnapshot(rng, servers, channels)

		cfg := DefaultConfig()
		cfg.MaxServers = 8
		pl := NewPlanner(cfg, plan.IsControlChannel, nil, 1e6)
		d := pl.GeneratePlan(current, loads)
		if d.Plan == nil {
			continue
		}
		next := d.Plan

		// Invariant: version strictly increases.
		if next.Version != current.Version+1 {
			t.Fatalf("seed %d: version %d after %d", seed, next.Version, current.Version)
		}
		// Invariant: every explicit entry is valid and names only active
		// servers.
		for ch, e := range next.Channels {
			if !e.Strategy.Valid() || len(e.Servers) == 0 {
				t.Fatalf("seed %d: invalid entry %q=%+v", seed, ch, e)
			}
			seen := map[string]bool{}
			for _, s := range e.Servers {
				if !next.HasServer(s) {
					t.Fatalf("seed %d: entry %q names inactive server %q", seed, ch, s)
				}
				if seen[s] {
					t.Fatalf("seed %d: entry %q has duplicate replica %q", seed, ch, s)
				}
				seen[s] = true
			}
			if e.Strategy == plan.StrategySingle && len(e.Servers) != 1 {
				t.Fatalf("seed %d: single entry with %d servers", seed, len(e.Servers))
			}
		}
		// Invariant: a released server is gone from the active set but the
		// plan maps no channel to it.
		if d.Release != "" {
			if next.HasServer(d.Release) {
				t.Fatalf("seed %d: released server still active", seed)
			}
			for ch, e := range next.Channels {
				for _, s := range e.Servers {
					if s == d.Release {
						t.Fatalf("seed %d: channel %q still on released server", seed, ch)
					}
				}
			}
		}
		// Invariant: the plan round-trips through the control plane.
		data, err := next.Marshal()
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		if _, err := plan.Unmarshal(data); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
	}
}

// TestPlannerTerminatesUnderSaturation: every server overloaded, nothing to
// give — the planner must terminate and ask for capacity, not loop.
func TestPlannerTerminatesUnderSaturation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxServers = 8
	pl := NewPlanner(cfg, nil, nil, 1e6)
	current := plan.New("s1", "s2", "s3")
	loads := []ServerLoad{
		load("s1", 1e6, 1.5e6, map[string]ChannelLoad{"a": {BytesOut: 1.5e6}}),
		load("s2", 1e6, 1.4e6, map[string]ChannelLoad{"b": {BytesOut: 1.4e6}}),
		load("s3", 1e6, 1.3e6, map[string]ChannelLoad{"c": {BytesOut: 1.3e6}}),
	}
	d := pl.GeneratePlan(current, loads)
	if d.Spawn == 0 {
		t.Fatalf("saturated cluster did not request capacity: %+v", d)
	}
}

// TestPlannerCooldownPreventsPingPong: a channel the planner just moved must
// not move again on the very next round even if stale metrics still
// attribute its load to the old server.
func TestPlannerCooldownPreventsPingPong(t *testing.T) {
	cfg := DefaultConfig()
	pl := NewPlanner(cfg, nil, nil, 1e6)
	current := plan.New("s1", "s2")
	names := channelsHomedOn(current, "s1", 2)
	big, rest := names[0], names[1]

	loads := []ServerLoad{
		load("s1", 1e6, 9.5e5, map[string]ChannelLoad{
			big:  {BytesOut: 5e5},
			rest: {BytesOut: 4.5e5},
		}),
		load("s2", 1e6, 0, nil),
	}
	d1 := pl.GeneratePlan(current, loads)
	if d1.Plan == nil {
		t.Fatal("no first plan")
	}
	e, _ := d1.Plan.Lookup(big)
	if e.Servers[0] != "s2" {
		t.Fatalf("big not moved: %v", e.Servers)
	}

	// Stale metrics: traffic still attributed to s1 (plus a bit on s2).
	// Without the cooldown the planner would "move" big again.
	d2 := pl.GeneratePlan(d1.Plan, loads)
	if d2.Plan != nil {
		if e2, _ := d2.Plan.Lookup(big); e2.Servers[0] != "s2" {
			t.Fatalf("cooldown violated: big moved to %v", e2.Servers)
		}
	}
}
