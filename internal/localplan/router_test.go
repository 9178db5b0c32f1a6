package localplan

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/dynamoth/dynamoth/internal/plan"
)

// down is a network in which the listed servers are unreachable.
type down map[plan.ServerID]bool

func (d down) reach(server, _ plan.ServerID) bool { return !d[server] }

// homedOn returns a channel (with the given prefix) whose consistent-hash
// home on ring is server.
func homedOn(t *testing.T, ring []plan.ServerID, server plan.ServerID, prefix string) string {
	t.Helper()
	p := plan.New(ring...)
	for i := 0; i < 10000; i++ {
		if ch := fmt.Sprintf("%s%d", prefix, i); p.Home(ch) == server {
			return ch
		}
	}
	t.Fatalf("no %s* channel homes on %s", prefix, server)
	return ""
}

// standIn is the routing rule restated: the first server of channel's ring
// walk that is up and not already used.
func standIn(ring []plan.ServerID, channel string, net down, used ...plan.ServerID) plan.ServerID {
	for _, cand := range plan.New(ring...).Ring().LookupN(channel, standInWalk) {
		if !net[cand] && !slices.Contains(used, cand) {
			return cand
		}
	}
	return ""
}

func servers(s ...plan.ServerID) []plan.ServerID { return s }

func TestRouter(t *testing.T) {
	ring := servers("s1", "s2", "s3")
	inbox := homedOn(t, ring, "s1", "__dynamoth.inbox.")
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, r *Router, ch string)
	}{
		{"unreachable target gets the first reachable ring successor", func(t *testing.T, r *Router, ch string) {
			net := down{"s1": true}
			want := servers(standIn(ring, ch, net))
			if got := r.Subscribe(ch, epoch, net.reach); !reflect.DeepEqual(got, want) {
				t.Fatalf("Subscribe = %v, want %v", got, want)
			}
			if got, _ := r.Servers(ch); !reflect.DeepEqual(got, want) {
				t.Fatalf("table records %v, want the stand-in %v", got, want)
			}
		}},
		{"a stand-in never duplicates a target", func(t *testing.T, r *Router, ch string) {
			net := down{"s1": true}
			first := standIn(ring, ch, net)
			// The reachable target comes first, so the unreachable one must
			// take the next successor rather than the same server twice.
			r.Learn(ch, plan.Entry{Strategy: plan.StrategyAllSubscribers, Servers: servers(first, "s1")}, 2, false, epoch, net.reach)
			want := servers(first, standIn(ring, ch, net, first))
			if got := r.Subscribe(ch, epoch, net.reach); !reflect.DeepEqual(got, want) {
				t.Fatalf("Subscribe = %v, want %v", got, want)
			}
		}},
		{"unsubscribe leaves the stand-in, not the target", func(t *testing.T, r *Router, ch string) {
			net := down{"s1": true}
			placed := r.Subscribe(ch, epoch, net.reach)
			if got := r.Unsubscribe(ch); !reflect.DeepEqual(got, placed) || slices.Contains(got, "s1") {
				t.Fatalf("Unsubscribe = %v, want %v", got, placed)
			}
			if _, ok := r.Servers(ch); ok {
				t.Fatal("channel still in the table")
			}
		}},
		{"a switch moves new servers first and drops the old", func(t *testing.T, r *Router, ch string) {
			r.Subscribe(ch, epoch, down{}.reach)
			add, drop, moved := r.Learn(ch, plan.Entry{Strategy: plan.StrategySingle, Servers: servers("s2")}, 3, true, epoch, down{}.reach)
			if !moved || !reflect.DeepEqual(add, servers("s2")) || !reflect.DeepEqual(drop, servers("s1")) {
				t.Fatalf("Learn = add %v drop %v moved %v, want [s2] [s1] true", add, drop, moved)
			}
		}},
		{"a switch onto servers already held changes nothing", func(t *testing.T, r *Router, ch string) {
			r.Subscribe(ch, epoch, down{}.reach)
			add, drop, moved := r.Learn(ch, plan.Entry{Strategy: plan.StrategySingle, Servers: servers("s1")}, 3, true, epoch, down{}.reach)
			if !moved || add != nil || drop != nil {
				t.Fatalf("Learn = add %v drop %v moved %v, want nothing to do", add, drop, moved)
			}
		}},
		{"a wrong-server only teaches the route", func(t *testing.T, r *Router, ch string) {
			r.Subscribe(ch, epoch, down{}.reach)
			if add, drop, moved := r.Learn(ch, plan.Entry{Strategy: plan.StrategySingle, Servers: servers("s2")}, 3, false, epoch, down{}.reach); moved || add != nil || drop != nil {
				t.Fatalf("Learn = add %v drop %v moved %v, want a lesson only", add, drop, moved)
			}
			if e, v, _ := r.plan.Peek(ch); v != 3 || e.Servers[0] != "s2" {
				t.Fatalf("route not learned: %+v v%d", e, v)
			}
			if got, _ := r.Servers(ch); !reflect.DeepEqual(got, servers("s1")) {
				t.Fatalf("subscription moved to %v", got)
			}
		}},
		{"a stale version is ignored", func(t *testing.T, r *Router, ch string) {
			r.Subscribe(ch, epoch, down{}.reach)
			r.Learn(ch, plan.Entry{Strategy: plan.StrategySingle, Servers: servers("s2")}, 5, true, epoch, down{}.reach)
			if add, drop, moved := r.Learn(ch, plan.Entry{Strategy: plan.StrategySingle, Servers: servers("s3")}, 4, true, epoch, down{}.reach); moved || add != nil || drop != nil {
				t.Fatalf("stale Learn = add %v drop %v moved %v", add, drop, moved)
			}
			if got, _ := r.Servers(ch); !reflect.DeepEqual(got, servers("s2")) {
				t.Fatalf("servers = %v, want [s2]", got)
			}
		}},
		{"lost returns what the server held, sorted, the inbox included", func(t *testing.T, r *Router, ch string) {
			b, a := homedOn(t, ring, "s1", "b-"), homedOn(t, ring, "s1", "a-")
			elsewhere := homedOn(t, ring, "s2", "c-")
			for _, c := range []string{inbox, b, ch, elsewhere, a} {
				r.Subscribe(c, epoch, down{}.reach)
			}
			want := []string{inbox, a, b, ch}
			slices.Sort(want)
			if got := r.Lost("s1"); !reflect.DeepEqual(got, want) {
				t.Fatalf("Lost(s1) = %v, want %v", got, want)
			}
		}},
		{"repair asks survivors again and drops the failed server", func(t *testing.T, r *Router, ch string) {
			r.Learn(ch, plan.Entry{Strategy: plan.StrategyAllSubscribers, Servers: servers("s1", "s2")}, 2, false, epoch, down{}.reach)
			r.Subscribe(ch, epoch, down{}.reach)
			net := down{"s1": true}
			add, drop := r.Repair(ch, net.reach)
			if !slices.Contains(add, "s2") || slices.Contains(add, "s1") || !reflect.DeepEqual(drop, servers("s1")) {
				t.Fatalf("Repair = add %v drop %v, want s2 asked again and [s1] dropped", add, drop)
			}
		}},
		{"a ring move re-homes the inbox", func(t *testing.T, _ *Router, _ string) {
			grown := append(servers("s4"), ring...)
			moved := homedOn(t, grown, "s4", "__dynamoth.inbox.")
			r := NewRouter(New(ring, 0), moved)
			from := r.Subscribe(moved, epoch, down{}.reach)
			add, drop := r.Ring(grown, 2, down{}.reach)
			if !reflect.DeepEqual(add, servers("s4")) || !reflect.DeepEqual(drop, from) {
				t.Fatalf("Ring = add %v drop %v, want [s4] %v", add, drop, from)
			}
			if add, drop := r.Ring(ring, 2, down{}.reach); add != nil || drop != nil {
				t.Fatalf("same-version Ring = add %v drop %v", add, drop)
			}
		}},
		{"an exhausted ring places nothing and keeps the record", func(t *testing.T, r *Router, ch string) {
			if got := r.Subscribe(ch, epoch, down{"s1": true, "s2": true, "s3": true}.reach); got != nil {
				t.Fatalf("Subscribe = %v with every server down", got)
			}
			if _, ok := r.Servers(ch); ok {
				t.Fatal("an unplaced subscription was recorded")
			}
			r.Subscribe(ch, epoch, down{}.reach)
			if add, drop := r.Repair(ch, down{"s1": true, "s2": true, "s3": true}.reach); add != nil || drop != nil {
				t.Fatalf("Repair = add %v drop %v with every server down", add, drop)
			}
			if got, _ := r.Servers(ch); !reflect.DeepEqual(got, servers("s1")) {
				t.Fatalf("record = %v after a failed repair, want [s1]", got)
			}
		}},
		{"publish uses the same stand-ins", func(t *testing.T, r *Router, ch string) {
			net := down{"s1": true}
			got, version := r.Publish(ch, epoch, nil, net.reach)
			if want := servers(standIn(ring, ch, net)); !reflect.DeepEqual(got, want) || version != 0 {
				t.Fatalf("Publish = %v v%d, want %v v0", got, version, want)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, NewRouter(New(ring, 0), inbox), homedOn(t, ring, "s1", "room-"))
		})
	}
}
