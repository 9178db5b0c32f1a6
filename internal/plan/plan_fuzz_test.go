package plan

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzPlanUnmarshal holds Unmarshal to what a dispatcher relies on when it
// installs a plan off the wire: an accepted plan names no empty server, it
// survives Marshal→Unmarshal with its version and entries intact, and the
// lookups every publication makes never panic on it. The seeds run in
// tier-1; `go test -fuzz FuzzPlanUnmarshal ./internal/plan/` explores.
func FuzzPlanUnmarshal(f *testing.F) {
	p := New("s1", "s2")
	p.Version = 7
	p.Set("hot", Entry{Strategy: StrategyAllSubscribers, Servers: []ServerID{"s1", "s3"}})
	p.Set("wide", Entry{Strategy: StrategyAllPublishers, Servers: []ServerID{"s2", "s3"}})
	valid, err := p.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		`{"version":1,"servers":["s1"]}`,
		`{"version":2,"servers":["s1"],"ringServers":[]}`,
		`{"version":3,"servers":[],"channels":{"c":{"strategy":1,"servers":["s9"]}}}`,
		`{"version":1,"servers":["s1"],"channels":{"c":{"strategy":1,"servers":[""]}}}`,
		`{"version":1,"servers":[""],"ringServers":["s1"]}`,
		`{"version":1,"servers":["s1"],"ringServers":["s1",""]}`,
		`{"version":1,"servers":["s1"],"channels":{"c":{"strategy":4,"servers":["s1"]}}}`,
		`{"version":-1}`,
		`null`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		if slices.Contains(p.Servers, "") || slices.Contains(p.RingServers, "") {
			t.Fatalf("accepted a plan with an empty server: %q", data)
		}
		for ch, e := range p.Channels {
			if slices.Contains(e.Servers, "") {
				t.Fatalf("accepted channel %q with an empty server: %q", ch, data)
			}
		}
		enc, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted plan does not marshal: %v", err)
		}
		q, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decoding %q: %v", enc, err)
		}
		if q.Version != p.Version || !reflect.DeepEqual(q.Channels, p.Channels) {
			t.Fatalf("round trip changed the plan: %+v → %+v", p, q)
		}
		channels := []string{"", "a", "room.lobby"}
		for ch := range p.Channels {
			channels = append(channels, ch)
		}
		for _, ch := range channels {
			p.Lookup(ch)
			p.Holds(ch, "s1")
			p.Home(ch)
			p.SubscribeTargets(ch, "client")
		}
	})
}
