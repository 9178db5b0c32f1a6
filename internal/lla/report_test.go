package lla_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/lla"
)

// TestUnmarshalReportRejects feeds the LB reports that any RESP client could
// publish on the report channel. Each would reach the balancer's load ratios
// as a negative or unrepresentable number, or under no server's name.
func TestUnmarshalReportRejects(t *testing.T) {
	const ch = `{"channel":"c","publishers":1,"publications":2,"subscribers":3,"messagesSent":6,"bytesIn":200,"bytesOut":600}`
	valid := `{"server":"pub1","seq":1,"units":[{"unit":0,"channels":[` + ch + `]}],"maxOutgoingBps":1250000,"measuredOutgoingBps":1000}`
	if _, err := lla.UnmarshalReport([]byte(valid)); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for _, tc := range []struct{ name, from, to string }{
		{"empty server", `"server":"pub1"`, `"server":""`},
		{"no server", `"server":"pub1",`, ``},
		{"negative measured bandwidth", `"measuredOutgoingBps":1000`, `"measuredOutgoingBps":-1e6`},
		{"negative capacity", `"maxOutgoingBps":1250000`, `"maxOutgoingBps":-1`},
		{"unrepresentable ratio", `"maxOutgoingBps":1250000,"measuredOutgoingBps":1000`, `"maxOutgoingBps":1e-300,"measuredOutgoingBps":1e300`},
		{"negative publishers", `"publishers":1`, `"publishers":-1`},
		{"negative publications", `"publications":2`, `"publications":-2`},
		{"negative subscribers", `"subscribers":3`, `"subscribers":-3`},
		{"negative deliveries", `"messagesSent":6`, `"messagesSent":-6`},
		{"negative bytes in", `"bytesIn":200`, `"bytesIn":-200`},
		{"negative bytes out", `"bytesOut":600`, `"bytesOut":-600`},
		{"negative overflow", `"channels":[` + ch + `]`, `"channels":[],"overflow":{"channel":"+overflow","bytesOut":-1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := strings.Replace(valid, tc.from, tc.to, 1)
			if bad == valid {
				t.Fatalf("row does not change the report")
			}
			if r, err := lla.UnmarshalReport([]byte(bad)); err == nil {
				t.Fatalf("accepted %+v", r)
			}
		})
	}
}

// FuzzUnmarshalReport: decoding never panics, every accepted report survives
// a Marshal round trip, and the balancer's view of it has a finite,
// non-negative load ratio.
func FuzzUnmarshalReport(f *testing.F) {
	f.Add([]byte(`{"server":"pub1","seq":1,"units":[{"unit":0,"channels":[{"channel":"c","publishers":1,"publications":2,"subscribers":3,"messagesSent":6,"bytesIn":200,"bytesOut":600}],"overflow":{"channel":"+overflow","bytesOut":5}}],"maxOutgoingBps":1250000,"measuredOutgoingBps":1000}`))
	f.Add([]byte(`{"server":"pub2","maxOutgoingBps":1e-300,"measuredOutgoingBps":1e300}`))
	f.Add([]byte(`{"server":"pub3","measuredOutgoingBps":-1}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := lla.UnmarshalReport(data)
		if err != nil {
			return
		}
		wire, err := r.Marshal()
		if err != nil {
			t.Fatalf("accepted report does not marshal: %v", err)
		}
		again, err := lla.UnmarshalReport(wire)
		if err != nil {
			t.Fatalf("accepted report rejected after a round trip: %v\n%s", err, wire)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("round trip changed the report:\n%+v\n%+v", r, again)
		}
		st := balancer.NewState(5)
		st.AddReport(r)
		for _, sl := range st.Snapshot() {
			if ratio := sl.Ratio(); ratio < 0 || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
				t.Fatalf("server %q has load ratio %v", sl.Server, ratio)
			}
		}
	})
}
