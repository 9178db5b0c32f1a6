package balancer

import (
	"sort"

	"github.com/dynamoth/dynamoth/internal/buildinfo"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/obs"
)

// Loads snapshots the balancer's per-server metric state (the aggregated LLA
// view the planner sees), sorted by server name.
func (o *Orchestrator) Loads() []ServerLoad {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.core.state.Snapshot()
}

// DetectorStatus reports the failure detector's per-server view. It returns
// nil when detection is disabled.
func (o *Orchestrator) DetectorStatus() []lla.ServerStatus {
	if o.core.detector == nil {
		return nil
	}
	return o.core.detector.Status()
}

// BalancerStatus is the load balancer's /statusz document.
type BalancerStatus struct {
	PlanVersion uint64             `json:"planVersion"`
	PlanServers []string           `json:"planServers"`
	Rebalances  int                `json:"rebalances"`
	Failures    int                `json:"failures"`
	Loads       []ServerLoad       `json:"loads"`
	Detector    []lla.ServerStatus `json:"detector,omitempty"`
	Version     string             `json:"version"`
	GoVersion   string             `json:"goVersion"`
}

// Status snapshots the orchestrator for /statusz.
func (o *Orchestrator) Status() any {
	p := o.Plan()
	servers := make([]string, 0, len(p.Servers))
	for _, s := range p.Servers {
		servers = append(servers, string(s))
	}
	sort.Strings(servers)
	return BalancerStatus{
		PlanVersion: p.Version,
		PlanServers: servers,
		Rebalances:  o.Rebalances(),
		Failures:    o.Failures(),
		Loads:       o.Loads(),
		Detector:    o.DetectorStatus(),
		Version:     buildinfo.Version,
		GoVersion:   buildinfo.GoVersion(),
	}
}

// RegisterMetrics exports the balancer's plan, rebalance, failure, and
// per-server utilization metrics on r. Everything renders on scrape from the
// orchestrator's existing snapshots; no new state is kept.
func (o *Orchestrator) RegisterMetrics(r *obs.Registry) {
	r.Gauge("dynamoth_plan_version",
		"Plan version currently published by the load balancer.",
		func() float64 { return float64(o.Plan().Version) })
	r.Gauge("dynamoth_plan_servers",
		"Servers in the current plan.",
		func() float64 { return float64(len(o.Plan().Servers)) })
	r.Counter("dynamoth_rebalances_total",
		"Plan changes published (rebalances, spawns, and failure repairs).",
		func() uint64 { return uint64(o.Rebalances()) })
	r.Counter("dynamoth_failures_total",
		"Servers declared dead by the detector and evacuated from the plan.",
		func() uint64 { return uint64(o.Failures()) })
	r.GaugeVec("dynamoth_server_utilization_ratio",
		"Per-server load ratio LR_i = M_i/T_i from aggregated LLA reports.",
		"server",
		func() []obs.Sample {
			loads := o.Loads()
			out := make([]obs.Sample, 0, len(loads))
			for _, l := range loads {
				out = append(out, obs.Sample{Label: l.Server, Value: l.Ratio()})
			}
			return out
		})
	r.GaugeVec("dynamoth_server_measured_bps",
		"Per-server measured outgoing bytes/sec M_i from LLA reports.",
		"server",
		func() []obs.Sample {
			loads := o.Loads()
			out := make([]obs.Sample, 0, len(loads))
			for _, l := range loads {
				out = append(out, obs.Sample{Label: l.Server, Value: l.MeasuredBps})
			}
			return out
		})
	r.GaugeVec("dynamoth_server_dead",
		"Failure detector verdict per tracked server (1 = declared dead).",
		"server",
		func() []obs.Sample {
			sts := o.DetectorStatus()
			out := make([]obs.Sample, 0, len(sts))
			for _, s := range sts {
				v := 0.0
				if s.Dead {
					v = 1
				}
				out = append(out, obs.Sample{Label: s.Server, Value: v})
			}
			return out
		})
	buildinfo.Register(r)
	// The flight recorder's derived dynamoth_reconfig_* families ride on the
	// same registry (no-op when the orchestrator has no recorder).
	o.rec.RegisterMetrics(r, "balancer")
}
