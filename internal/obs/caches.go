package obs

import "github.com/dynamoth/dynamoth/internal/hotstate"

// RegisterCaches registers the standard metric families for a set of bounded
// hot-state caches under one prefix (e.g. "dynamoth_broker"):
//
//	<prefix>_hotstate_size{cache="..."}               gauge
//	<prefix>_hotstate_capacity{cache="..."}           gauge
//	<prefix>_hotstate_pinned{cache="..."}             gauge
//	<prefix>_hotstate_hits_total{cache="..."}         counter
//	<prefix>_hotstate_misses_total{cache="..."}       counter
//	<prefix>_hotstate_evictions_total{cache="..."}    counter
//	<prefix>_hotstate_expirations_total{cache="..."}  counter
//
// Stats funcs are read on every scrape — hotstate.Cache.Stats, or any
// compatible snapshot (the LLA accumulator's striped counters use the same
// shape). hotstate cannot register itself without importing obs; this is the
// cycle-free bridge.
func (r *Registry) RegisterCaches(prefix string, caches ...hotstate.NamedStats) {
	caches = append([]hotstate.NamedStats(nil), caches...)
	vec := func(read func(hotstate.Stats) float64) func() []Sample {
		return func() []Sample {
			samples := make([]Sample, 0, len(caches))
			for _, c := range caches {
				samples = append(samples, Sample{Label: c.Name, Value: read(c.Stats())})
			}
			return samples
		}
	}
	r.GaugeVec(prefix+"_hotstate_size", "Entries currently held per bounded hot-state cache.", "cache",
		vec(func(s hotstate.Stats) float64 { return float64(s.Size) }))
	r.GaugeVec(prefix+"_hotstate_capacity", "Configured entry bound per cache (0 = unbounded).", "cache",
		vec(func(s hotstate.Stats) float64 { return float64(s.Capacity) }))
	r.GaugeVec(prefix+"_hotstate_pinned", "Entries exempt from eviction per cache.", "cache",
		vec(func(s hotstate.Stats) float64 { return float64(s.Pinned) }))
	r.CounterVec(prefix+"_hotstate_hits_total", "Cache hits per bounded hot-state cache.", "cache",
		vec(func(s hotstate.Stats) float64 { return float64(s.Hits) }))
	r.CounterVec(prefix+"_hotstate_misses_total", "Cache misses per bounded hot-state cache.", "cache",
		vec(func(s hotstate.Stats) float64 { return float64(s.Misses) }))
	r.CounterVec(prefix+"_hotstate_evictions_total", "Capacity evictions (or cap-overflow folds) per cache.", "cache",
		vec(func(s hotstate.Stats) float64 { return float64(s.Evictions) }))
	r.CounterVec(prefix+"_hotstate_expirations_total", "Sweep drops per cache.", "cache",
		vec(func(s hotstate.Stats) float64 { return float64(s.Expirations) }))
}
