package balancer

import "sort"

// estimator tracks the estimated per-server outgoing byte rate of a
// candidate plan while the rebalancer moves channels around (Algorithm 2's
// estimateLR). It starts from the measured loads and is adjusted on every
// tentative migration.
type estimator struct {
	maxBps  map[string]float64
	estBps  map[string]float64
	perChan map[string]map[string]float64 // server -> channel -> bytes/s
	servers []string
}

// newEstimator seeds an estimator from a load snapshot. Servers in active
// that never reported yet are included as idle with defaultMaxBps capacity
// (a freshly booted node).
func newEstimator(loads []ServerLoad, active []string, defaultMaxBps float64) *estimator {
	e := &estimator{
		maxBps:  make(map[string]float64, len(active)),
		estBps:  make(map[string]float64, len(active)),
		perChan: make(map[string]map[string]float64, len(active)),
	}
	for _, s := range active {
		e.maxBps[s] = defaultMaxBps
		e.estBps[s] = 0
		e.perChan[s] = make(map[string]float64)
	}
	for _, l := range loads {
		if _, ok := e.maxBps[l.Server]; !ok {
			continue // stale report from a released server
		}
		if l.MaxBps > 0 {
			e.maxBps[l.Server] = l.MaxBps
		}
		e.estBps[l.Server] = l.MeasuredBps
		for ch, cl := range l.Channels {
			e.perChan[l.Server][ch] = cl.BytesOut
		}
	}
	e.servers = append([]string(nil), active...)
	sort.Strings(e.servers)
	return e
}

// ratio returns the estimated load ratio of a server.
func (e *estimator) ratio(server string) float64 {
	max := e.maxBps[server]
	if max <= 0 {
		return 0
	}
	return e.estBps[server] / max
}

// maxRatio returns the server with the highest estimated load ratio.
func (e *estimator) maxRatio() (string, float64) {
	best, bestR := "", -1.0
	for _, s := range e.servers {
		if r := e.ratio(s); r > bestR {
			best, bestR = s, r
		}
	}
	return best, bestR
}

// minRatio returns the server with the lowest estimated load ratio,
// excluding the named server.
func (e *estimator) minRatio(exclude string) (string, float64) {
	best, bestR := "", -1.0
	for _, s := range e.servers {
		if s == exclude {
			continue
		}
		if r := e.ratio(s); bestR < 0 || r < bestR {
			best, bestR = s, r
		}
	}
	return best, bestR
}

// avgRatio returns the global average load ratio (§III-B4's trigger).
func (e *estimator) avgRatio() float64 {
	if len(e.servers) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range e.servers {
		sum += e.ratio(s)
	}
	return sum / float64(len(e.servers))
}

// channelOut returns channel ch's estimated outgoing byte rate on server.
func (e *estimator) channelOut(server, ch string) float64 {
	return e.perChan[server][ch]
}

// busiestChannelOn returns the channel with the highest byte rate currently
// attributed to server, skipping those for which skip returns true.
func (e *estimator) busiestChannelOn(server string, skip func(string) bool) (string, float64, bool) {
	best, bestOut := "", 0.0
	for ch, out := range e.perChan[server] {
		if skip != nil && skip(ch) {
			continue
		}
		if best == "" || out > bestOut {
			best, bestOut = ch, out
		}
	}
	return best, bestOut, best != ""
}

// migrate moves channel ch's whole contribution from one server to another.
func (e *estimator) migrate(ch, from, to string) {
	out := e.perChan[from][ch]
	delete(e.perChan[from], ch)
	e.estBps[from] -= out
	if e.estBps[from] < 0 {
		e.estBps[from] = 0
	}
	if e.perChan[to] == nil {
		e.perChan[to] = make(map[string]float64)
	}
	e.perChan[to][ch] += out
	e.estBps[to] += out
}

// moveChannel redistributes a channel's total byte rate from one replica set
// to another, splitting it evenly across the new members (used when
// Algorithm 1 changes a channel's replica set).
func (e *estimator) moveChannel(ch string, oldServers, newServers []string, totalOut float64) {
	for _, s := range oldServers {
		if per, ok := e.perChan[s]; ok {
			e.estBps[s] -= per[ch]
			if e.estBps[s] < 0 {
				e.estBps[s] = 0
			}
			delete(per, ch)
		}
	}
	if len(newServers) == 0 {
		return
	}
	share := totalOut / float64(len(newServers))
	for _, s := range newServers {
		if e.perChan[s] == nil {
			e.perChan[s] = make(map[string]float64)
		}
		e.perChan[s][ch] += share
		e.estBps[s] += share
	}
}

// leastLoadedOf returns the member with the lowest estimated ratio.
func (e *estimator) leastLoadedOf(members []string) string {
	best, bestR := "", -1.0
	for _, s := range members {
		if r := e.ratio(s); bestR < 0 || r < bestR {
			best, bestR = s, r
		}
	}
	return best
}

// leastLoadedExcluding returns up to n non-member servers, least loaded
// first.
func (e *estimator) leastLoadedExcluding(members []string, n int) []string {
	in := make(map[string]struct{}, len(members))
	for _, m := range members {
		in[m] = struct{}{}
	}
	candidates := make([]string, 0, len(e.servers))
	for _, s := range e.servers {
		if _, dup := in[s]; !dup {
			candidates = append(candidates, s)
		}
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		return e.ratio(candidates[i]) < e.ratio(candidates[j])
	})
	if n > len(candidates) {
		n = len(candidates)
	}
	return candidates[:n]
}

// dropBusiest removes the n busiest members (§III-B1: "the busiest servers
// will be freed first") and returns the remainder in original order.
func (e *estimator) dropBusiest(members []string, n int) []string {
	type ranked struct {
		server string
		ratio  float64
	}
	rs := make([]ranked, len(members))
	for i, s := range members {
		rs[i] = ranked{s, e.ratio(s)}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].ratio > rs[j].ratio })
	drop := make(map[string]struct{}, n)
	for i := 0; i < n && i < len(rs); i++ {
		drop[rs[i].server] = struct{}{}
	}
	kept := make([]string, 0, len(members)-n)
	for _, s := range members {
		if _, gone := drop[s]; !gone {
			kept = append(kept, s)
		}
	}
	return kept
}
