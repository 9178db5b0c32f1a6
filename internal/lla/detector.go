package lla

import (
	"sort"
	"sync"
	"time"
)

// DetectorConfig tunes the failure detector.
type DetectorConfig struct {
	// StaleAfter declares a server suspect when no LLA report arrived for
	// this long (default 4 × DefaultReportEvery, 12 s). Healthy LLAs
	// report unconditionally every ReportEvery, even when idle, so report
	// silence is a strong signal.
	StaleAfter time.Duration
	// ProbeMisses is K: the number of consecutive failed liveness probes
	// that declares a server dead (default 3).
	ProbeMisses int
}

func (c *DetectorConfig) fillDefaults() {
	if c.StaleAfter <= 0 {
		c.StaleAfter = 4 * DefaultReportEvery
	}
	if c.ProbeMisses <= 0 {
		c.ProbeMisses = 3
	}
}

// serverHealth is one server's liveness evidence.
type serverHealth struct {
	lastReport time.Time // last LLA report (initialized to track time)
	misses     int       // consecutive failed probes
	dead       bool      // already declared; sticky until Forget
}

// Detector is the load-balancer-side failure detector: it fuses two
// independent liveness signals — LLA report freshness (the data-plane proof
// that the node's whole stack is alive) and direct probes (the dispatcher's
// RESP PINGs, which survive an idle or wedged LLA) — and declares a server
// dead when either K consecutive probes miss or reports go stale past the
// threshold.
//
// Declarations are sticky: once dead, a server stays dead until Forget (the
// repair path removes it from the plan, so there is nothing to resurrect —
// a replacement is a new server). Detector is safe for concurrent use.
type Detector struct {
	cfg DetectorConfig

	mu      sync.Mutex
	servers map[string]*serverHealth
}

// NewDetector creates a detector.
func NewDetector(cfg DetectorConfig) *Detector {
	cfg.fillDefaults()
	return &Detector{cfg: cfg, servers: make(map[string]*serverHealth)}
}

// Track registers a server if unknown, starting its staleness grace window
// at now. Call it for every server in the current plan before reading
// verdicts, so freshly joined servers are not instantly stale.
func (d *Detector) Track(server string, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.servers[server]; !ok {
		d.servers[server] = &serverHealth{lastReport: now}
	}
}

// ObserveReport records that an LLA report from server arrived at now.
func (d *Detector) ObserveReport(server string, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.servers[server]
	if h == nil {
		h = &serverHealth{}
		d.servers[server] = h
	}
	if now.After(h.lastReport) {
		h.lastReport = now
	}
}

// ObserveProbe records one liveness probe outcome. Probe successes reset the
// consecutive-miss counter but deliberately do not refresh report freshness:
// a reachable node whose reporting stack died is still faulty.
func (d *Detector) ObserveProbe(server string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.servers[server]
	if h == nil {
		return // only probe tracked servers
	}
	if ok {
		h.misses = 0
	} else {
		h.misses++
	}
}

// Misses returns the server's consecutive failed-probe count.
func (d *Detector) Misses(server string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h := d.servers[server]; h != nil {
		return h.misses
	}
	return 0
}

// Dead evaluates every tracked server at now and returns those considered
// dead with the evidence behind each verdict, sorted by name: servers that
// die together are repaired in the same order, with the same intermediate
// plan versions, on every run.
func (d *Detector) Dead(now time.Time) []ServerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []ServerStatus
	for name, h := range d.servers {
		if !h.dead {
			if h.misses >= d.cfg.ProbeMisses || now.Sub(h.lastReport) > d.cfg.StaleAfter {
				h.dead = true
			}
		}
		if h.dead {
			out = append(out, h.status(name))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}

// ServerStatus is one server's liveness evidence, exported for status pages.
type ServerStatus struct {
	Server     string    `json:"server"`
	LastReport time.Time `json:"lastReport"`
	Misses     int       `json:"probeMisses"`
	Dead       bool      `json:"dead"`
}

// Status snapshots every tracked server's verdict evidence, sorted by name.
// Unlike Dead it does not evaluate thresholds or mutate verdicts — it only
// reports what the detector currently believes.
func (d *Detector) Status() []ServerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ServerStatus, 0, len(d.servers))
	for name, h := range d.servers {
		out = append(out, h.status(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}

func (h *serverHealth) status(name string) ServerStatus {
	return ServerStatus{Server: name, LastReport: h.lastReport, Misses: h.misses, Dead: h.dead}
}

// Forget drops a server from the detector (after evacuation, or a graceful
// release).
func (d *Detector) Forget(server string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.servers, server)
}
