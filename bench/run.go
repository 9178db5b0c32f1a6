package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"syscall"
	"time"
)

// runOpts selects what one workload run does.
type runOpts struct {
	nodeBin string
	seed    int64
	seconds float64 // measured time: cruise + sat + ramp
	setups  int     // set-ups per run; setup_s is their median
	outDir  string  // where a traced run writes its spans
}

// result is one workload run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	// Invalid lists the validity gates that tripped; a run with any is not
	// a measurement.
	Invalid []string `json:"invalid,omitempty"`
	// Detail carries what a reader needs to trust the metrics: sample
	// counts, failure breakdown, generator health.
	Detail map[string]any `json:"detail"`

	// slowConsumerDrops is how many of the generator's subscribers the node
	// had disconnected for not reading when the books were closed.
	slowConsumerDrops uint64
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Invalid) == 0 }

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// phaseTimes is how long each measured phase runs.
type phaseTimes struct{ cruise, sat, ramp time.Duration }

// Shares of the phases' time each measured phase gets.
const (
	cruiseShare = 0.40
	satShare    = 0.25
	rampShare   = 0.35
	settleTime  = 500 * time.Millisecond
)

// phasesFor splits seconds of measuring over cruise, sat and ramp.
func phasesFor(seconds float64) phaseTimes {
	return phaseTimes{share(seconds, cruiseShare), share(seconds, satShare), share(seconds, rampShare)}
}

func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// periodic is the cruise schedule: evenly spaced arrivals at rate per second.
func periodic(rate float64) func(uint64) time.Duration {
	return func(i uint64) time.Duration {
		return time.Duration(float64(i) * float64(time.Second) / rate)
	}
}

// runWorkload runs one workload end to end against a fresh node and
// returns its end-to-end metrics.
func runWorkload(w workload, o runOpts) (*result, error) {
	res := &result{Workload: w.Name, Metrics: map[string]metric{}, Detail: map[string]any{}}

	// Set-ups are timed in four batches — before the phases and after each
	// of them — because the machine's speed moves in steps some seconds
	// apart: sixteen set-ups in one second share one level, and the median
	// of a run then carries that level, not the set-up's cost. Only the last
	// set-up of the first batch is kept, warmed up and measured on; the
	// others boot a node of their own and close it again.
	var setups []float64
	timeSetups := func(n int) (g *gen, err error) {
		for i := 0; i < n; i++ {
			if g != nil {
				g.close()
			}
			var took time.Duration
			if g, took, err = setup(w, o.nodeBin, o.seed); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, took.Seconds())
		}
		return g, nil
	}
	later := o.setups / 4
	g, err := timeSetups(o.setups - 3*later)
	if err != nil {
		return nil, err
	}
	defer g.close()
	if err := g.warmUp(); err != nil {
		return nil, err
	}
	err = g.runPhases(phasesFor(o.seconds), res, func(phaseID, cruiseResult) error {
		extra, err := timeSetups(later)
		if extra != nil {
			extra.close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Detail["setup_readings_s"] = slices.Clone(setups)
	res.set("setup_s", median(setups), "s")
	// The wall-clock readings carry no bound (README.md, "Known limits"):
	// every run reports them, and the ledger of the traced run lists them.
	unbounded := map[string]metric{}
	for _, m := range wallClockMetrics {
		unbounded[m.Name] = res.Metrics[m.Name]
		delete(res.Metrics, m.Name)
	}
	res.Detail["wall_clock"] = unbounded
	return res, checkEmitted(res.Metrics, endToEndMetrics)
}

// runPhases drives settle, cruise, sat and ramp on a set-up generator and
// books every reading and failure into res. after, when set, runs once each
// phase has ended and been drained, with the node idle: after cruise is
// where the traced run does its work on the live node, before the ramp has
// overloaded anything.
func (g *gen) runPhases(t phaseTimes, res *result, after func(ended phaseID, cruise cruiseResult) error) error {
	if after == nil {
		after = func(phaseID, cruiseResult) error { return nil }
	}
	if err := g.settle(); err != nil {
		return err
	}
	cr, err := g.cruisePhase(t.cruise, res)
	if err != nil {
		return err
	}
	if err := after(phCruise, cr); err != nil {
		return err
	}
	if err := g.satPhase(t.sat, res); err != nil {
		return err
	}
	// The books on cruise + sat are closed before the ramp is allowed to
	// overload anything.
	g.closeBooks(res)
	if err := after(phSat, cr); err != nil {
		return err
	}
	g.rampPhase(t.ramp, res)
	if !g.node.Alive() {
		res.invalid("node exited early")
		return nil
	}
	if kb, err := procStatusKB(g.node.Pid(), "VmHWM"); err == nil {
		res.Detail["node_rss_peak_mb"] = float64(kb) / 1024
	}
	return after(phRamp, cr)
}

// settle is a short unmeasured open-loop run-in at the cruise rate.
func (g *gen) settle() error {
	g.openLoop(phSettle, periodic(g.w.CruiseRate), settleTime, false, nil)
	if missing := g.drainPhase(phSettle, 5*time.Second); missing != 0 {
		return fmt.Errorf("settle: %d deliveries missing (%s)", missing, g.lossReport())
	}
	return nil
}

// cruisePhase runs the fixed-rate open loop and books its readings: the two
// latency metrics, the node's CPU per delivery, and its resident set.
func (g *gen) cruisePhase(dur time.Duration, res *result) (cruiseResult, error) {
	cr := g.cruise(dur, periodic(g.w.CruiseRate))
	res.set("latency_p50_us", cr.p50us, "us")
	res.set("latency_p99_us", cr.p99us, "us")
	res.set("node_cpu_us_per_delivery", cr.nodeCPUus, "us")
	res.Detail["cruise"] = cr.detail
	if sent := uint64(cr.sent); float64(g.behind) > lateShare*float64(sent) {
		// Reported, not fatal: latency counts from the intended instant, so
		// a late sender makes readings worse, never better, and on these
		// machines a vCPU stolen for a second is weather, not a broken run.
		res.Detail["late_generator"] = fmt.Sprintf("%d of %d cruise sends left over %v late", g.behind, sent, behindLimit)
		fmt.Fprintf(os.Stderr, "bench: %s: warning: %s\n", g.w.Name, res.Detail["late_generator"])
	}
	// Resident set at a point every run reaches with the same publish
	// count, after a forced GC: the node's live set, not how far the heap
	// happened to have grown since the collector last ran.
	if err := forceNodeGC(g.node.AdminAddr); err != nil {
		return cr, err
	}
	rss, err := procStatusKB(g.node.Pid(), "VmRSS")
	if err != nil {
		return cr, err
	}
	res.set("node_rss_mb", float64(rss)/1024, "MiB")
	return cr, nil
}

// satPhase runs the closed loop and books sat_deliveries_per_s.
func (g *gen) satPhase(dur time.Duration, res *result) error {
	cpu0, _ := procCPU(g.node.Pid())
	self0 := selfCPU()
	start := g.since()
	if err := g.closedLoop(phSat, 0, dur); err != nil {
		return err
	}
	g.drainPhase(phSat, 5*time.Second)
	wall := g.since() - start
	cpu1, _ := procCPU(g.node.Pid())
	self1 := selfCPU()
	pc := &g.phases[phSat]
	delivered := pc.delivered.Load()
	res.set("sat_deliveries_per_s", float64(delivered)/wall.Seconds(), "deliveries/s")
	res.Detail["sat"] = map[string]any{
		"publishes": pc.sent.Load(), "deliveries": delivered, "wall_s": wall.Seconds(),
		"node_cpu_s": (cpu1 - cpu0).Seconds(), "gen_cpu_s": (self1 - self0).Seconds(),
	}
	if g.mux != nil {
		if err := g.mux.err(); err != nil {
			return fmt.Errorf("raw receiver failed before the ramp: %w", err)
		}
	}
	return nil
}

// closeBooks counts what cruise and sat attempted and what failed, after
// both have been drained: publish errors, deliveries still missing,
// duplicate or out-of-order deliveries, unparsable payloads, missing churn
// acks.
func (g *gen) closeBooks(res *result) {
	var pubErrs, reordered, missing uint64
	for _, ph := range []phaseID{phCruise, phSat} {
		pc := &g.phases[ph]
		res.Attempted += pc.sent.Load()
		pubErrs += pc.pubErrs.Load()
		reordered += pc.reordered.Load()
		missing += uint64(max(0, pc.expected.Load()-pc.delivered.Load()))
	}
	bad := g.badStamp.Load()
	var churnMissing uint64
	if g.churn != nil {
		// Acks trail the commands by one round trip.
		want := 2 * g.churnPairs
		for deadline := time.Now().Add(2 * time.Second); g.churn.acks.Load() < want && time.Now().Before(deadline); {
			time.Sleep(200 * time.Microsecond)
		}
		churnMissing = want - min(want, g.churn.acks.Load())
		res.Attempted += g.churnPairs
		res.Detail["churn_pairs"] = g.churnPairs
	}
	res.Failed += pubErrs + missing + reordered + bad + churnMissing
	res.Detail["failures"] = map[string]uint64{
		"publish_errors": pubErrs, "missing_deliveries": missing, "duplicate_or_out_of_order": reordered,
		"unparsable_stamps": bad, "missing_churn_acks": churnMissing,
	}
	if missing > 0 {
		res.Detail["loss_report"] = g.lossReport()
	}
	if fams, err := scrapeFamilies(g.node.AdminAddr, "dynamoth_broker_dropped_total"); err == nil {
		res.slowConsumerDrops = uint64(fams["dynamoth_broker_dropped_total"])
		res.Detail["node_slow_consumer_drops"] = res.slowConsumerDrops
	}
	if reordered+bad > 0 {
		res.invalid("%d duplicate/out-of-order and %d unparsable deliveries", reordered, bad)
	}
}

// rampPhase runs the ramp up to its knee and books slo_rate_msgs_per_s.
func (g *gen) rampPhase(dur time.Duration, res *result) {
	knee, detail := g.ramp(ramp{lo: g.w.RampLo, hi: g.w.RampHi, dur: dur})
	res.set("slo_rate_msgs_per_s", knee, "msgs/s")
	res.Detail["ramp"] = detail
}

// lateShare is the share of cruise sends that may leave more than
// behindLimit late before the run's report carries a late_generator warning.
const lateShare = 0.001

type cruiseResult struct {
	p50us, p99us float64
	nodeCPUus    float64
	genCPUus     float64
	lagP99us     float64
	sent         uint64 // publishes of this cruise
	deliveries   int64
	detail       map[string]any
}

// cruise runs the fixed-rate open-loop phase and digests its latencies.
func (g *gen) cruise(dur time.Duration, at func(uint64) time.Duration) cruiseResult {
	pc := &g.phases[phCruise]
	sent0, delivered0 := pc.sent.Load(), pc.delivered.Load()
	g.lags = g.lags[:0]
	g.behind = 0
	l := &latWindows{start: g.since(), win: make([]latWindow, int(math.Ceil(dur.Seconds()/cruiseWindow.Seconds())))}
	g.lat.Store(l)
	cpu0, _ := procCPU(g.node.Pid())
	self0 := selfCPU()
	g.openLoop(phCruise, at, dur, true, nil)
	g.drainPhase(phCruise, 5*time.Second)
	cpu1, _ := procCPU(g.node.Pid())
	self1 := selfCPU()
	g.lat.Store(nil)

	// Only whole windows count: a short last window has too few samples
	// beyond its p99.
	full := int(dur / cruiseWindow)
	if full == 0 {
		full = len(l.win)
	}
	var all []uint32
	windows := make([][]uint32, 0, full)
	minSamples := math.MaxInt
	for i := range l.win[:full] {
		s := l.win[i].samples
		windows = append(windows, s)
		all = append(all, s...)
		minSamples = min(minSamples, len(s))
	}
	slices.Sort(all)
	slices.Sort(g.lags)
	toUs := func(u float64) float64 { return u * latUnit / 1e3 }
	delivered := pc.delivered.Load() - delivered0
	r := cruiseResult{
		p50us:      toUs(float64(quantile(all, 0.5))),
		p99us:      toUs(windowP99Median(windows)),
		lagP99us:   toUs(float64(quantile(g.lags, 0.99))),
		sent:       pc.sent.Load() - sent0,
		deliveries: delivered,
	}
	if delivered > 0 {
		r.nodeCPUus = float64((cpu1 - cpu0).Microseconds()) / float64(delivered)
		r.genCPUus = float64((self1 - self0).Microseconds()) / float64(delivered)
	}
	r.detail = map[string]any{
		"publishes": r.sent, "deliveries": delivered,
		"latency_samples": len(all), "p99_windows": full, "min_samples_per_window": minSamples,
		"send_lag_p50_us": toUs(float64(quantile(g.lags, 0.5))), "send_lag_p99_us": r.lagP99us,
		"behind_schedule": g.behind, "node_cpu_s": (cpu1 - cpu0).Seconds(), "gen_cpu_s": (self1 - self0).Seconds(),
	}
	return r
}

// ramp raises the offered rate until the SLO breaks and returns the offered
// rate at the knee (the top of the ramp when it never breaks).
func (g *gen) ramp(r ramp) (sloRate float64, detail map[string]any) {
	nWin := int(r.dur / rampWidth)
	due := make([]uint64, nWin+1)
	// Pre-walk the schedule on a copy of the channel stream so each window
	// knows what it is owed even if the sender never gets to send it.
	walk := g.rnd
	for i := uint64(0); ; i++ {
		off := r.at(i)
		if off >= r.dur {
			break
		}
		due[int(off/rampWidth)] += uint64(g.expect[g.pick.draw(&walk)])
	}
	win := &rampCounts{start: g.since(), win: make([]rampCount, nWin+1)}
	g.rampWin.Store(win)
	var seen []rampWindow
	evaluate := func(now time.Duration) bool {
		for len(seen) < nWin && now-win.start >= time.Duration(len(seen)+1)*rampWidth+rampGrace {
			i := len(seen)
			seen = append(seen, rampWindow{
				Due: due[i], Delivered: win.win[i].delivered.Load(), Slow: win.win[i].slow.Load(),
			})
		}
		return kneeWindow(seen) >= 0
	}
	g.openLoop(phRamp, r.at, time.Duration(nWin)*rampWidth, false, evaluate)
	if kneeWindow(seen) < 0 {
		// The ramp ran to its end; give the last windows their grace.
		sleepFor(rampGrace)
		evaluate(g.since())
	}
	g.drainPhase(phRamp, 2*time.Second)
	g.rampWin.Store(nil)
	knee := kneeWindow(seen)
	sloRate = r.hi
	if knee >= 0 {
		sloRate = r.rateAt(time.Duration(knee) * rampWidth)
	}
	pc := &g.phases[phRamp]
	detail = map[string]any{
		"windows_evaluated": len(seen), "knee_window": knee,
		"publishes": pc.sent.Load(), "deliveries": pc.delivered.Load(),
	}
	return sloRate, detail
}
