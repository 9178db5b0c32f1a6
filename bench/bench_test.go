package main

import (
	"math"
	"regexp"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/loadgen"
)

func TestRampScheduleMonotoneAndOnRate(t *testing.T) {
	r := ramp{lo: 40000, hi: 140000, dur: 8 * time.Second}
	var prev time.Duration = -1
	var n uint64
	for ; ; n++ {
		at := r.at(n)
		if at >= r.dur {
			break
		}
		if at <= prev && n > 0 {
			t.Fatalf("tick %d at %v is not after tick %d at %v", n, at, n-1, prev)
		}
		prev = at
	}
	// The ramp offers the mean of lo and hi over its length.
	want := (r.lo + r.hi) / 2 * r.dur.Seconds()
	if got := float64(n); math.Abs(got-want)/want > 0.01 {
		t.Errorf("ramp scheduled %v ticks, want %v within 1%%", got, want)
	}
	// And the local rate half way up is the half-way rate.
	mid := r.dur / 2
	count := 0
	for i := uint64(0); i < n; i++ {
		if at := r.at(i); at >= mid-50*time.Millisecond && at < mid+50*time.Millisecond {
			count++
		}
	}
	if got, want := float64(count)/0.1, r.rateAt(mid); math.Abs(got-want)/want > 0.01 {
		t.Errorf("rate at the middle of the ramp is %v, want %v within 1%%", got, want)
	}
}

func TestWindowP99MedianIgnoresOneBadWindow(t *testing.T) {
	window := func(p99 uint32) []uint32 {
		w := make([]uint32, 1000)
		for i := range w {
			w[i] = 100
		}
		for i := 985; i < 1000; i++ {
			w[i] = p99
		}
		return w
	}
	calm := [][]uint32{window(500), window(510), window(490), window(505), window(495)}
	hiccup := [][]uint32{window(500), window(510), window(90000), window(505), window(495)}
	if got := windowP99Median(calm); got != 500 {
		t.Errorf("median of window p99s = %v, want 500", got)
	}
	if got := windowP99Median(hiccup); got != 505 {
		t.Errorf("one window's hiccup moved the estimate to %v, want 505", got)
	}
	if got := windowP99Median([][]uint32{nil, window(500), nil}); got != 500 {
		t.Errorf("empty windows must be skipped, got %v", got)
	}
}

func TestKneeNeedsASustainedBreach(t *testing.T) {
	ok := rampWindow{Due: 10000, Delivered: 10000, Slow: 10}
	slow := rampWindow{Due: 10000, Delivered: 10000, Slow: 150} // p99 over the limit
	lossy := rampWindow{Due: 10000, Delivered: 9980}            // under 99.9% delivered
	for _, w := range []rampWindow{slow, lossy} {
		if !w.breaches() {
			t.Errorf("%+v must breach", w)
		}
	}
	if ok.breaches() {
		t.Errorf("%+v must not breach", ok)
	}
	isolated := []rampWindow{ok, slow, ok, ok, lossy, slow, slow, ok, ok}
	if got := kneeWindow(isolated); got != -1 {
		t.Errorf("breaches shorter than %d windows fired the knee at %d", kneeRun, got)
	}
	sustained := []rampWindow{ok, slow, ok, ok, slow, lossy, slow, slow, slow}
	if got := kneeWindow(sustained); got != 4 {
		t.Errorf("knee at %d, want 4 (first of the sustained run)", got)
	}
}

func TestExpectedDeliveriesZipfAndPatterns(t *testing.T) {
	w, ok := workloadByName("churn_zipf")
	if !ok {
		t.Fatal("no churn_zipf workload")
	}
	tab := w.expectTable()
	cases := map[int]uint8{
		0:    1, // client subscription only
		1:    2, // client + b.c.1*
		7:    2, // client + b.c.*7
		17:   3, // client + both patterns
		255:  1,
		256:  0, // cold, matches nothing: an early-exit publish
		1000: 1, // cold, b.c.1*
		2007: 1, // cold, b.c.*7
		1007: 2, // cold, both
	}
	for ch, want := range cases {
		if tab[ch] != want {
			t.Errorf("channel %d: %d deliveries expected, want %d", ch, tab[ch], want)
		}
	}
	// Zipf(1.0): channel 0 draws twice as often as channel 1, and the 256
	// hot channels carry H(256)/H(8192) of the traffic.
	pick := newChooser(w.Channels, true)
	r := rng{s: 1}
	const draws = 400000
	counts := make([]int, w.Channels)
	for i := 0; i < draws; i++ {
		counts[pick.draw(&r)]++
	}
	if ratio := float64(counts[0]) / float64(counts[1]); math.Abs(ratio-2) > 0.1 {
		t.Errorf("channel 0 / channel 1 = %.3f, want 2", ratio)
	}
	hot := 0
	for _, c := range counts[:256] {
		hot += c
	}
	harmonic := func(n int) (h float64) {
		for i := 1; i <= n; i++ {
			h += 1 / float64(i)
		}
		return h
	}
	if got, want := float64(hot)/draws, harmonic(256)/harmonic(8192); math.Abs(got-want) > 0.01 {
		t.Errorf("hot share %.3f, want %.3f", got, want)
	}
	// The same seed draws the same channels.
	a, b := rng{s: 7}, rng{s: 7}
	for i := 0; i < 1000; i++ {
		if pick.draw(&a) != pick.draw(&b) {
			t.Fatal("channel draws are not a function of the seed")
		}
	}
	fan, _ := workloadByName("fanout_32")
	for ch, n := range fan.expectTable() {
		if n != 32 {
			t.Errorf("fanout_32 channel %d expects %d deliveries, want 32", ch, n)
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := appendPayload(nil, 123456789, 123456999, phSat, 4242, 77, 64)
	if len(p) != 64 {
		t.Fatalf("payload is %d bytes, want 64", len(p))
	}
	intended, ph, ch, seq, ok := parsePayload(p)
	if !ok || intended != 123456789 || ph != phSat || ch != 4242 || seq != 77 {
		t.Errorf("parsed %v %v %v %v %v", intended, ph, ch, seq, ok)
	}
	// The first two fields stay loadgen's stamp format.
	if in, ac, ok := loadgen.ParseStamp(p); !ok || in != 123456789 || ac != 123456999 {
		t.Errorf("loadgen.ParseStamp read %v %v %v", in, ac, ok)
	}
	for _, bad := range [][]byte{nil, []byte("xxxx"), []byte("1 2 3 "), []byte("1 2 9 4 5 "), p[:20]} {
		if _, _, _, _, ok := parsePayload(bad); ok {
			t.Errorf("parsePayload accepted %q", bad)
		}
	}
	if got := chanIndex([]byte(chanName(8191))); got != 8191 {
		t.Errorf("chanIndex(chanName(8191)) = %d", got)
	}
	for _, foreign := range []string{"", "b.c.", "b.c.x1", "dynamoth.inbox.7"} {
		if got := chanIndex([]byte(foreign)); got != -1 {
			t.Errorf("chanIndex(%q) = %d, want -1", foreign, got)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := newTracer()
	batch := tr.add("batch", "loadgen", -1, ms(0), ms(100), 256)
	tr.add("marshal", "message", batch, ms(0), ms(30), 256)
	publish := tr.add("publish", "server", batch, ms(30), ms(90), 256)
	tr.add("observe", "lla", publish, ms(40), ms(60), 256)
	tr.add("marshal", "message", -1, ms(200), ms(210), 256)
	got := selfTimes(tr.spans)
	want := map[string]time.Duration{
		"batch":   ms(10), // 100 minus its two children (30 + 60)
		"marshal": ms(40), // two spans, no children
		"publish": ms(40), // 60 minus observe's 20
		"observe": ms(20),
	}
	for name, self := range want {
		if got[name].Self != self {
			t.Errorf("%s self time %v, want %v", name, got[name].Self, self)
		}
	}
	if got["marshal"].Ops != 512 || got["marshal"].Layer != "message" {
		t.Errorf("marshal totals %+v", got["marshal"])
	}
	if ns := nsPerOp(got, "observe"); ns != float64(ms(20))/256 {
		t.Errorf("observe ns/op = %v", ns)
	}
	var none *tracer
	if i := none.add("x", "y", -1, 0, 1, 1); i != -1 {
		t.Errorf("nil tracer recorded a span")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.check(); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end_to_end and %d per_layer metrics, limits 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		name(w.Name)
	}
	for _, j := range spec.EndToEnd {
		if j.Bound <= 0 || j.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", j.Name, j.Bound)
		}
		name(j.Name)
	}
	for _, m := range perLayerMetrics {
		name(m.Name)
	}
	for _, m := range append(append([]metricSpec{}, endToEndMetrics...), perLayerMetrics...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// TestSmoke boots a real node and runs every workload with one-second
// phases. It checks conservation — every delivery owed arrived once, in
// order, parsable — and that every end-to-end metric is emitted. It never
// looks at a timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots dynamoth-node subprocesses")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	nodeBin, err := buildNodeBin(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := runWorkload(w, runOpts{nodeBin: nodeBin, seed: 1, seconds: 3, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, res.Attempted, res.Failed, res.Detail["failures"])
		}
		for _, m := range endToEndMetrics {
			if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", w.Name, m.Name, v.Value)
			}
		}
	}
}
