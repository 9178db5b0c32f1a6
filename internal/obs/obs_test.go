package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/metrics"
)

func TestRegistryRenderCounterGauge(t *testing.T) {
	r := NewRegistry()
	var pubs atomic.Uint64
	pubs.Store(42)
	r.Counter("test_published_total", "Publications.", pubs.Load)
	r.Gauge("test_sessions", "Sessions.", func() float64 { return 3 })

	out := r.String()
	for _, want := range []string{
		"# HELP test_published_total Publications.\n",
		"# TYPE test_published_total counter\n",
		"test_published_total 42\n",
		"# TYPE test_sessions gauge\n",
		"test_sessions 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if _, err := ValidateExposition(out); err != nil {
		t.Fatalf("own exposition invalid: %v", err)
	}
}

func TestRegistryGaugeVecSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("test_util", "Utilization.", "server", func() []Sample {
		return []Sample{
			{Label: "pub2", Value: 0.5},
			{Label: `pub"1`, Value: 0.25}, // quote must be escaped
		}
	})
	out := r.String()
	i1 := strings.Index(out, `test_util{server="pub\"1"} 0.25`)
	i2 := strings.Index(out, `test_util{server="pub2"} 0.5`)
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Fatalf("vec samples missing or unsorted:\n%s", out)
	}
	if _, err := ValidateExposition(out); err != nil {
		t.Fatalf("own exposition invalid: %v", err)
	}
}

func TestRegistryHistogramBridge(t *testing.T) {
	h := metrics.NewHistogram(time.Millisecond, time.Second, 20)
	for _, d := range []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, 500 * time.Millisecond} {
		h.Observe(d)
	}
	r := NewRegistry()
	r.Histogram("test_latency_seconds", "Latency.", h, 0.5, 0.99)

	out := r.String()
	if !strings.Contains(out, "# TYPE test_latency_seconds histogram\n") {
		t.Fatalf("missing histogram TYPE:\n%s", out)
	}
	if !strings.Contains(out, `test_latency_seconds_bucket{le="+Inf"} 3`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "test_latency_seconds_count 3\n") {
		t.Errorf("missing _count:\n%s", out)
	}
	if !strings.Contains(out, `test_latency_seconds_quantile{quantile="0.99"}`) {
		t.Errorf("missing quantile gauge:\n%s", out)
	}
	fams, err := ValidateExposition(out)
	if err != nil {
		t.Fatalf("own exposition invalid: %v", err)
	}
	if fams["test_latency_seconds"] != "histogram" {
		t.Fatalf("family types = %v", fams)
	}

	if err := histogramScrapeError(out, "test_latency_seconds"); err != nil {
		t.Fatal(err)
	}
}

// histogramScrapeError reports how one rendered histogram family fails to
// describe a single instant: cumulative buckets never decrease, _count equals
// the +Inf bucket, and every _quantile gauge lies in a bucket that same
// scrape shows occupied.
func histogramScrapeError(out, name string) error {
	var les, cums, quants []float64
	count := -1.0
	for _, line := range strings.Split(out, "\n") {
		var err error
		if rest, ok := strings.CutPrefix(line, name+`_bucket{le="`); ok {
			le, cum, _ := strings.Cut(rest, `"} `)
			les, err = appendFloat(les, le)
			if err == nil {
				cums, err = appendFloat(cums, cum)
			}
		} else if rest, ok := strings.CutPrefix(line, name+"_count "); ok {
			count, err = strconv.ParseFloat(rest, 64)
		} else if strings.HasPrefix(line, name+`_quantile{quantile="`) {
			_, v, _ := strings.Cut(line, `"} `)
			quants, err = appendFloat(quants, v)
		}
		if err != nil {
			return fmt.Errorf("%s: line %q: %w", name, line, err)
		}
	}
	if len(les) == 0 || !math.IsInf(les[len(les)-1], 1) {
		return fmt.Errorf("%s: bucket bounds %v do not end at +Inf", name, les)
	}
	for i := 1; i < len(cums); i++ {
		if cums[i] < cums[i-1] {
			return fmt.Errorf("%s: cumulative bucket decreased: %v -> %v", name, cums[i-1], cums[i])
		}
	}
	if last := cums[len(cums)-1]; last != count {
		return fmt.Errorf("%s: +Inf bucket %v != _count %v", name, last, count)
	}
	for _, q := range quants {
		i := sort.SearchFloat64s(les, q) // first bucket with q <= le
		in := cums[i]
		if i > 0 {
			in -= cums[i-1]
		}
		if in == 0 && count > 0 {
			return fmt.Errorf("%s: quantile gauge %v lies in bucket le=%v, which this scrape shows empty", name, q, les[i])
		}
	}
	return nil
}

func appendFloat(dst []float64, s string) ([]float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	return append(dst, v), err
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x.", func() uint64 { return 0 })
	mustPanic("duplicate", func() { r.Counter("dup_total", "x.", func() uint64 { return 0 }) })
	mustPanic("bad name", func() { r.Gauge("bad-name", "x.", func() float64 { return 0 }) })
	mustPanic("bad label", func() { r.GaugeVec("ok_name", "x.", "bad-label", func() []Sample { return nil }) })
}

// TestRegistryConcurrentRender scrapes while a writer observes ever-larger
// durations, so new buckets keep filling: every scrape must be well-formed
// and each histogram family in it self-consistent (one read-out, not one per
// line).
func TestRegistryConcurrentRender(t *testing.T) {
	r := NewRegistry()
	var n atomic.Uint64
	r.Counter("race_total", "x.", n.Load)
	h := metrics.NewHistogram(time.Microsecond, 1000*time.Second, 200)
	r.Histogram("race_seconds", "x.", h, 0.5, 0.99, 1)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for d := time.Microsecond; d < 1000*time.Second; d += d>>13 + 1 {
			n.Add(1)
			h.Observe(d)
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				out := r.String()
				if _, err := ValidateExposition(out); err != nil {
					t.Errorf("scrape %d invalid: %v", j, err)
					return
				}
				if err := histogramScrapeError(out, "race_seconds"); err != nil {
					t.Errorf("scrape %d: %v", j, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "no_type_metric 1\n",
		"unknown type":         "# TYPE m wat\nm 1\n",
		"bad value":            "# TYPE m gauge\nm xyzzy\n",
		"unquoted label":       "# TYPE m gauge\nm{l=v} 1\n",
		"unterminated label":   "# TYPE m gauge\nm{l=\"v} 1\n",
		"bad metric name":      "# TYPE m gauge\n1m 1\n",
		"duplicate TYPE":       "# TYPE m gauge\n# TYPE m counter\nm 1\n",
		"histogram w/o family": "# TYPE m gauge\nother_bucket{le=\"1\"} 1\n",
	}
	for name, text := range cases {
		if _, err := ValidateExposition(text); err == nil {
			t.Errorf("%s: expected error for %q", name, text)
		}
	}
	// Histogram suffixes resolve to their declared family.
	ok := "# TYPE m histogram\nm_bucket{le=\"+Inf\"} 1\nm_sum 0.5\nm_count 1\n"
	if _, err := ValidateExposition(ok); err != nil {
		t.Errorf("valid histogram rejected: %v", err)
	}
}

func TestRegistryInfo(t *testing.T) {
	r := NewRegistry()
	r.Info("dynamoth_build_info",
		"Build identity; value is always 1.",
		[2]string{"version", "v1.2.3-test"},
		[2]string{"go_version", "go1.22"},
	)
	out := r.String()
	want := `dynamoth_build_info{version="v1.2.3-test",go_version="go1.22"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("rendered exposition missing %q:\n%s", want, out)
	}
	if _, err := ValidateExposition(out); err != nil {
		t.Fatalf("info family fails exposition validation: %v", err)
	}
}

func TestRegistryInfoBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Info accepted an invalid label name")
		}
	}()
	NewRegistry().Info("x_info", "h", [2]string{"bad-label", "v"})
}
