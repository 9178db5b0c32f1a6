// Package obs is Dynamoth's zero-dependency runtime observability layer: a
// Prometheus-text-format metric registry (counters, gauges, and a
// cumulative-bucket bridge for metrics.Histogram), a sampled top-K hot
// channel tracker, and an admin HTTP mux serving /metrics, /healthz,
// /statusz and /debug/pprof.
//
// The design rule is that the hot path pays nothing beyond what it already
// does: metrics are read-only views over the atomics and histograms the
// components maintain anyway (registration takes closures, not values), and
// all rendering work — formatting, bucket accumulation, quantile estimation —
// happens on scrape, never on publish.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/dynamoth/dynamoth/internal/metrics"
)

// Sample is one labeled value of a metric family with a single label
// dimension (e.g. per-server gauges).
type Sample struct {
	// Label is the value of the family's label for this sample.
	Label string
	// Value is the sample value.
	Value float64
}

// family is one registered metric family. Exactly one of the read funcs is
// set, matching kind.
type family struct {
	name, help, kind string
	label            string // label name for vec families

	counter func() uint64
	gauge   func() float64
	vec     func() []Sample
	hist    *metrics.Histogram
	quants  []float64   // rendered quantiles for hist families
	info    [][2]string // static label pairs for info families
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration order is preserved in the output.
// A Registry is safe for concurrent registration and rendering.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]struct{}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]struct{})}
}

// validName matches the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) add(f *family) {
	if !validName(f.name) {
		panic("obs: invalid metric name " + strconv.Quote(f.name))
	}
	if f.label != "" && !validName(f.label) {
		panic("obs: invalid label name " + strconv.Quote(f.label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.seen[f.name]; dup {
		panic("obs: duplicate metric " + f.name)
	}
	r.seen[f.name] = struct{}{}
	r.fams = append(r.fams, f)
}

// Counter registers a monotonically increasing counter read from fn on every
// scrape (typically an atomic.Uint64 Load).
func (r *Registry) Counter(name, help string, fn func() uint64) {
	r.add(&family{name: name, help: help, kind: "counter", counter: fn})
}

// Gauge registers a point-in-time value read from fn on every scrape.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: "gauge", gauge: fn})
}

// GaugeVec registers a gauge family with one label dimension; fn returns the
// current samples on every scrape (the set may change between scrapes, e.g.
// per-server utilization as the pool grows and shrinks).
func (r *Registry) GaugeVec(name, help, label string, fn func() []Sample) {
	r.add(&family{name: name, help: help, kind: "gauge", label: label, vec: fn})
}

// CounterVec registers a counter family with one label dimension; fn returns
// the current samples on every scrape. Sample values must be monotonically
// non-decreasing per label (e.g. per-cache eviction totals).
func (r *Registry) CounterVec(name, help, label string, fn func() []Sample) {
	r.add(&family{name: name, help: help, kind: "counter", label: label, vec: fn})
}

// Info registers a constant gauge with value 1 whose labels carry the
// interesting data — the Prometheus "info metric" idiom (build version,
// runtime, and similar identity facts). labels are (name, value) pairs
// rendered in the given order; label names must be valid, values are
// escaped.
func (r *Registry) Info(name, help string, labels ...[2]string) {
	for _, l := range labels {
		if !validName(l[0]) {
			panic("obs: invalid info label name " + strconv.Quote(l[0]))
		}
	}
	if len(labels) == 0 {
		labels = [][2]string{} // non-nil so render picks the info branch
	}
	r.add(&family{name: name, help: help, kind: "gauge", info: labels})
}

// Histogram registers h as a Prometheus histogram family (cumulative
// _bucket/_sum/_count series) plus a companion "<name>_quantile" gauge
// family exporting the given quantiles (e.g. 0.5, 0.99, 0.999). Each scrape
// renders all of it from one metrics.Counts read-out.
func (r *Registry) Histogram(name, help string, h *metrics.Histogram, quantiles ...float64) {
	r.add(&family{name: name, help: help, kind: "histogram", hist: h, quants: quantiles})
}

// Render writes the registry in Prometheus text exposition format.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.render(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// String renders the registry to a string (the scrape helpers' form).
func (r *Registry) String() string {
	var b strings.Builder
	_ = r.Render(&b)
	return b.String()
}

func (f *family) render(b *strings.Builder) {
	writeHeader(b, f.name, f.help, f.kind)
	switch {
	case f.info != nil:
		b.WriteString(f.name)
		if len(f.info) > 0 {
			b.WriteByte('{')
			for i, l := range f.info {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(l[0])
				b.WriteString(`="`)
				b.WriteString(escapeLabel(l[1]))
				b.WriteByte('"')
			}
			b.WriteByte('}')
		}
		b.WriteString(" 1\n")
	case f.counter != nil:
		writeSample(b, f.name, "", "", strconv.FormatUint(f.counter(), 10))
	case f.gauge != nil:
		writeSample(b, f.name, "", "", formatFloat(f.gauge()))
	case f.vec != nil:
		samples := f.vec()
		sort.Slice(samples, func(i, j int) bool { return samples[i].Label < samples[j].Label })
		for _, s := range samples {
			writeSample(b, f.name, f.label, s.Label, formatFloat(s.Value))
		}
	case f.hist != nil:
		// One read-out per family: the buckets, _count and the quantile
		// gauges of a scrape all describe the same instant.
		c := f.hist.Counts()
		var cum uint64
		for i, n := range c.Buckets {
			cum += n
			writeSample(b, f.name+"_bucket", "le", formatFloat(c.Upper(i)), strconv.FormatUint(cum, 10))
		}
		writeSample(b, f.name+"_sum", "", "", formatFloat(c.Sum.Seconds()))
		writeSample(b, f.name+"_count", "", "", strconv.FormatUint(cum, 10))
		if len(f.quants) > 0 {
			qname := f.name + "_quantile"
			writeHeader(b, qname, "Estimated quantiles of "+f.name+".", "gauge")
			for _, q := range f.quants {
				writeSample(b, qname, "quantile", formatFloat(q), formatFloat(c.Quantile(q).Seconds()))
			}
		}
	}
}

func writeHeader(b *strings.Builder, name, help, kind string) {
	b.WriteString("# HELP ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(help))
	b.WriteString("\n# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(kind)
	b.WriteByte('\n')
}

func writeSample(b *strings.Builder, name, label, labelValue, value string) {
	b.WriteString(name)
	if label != "" {
		b.WriteByte('{')
		b.WriteString(label)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labelValue))
		b.WriteString(`"}`)
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// formatFloat renders a float the way Prometheus expects, including +Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// ---------------------------------------------------------------------------
// Exposition validation (used by the scrape helpers and the CI job)

// ValidateExposition parses a Prometheus text exposition and returns the
// metric families it declares (family name → type). It fails on malformed
// lines: samples without a preceding TYPE declaration, bad label syntax,
// or unparsable values — the checks the obs CI job gates on.
func ValidateExposition(text string) (map[string]string, error) {
	fams := make(map[string]string)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, _ := strings.Cut(rest, " ")
			if !validName(name) {
				return nil, fmt.Errorf("obs: line %d: bad HELP name %q", ln+1, name)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || !validName(name) {
				return nil, fmt.Errorf("obs: line %d: malformed TYPE line %q", ln+1, line)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("obs: line %d: unknown metric type %q", ln+1, kind)
			}
			if _, dup := fams[name]; dup {
				return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %q", ln+1, name)
			}
			fams[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		name, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", ln+1, err)
		}
		if !familyDeclared(fams, name) {
			return nil, fmt.Errorf("obs: line %d: sample %q has no TYPE declaration", ln+1, name)
		}
	}
	return fams, nil
}

// familyDeclared resolves a sample name to its family, accepting the
// histogram/summary suffixes.
func familyDeclared(fams map[string]string, name string) bool {
	if _, ok := fams[name]; ok {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if kind, ok := fams[base]; ok && (kind == "histogram" || kind == "summary") {
				return true
			}
		}
	}
	return false
}

// parseSampleLine validates `name{label="v",...} value [timestamp]` and
// returns the metric name.
func parseSampleLine(line string) (string, error) {
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end <= 0 {
		return "", fmt.Errorf("malformed sample %q", line)
	}
	name := rest[:end]
	if !validName(name) {
		return "", fmt.Errorf("bad metric name %q", name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		close := strings.Index(rest, "}")
		if close < 0 {
			return "", fmt.Errorf("unterminated label set in %q", line)
		}
		if err := validateLabels(rest[1:close]); err != nil {
			return "", fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[close+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", fmt.Errorf("expected value [timestamp] in %q", line)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return "", fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, nil
}

func validateLabels(s string) error {
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq <= 0 || !validName(s[:eq]) {
			return fmt.Errorf("bad label name")
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("unquoted label value")
		}
		// Find the closing quote, honoring escapes.
		i := 1
		for ; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				break
			}
		}
		if i >= len(s) {
			return fmt.Errorf("unterminated label value")
		}
		s = s[i+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("bad label separator")
			}
			s = s[1:]
		}
	}
	return nil
}
