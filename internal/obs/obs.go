// Package obs is Dynamoth's zero-dependency runtime observability layer: a
// Prometheus-text-format metric registry (counters, gauges, and a
// cumulative-bucket bridge for metrics.Histogram), a sampled top-K hot
// channel tracker, and the admin plane's own GET-only HTTP/1.1 responder
// (Mux) serving /metrics, /healthz, /statusz and /debug/pprof.
//
// The responder reads one request head per connection, routes GET and HEAD
// by exact path to a Handler that fills a buffer, and answers with
// Content-Length and Connection: close. It replaces net/http, whose server
// would link crypto/tls, x509 and an HTTP/2 server into every node — half
// the node binary, and the larger part of an idle node's resident set.
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
	"slices"
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
	_, err := w.Write(r.AppendText(nil))
	return err
}

// String renders the registry to a string (the scrape helpers' form).
func (r *Registry) String() string {
	return string(r.AppendText(nil))
}

// AppendText appends the registry's Prometheus text exposition to b and
// returns the extended buffer. It formats in place: a scrape allocates
// only what the families' read funcs return.
func (r *Registry) AppendText(b []byte) []byte {
	r.mu.Lock()
	fams := r.fams[:len(r.fams):len(r.fams)]
	r.mu.Unlock()
	for _, f := range fams {
		b = f.append(b)
	}
	return b
}

func (f *family) append(b []byte) []byte {
	b = appendHeader(b, f.name, "", f.help, f.kind)
	switch {
	case f.info != nil:
		b = append(b, f.name...)
		if len(f.info) > 0 {
			b = append(b, '{')
			for i, l := range f.info {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendLabel(b, l[0], l[1])
			}
			b = append(b, '}')
		}
		b = append(b, " 1\n"...)
	case f.counter != nil:
		b = append(b, f.name...)
		b = appendUint(b, f.counter())
	case f.gauge != nil:
		b = append(b, f.name...)
		b = appendValue(b, f.gauge())
	case f.vec != nil:
		samples := f.vec()
		slices.SortFunc(samples, func(x, y Sample) int { return strings.Compare(x.Label, y.Label) })
		for _, s := range samples {
			b = append(b, f.name...)
			b = append(b, '{')
			b = appendLabel(b, f.label, s.Label)
			b = append(b, '}')
			b = appendValue(b, s.Value)
		}
	case f.hist != nil:
		// One read-out per family: the buckets, _count and the quantile
		// gauges of a scrape all describe the same instant.
		c := f.hist.Counts()
		var cum uint64
		for i, n := range c.Buckets {
			cum += n
			b = append(b, f.name...)
			b = append(b, `_bucket{le="`...)
			b = appendPromFloat(b, c.Upper(i))
			b = append(b, `"}`...)
			b = appendUint(b, cum)
		}
		b = append(b, f.name...)
		b = append(b, "_sum"...)
		b = appendValue(b, c.Sum.Seconds())
		b = append(b, f.name...)
		b = append(b, "_count"...)
		b = appendUint(b, cum)
		if len(f.quants) > 0 {
			b = appendHeader(b, f.name, "_quantile", "Estimated quantiles of "+f.name+".", "gauge")
			for _, q := range f.quants {
				b = append(b, f.name...)
				b = append(b, `_quantile{quantile="`...)
				b = appendPromFloat(b, q)
				b = append(b, `"}`...)
				b = appendValue(b, c.Quantile(q).Seconds())
			}
		}
	}
	return b
}

// appendHeader appends the HELP and TYPE lines of family name+suffix.
func appendHeader(b []byte, name, suffix, help, kind string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, ' ')
	b = appendEscaped(b, help, false)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, ' ')
	b = append(b, kind...)
	return append(b, '\n')
}

// appendLabel appends `label="value"`, the value escaped.
func appendLabel(b []byte, label, value string) []byte {
	b = append(b, label...)
	b = append(b, `="`...)
	b = appendEscaped(b, value, true)
	return append(b, '"')
}

// appendUint and appendValue end a sample line: a space, the value, a
// newline.
func appendUint(b []byte, v uint64) []byte {
	b = strconv.AppendUint(append(b, ' '), v, 10)
	return append(b, '\n')
}

func appendValue(b []byte, v float64) []byte {
	return append(appendPromFloat(append(b, ' '), v), '\n')
}

// appendPromFloat renders a float the way Prometheus expects, including +Inf.
func appendPromFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendEscaped appends s with backslashes and newlines escaped, and
// double quotes too in a label value (HELP text keeps its quotes).
func appendEscaped(b []byte, s string, label bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && label:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
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
