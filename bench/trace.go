package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark around its calls into each layer (spans inside the program are a
// later change), kept in memory, and written out when the run ends.
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Ops    int           `json:"ops"`    // calls (or frames) the span covers
}

// tracer collects spans. A nil *tracer records nothing, so the untraced run
// executes the same code with one nil check per batch.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// add records a finished span and returns its index (to parent children on).
func (t *tracer) add(name, layer string, parent int, start, end time.Duration, ops int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: start, End: end, Parent: parent, Ops: ops})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// setEnd closes a span that was added before its children ran.
func (t *tracer) setEnd(i int, end time.Duration) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// all returns the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[:len(t.spans):len(t.spans)]
}

// selfTotal is a span name's aggregate: self time is each span's duration
// minus the part its direct children cover.
type selfTotal struct {
	Layer string
	Self  time.Duration
	Ops   int
}

// selfTimes sums self time and op counts per span name.
func selfTimes(spans []span) map[string]selfTotal {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]selfTotal{}
	for i, s := range spans {
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0
		}
		t := out[s.Name]
		t.Layer = s.Layer
		t.Self += self
		t.Ops += s.Ops
		out[s.Name] = t
	}
	return out
}

// nsPerOp is a span name's self time per operation (0 when it never ran).
func nsPerOp(totals map[string]selfTotal, name string) float64 {
	t := totals[name]
	if t.Ops == 0 {
		return 0
	}
	return float64(t.Self) / float64(t.Ops)
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close() //nolint:errcheck // the encode error is the one to report
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //nolint:errcheck // the flush error is the one to report
		return err
	}
	return f.Close()
}
