package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Series is a table of named columns sampled against a shared X axis
// (usually experiment seconds). It is what the experiment harness fills and
// what each paper figure is printed from.
type Series struct {
	mu    sync.Mutex
	xName string
	cols  []string
	colIx map[string]int
	rows  map[float64][]float64 // x -> column values (NaN = missing)
	marks map[float64][]string  // x -> event labels (reconfigurations etc.)
}

// NewSeries creates a series with the given X-axis name and column names.
func NewSeries(xName string, cols ...string) *Series {
	s := &Series{
		xName: xName,
		cols:  append([]string(nil), cols...),
		colIx: make(map[string]int, len(cols)),
		rows:  make(map[float64][]float64),
		marks: make(map[float64][]string),
	}
	for i, c := range cols {
		s.colIx[c] = i
	}
	return s
}

// Record sets column col at x to v, creating the row as needed.
func (s *Series) Record(x float64, col string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.colIx[col]
	if !ok {
		panic(fmt.Sprintf("metrics: unknown series column %q", col))
	}
	row, ok := s.rows[x]
	if !ok {
		row = make([]float64, len(s.cols))
		for j := range row {
			row[j] = nan
		}
		s.rows[x] = row
	}
	row[i] = v
}

// Mark attaches an event label at x (rendered as an extra annotation column),
// e.g. the paper's reconfiguration diamonds.
func (s *Series) Mark(x float64, label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.marks[x] = append(s.marks[x], label)
}

// Xs returns the sorted X values present.
func (s *Series) Xs() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs := make([]float64, 0, len(s.rows))
	for x := range s.rows {
		xs = append(xs, x)
	}
	for x := range s.marks {
		if _, ok := s.rows[x]; !ok {
			xs = append(xs, x)
		}
	}
	sort.Float64s(xs)
	return xs
}

// Get returns the value of col at x and whether it was recorded.
func (s *Series) Get(x float64, col string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.colIx[col]
	if !ok {
		return 0, false
	}
	row, ok := s.rows[x]
	if !ok || row[i] != row[i] { // NaN check
		return 0, false
	}
	return row[i], true
}

// Column returns all recorded (x, value) pairs of one column in X order.
func (s *Series) Column(col string) (xs, vals []float64) {
	for _, x := range s.Xs() {
		if v, ok := s.Get(x, col); ok {
			xs = append(xs, x)
			vals = append(vals, v)
		}
	}
	return xs, vals
}

// Marks returns the labels recorded at x.
func (s *Series) Marks(x float64) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.marks[x]...)
}

// Table renders the series as an aligned text table; missing cells print
// as "-". Every paper figure is emitted in this form.
func (s *Series) Table() string {
	xs := s.Xs()
	s.mu.Lock()
	defer s.mu.Unlock()

	header := append([]string{s.xName}, s.cols...)
	header = append(header, "events")
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		cells := make([]string, 0, len(header))
		cells = append(cells, trimFloat(x))
		row, ok := s.rows[x]
		for i := range s.cols {
			if !ok || row[i] != row[i] {
				cells = append(cells, "-")
			} else {
				cells = append(cells, trimFloat(row[i]))
			}
		}
		cells = append(cells, strings.Join(s.marks[x], ","))
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
		rows = append(rows, cells)
	}

	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

var nan = math.NaN()
