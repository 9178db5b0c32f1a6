package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/dynamoth/dynamoth/internal/server"
)

// showLatency fetches a node's /debug/latency document and renders the
// per-stage waterfall. target is the node's admin URL (scheme and path
// optional, like the events command).
func showLatency(target string, out io.Writer) error {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	if !strings.Contains(target, "/debug/latency") {
		target = strings.TrimRight(target, "/") + "/debug/latency"
	}
	resp, err := http.Get(target)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", target, resp.Status, strings.TrimSpace(string(body)))
	}
	var wf server.Waterfall
	if err := json.NewDecoder(resp.Body).Decode(&wf); err != nil {
		return fmt.Errorf("decoding %s: %w", target, err)
	}
	renderWaterfall(out, wf)
	return nil
}

// renderWaterfall prints the waterfall as text: each stage's p50/p99 with a
// bar proportional to its share of the end-to-end p99.
func renderWaterfall(out io.Writer, wf server.Waterfall) {
	fmt.Fprintf(out, "node %s  e2e (broker-side): p50 %s  p99 %s  max %s  n=%d\n",
		wf.Server, fmtMs(wf.E2E.P50ms), fmtMs(wf.E2E.P99ms), fmtMs(wf.E2E.MaxMs), wf.E2E.Count)
	const width = 40
	scale := wf.E2E.P99ms
	for _, st := range wf.Stages {
		if scale < st.P99ms {
			scale = st.P99ms // flush can extend past broker-side e2e
		}
	}
	for _, st := range wf.Stages {
		bar := 0
		if scale > 0 {
			bar = int(st.P99ms / scale * width)
		}
		if bar > width {
			bar = width
		}
		fmt.Fprintf(out, "  %-8s p50 %10s  p99 %10s  n %9d  |%s\n",
			st.Stage, fmtMs(st.P50ms), fmtMs(st.P99ms), st.Count, strings.Repeat("#", bar))
	}
	if len(wf.SlowChannels) > 0 {
		fmt.Fprintf(out, "slow channels (p99 x count, last window):\n")
		for _, ch := range wf.SlowChannels {
			fmt.Fprintf(out, "  %-24s p99 %10s  n %9d\n",
				ch.Channel, fmtMs(ch.P99*1e3), ch.Count)
		}
	}
}

// fmtMs renders a millisecond quantity at a human scale.
func fmtMs(ms float64) string {
	switch {
	case ms <= 0:
		return "0"
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	case ms >= 1:
		return fmt.Sprintf("%.2fms", ms)
	default:
		return fmt.Sprintf("%.0fus", ms*1000)
	}
}
