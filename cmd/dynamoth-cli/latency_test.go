package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/server"
)

// TestShowLatencyRendersWaterfall drives the latency subcommand against a
// real /debug/latency handler serving a populated Waterfall and checks the
// rendering carries every section: e2e digest, the three stages in pipeline
// order, and slow channels.
func TestShowLatencyRendersWaterfall(t *testing.T) {
	wf := server.Waterfall{
		Server: "pub1",
		E2E:    server.LatencySummary{Count: 1000, P50ms: 1.2, P99ms: 30, MaxMs: 45},
		Stages: []server.StageSummary{
			{Stage: "ingress", LatencySummary: server.LatencySummary{Count: 1000, P50ms: 0.1, P99ms: 0.4}},
			{Stage: "fanout", LatencySummary: server.LatencySummary{Count: 1000, P50ms: 0.9, P99ms: 29}},
			{Stage: "flush", LatencySummary: server.LatencySummary{Count: 62, P50ms: 1.5, P99ms: 31}},
		},
		SlowChannels: []obs.ChannelLatency{
			{Channel: "room.lobby", Count: 400, P99: 30e-3, Contribution: 12},
		},
	}
	srv := httptest.NewServer(obs.JSONHandler(func() any { return wf }))
	defer srv.Close()

	var out strings.Builder
	// Bare host:port, no scheme, no path: the command must normalize it.
	if err := showLatency(strings.TrimPrefix(srv.URL, "http://"), &out); err != nil {
		t.Fatalf("showLatency: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"node pub1", "p99 30.00ms", "n=1000",
		"ingress", "fanout", "flush",
		"room.lobby",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// Stage order must match the pipeline.
	if !(strings.Index(got, "ingress") < strings.Index(got, "fanout") &&
		strings.Index(got, "fanout") < strings.Index(got, "flush")) {
		t.Fatalf("stages out of pipeline order:\n%s", got)
	}
	// The dominant stage gets the longest bar.
	lineOf := func(stage string) string {
		for _, l := range strings.Split(got, "\n") {
			if strings.Contains(l, stage) {
				return l
			}
		}
		return ""
	}
	if strings.Count(lineOf("fanout"), "#") <= strings.Count(lineOf("ingress"), "#") {
		t.Fatalf("fanout bar should dominate ingress:\n%s", got)
	}
}

// TestShowLatencyErrorStatus surfaces non-200 responses as errors.
func TestShowLatencyErrorStatus(t *testing.T) {
	srv := httptest.NewServer(nil) // no routes: 404 on every path
	defer srv.Close()
	var out strings.Builder
	if err := showLatency(srv.URL, &out); err == nil {
		t.Fatal("want error on 404")
	}
}
