package cluster

import (
	"strconv"
	"strings"
	"testing"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/obs"
)

// extractSample pulls one sample value out of a rendered exposition, e.g.
// extractSample(out, `dynamoth_e2e_latency_seconds_quantile{quantile="0.99"}`).
func extractSample(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix+" "), 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("exposition has no sample %q:\n%s", prefix, exposition)
	return 0
}

// TestClusterScrapeUnderLoad drives traffic through a cluster, scrapes the
// node exactly as the admin endpoint would, and cross-checks the exported
// p99 against the in-process histogram — the exposition must be valid and
// the two views must agree within one log bucket (~8%).
func TestClusterScrapeUnderLoad(t *testing.T) {
	c, err := Start(Options{InitialServers: 1, Balancer: BalancerNone})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub, err := c.NewClient(dynamoth.Config{NodeID: 1, SubscribeBuffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := c.NewClient(dynamoth.Config{NodeID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	msgs, err := sub.Subscribe("arena")
	if err != nil {
		t.Fatal(err)
	}
	const sent = 500
	for i := 0; i < sent; i++ {
		if err := pub.Publish("arena", []byte("tick")); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	timeout := time.After(5 * time.Second)
	for received < sent {
		select {
		case <-msgs:
			received++
		case <-timeout:
			t.Fatalf("received %d/%d", received, sent)
		}
	}

	out, err := c.ScrapeMetrics("pub1")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ValidateExposition(out)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	if fams["dynamoth_broker_published_total"] != "counter" ||
		fams["dynamoth_e2e_latency_seconds"] != "histogram" {
		t.Fatalf("families = %v", fams)
	}
	if got := extractSample(t, out, "dynamoth_broker_published_total"); got < sent {
		t.Errorf("published_total = %v, want >= %d", got, sent)
	}
	if got := extractSample(t, out, "dynamoth_plan_version"); got != 1 {
		t.Errorf("plan_version = %v, want 1", got)
	}

	// Bounded hot-state caches: every per-channel map on the node must be
	// scrapeable with its size and eviction counters.
	for fam, kind := range map[string]string{
		"dynamoth_node_hotstate_size":            "gauge",
		"dynamoth_node_hotstate_capacity":        "gauge",
		"dynamoth_node_hotstate_evictions_total": "counter",
	} {
		if fams[fam] != kind {
			t.Errorf("node hotstate family %s = %q, want %q", fam, fams[fam], kind)
		}
	}
	for _, cache := range []string{"lla_units", "lla_subscribers", "topk"} {
		prefix := `dynamoth_node_hotstate_capacity{cache="` + cache + `"}`
		if got := extractSample(t, out, prefix); got <= 0 {
			t.Errorf("cache %s unbounded on a default node (capacity %v)", cache, got)
		}
	}
	if got := extractSample(t, out, `dynamoth_node_hotstate_size{cache="topk"}`); got < 1 {
		t.Errorf("topk cache empty after %d publishes", sent)
	}

	// Exported p99 vs in-process Quantile(0.99): same histogram, so they
	// must agree within a bucket ratio (scrape races new observations).
	h := c.E2ELatency("pub1")
	if h == nil || h.Count() == 0 {
		t.Fatal("node e2e histogram empty")
	}
	exported := extractSample(t, out, `dynamoth_e2e_latency_seconds_quantile{quantile="0.99"}`)
	inProcess := h.Quantile(0.99).Seconds()
	if inProcess > 0 {
		ratio := exported / inProcess
		if ratio < 0.9 || ratio > 1.12 {
			t.Errorf("exported p99 %v vs in-process %v (ratio %v), want within one bucket", exported, inProcess, ratio)
		}
	}

	// The client measures the full publish→deliver path too.
	if sub.E2ELatency().Count() == 0 {
		t.Error("client e2e histogram empty")
	}
}

// TestClusterStageWaterfallCrossCheck validates the per-stage decomposition
// against the end-to-end measurement on both sides of the wire, under a
// WAN-latency model so every leg sits well above the histogram floors:
//
//   - node side, the ingress+fanout p99 sum must land within one histogram
//     bucket of the broker-observed e2e p99 (they decompose it exactly per
//     observation);
//   - client side, the three stage means must sum to the e2e mean almost
//     exactly (one clock read per delivery, µs truncation only).
func TestClusterStageWaterfallCrossCheck(t *testing.T) {
	clk := clock.NewScaled(epoch, 50)
	c, err := Start(Options{InitialServers: 1, Balancer: BalancerNone, WANLatency: true, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub, err := c.NewClient(dynamoth.Config{NodeID: 1, SubscribeBuffer: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := c.NewClient(dynamoth.Config{NodeID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	msgs, err := sub.Subscribe("arena")
	if err != nil {
		t.Fatal(err)
	}
	const sent = 600
	for i := 0; i < sent; i++ {
		if err := pub.Publish("arena", []byte("tick")); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	timeout := time.After(20 * time.Second)
	for received < sent {
		select {
		case <-msgs:
			received++
		case <-timeout:
			t.Fatalf("received %d/%d", received, sent)
		}
	}

	// Node side.
	wf, err := c.Waterfall("pub1")
	if err != nil {
		t.Fatal(err)
	}
	if wf.E2E.Count == 0 {
		t.Fatal("node e2e summary empty")
	}
	stages := map[string]serverStage{}
	for _, st := range wf.Stages {
		stages[st.Stage] = serverStage{count: st.Count, p99ms: st.P99ms}
	}
	for _, name := range []string{"ingress", "fanout"} {
		if stages[name].count == 0 {
			t.Fatalf("stage %s unobserved: %+v", name, wf.Stages)
		}
	}
	if stages["flush"].count == 0 {
		t.Errorf("flush stage unobserved after %d deliveries (1/16 sampling)", sent)
	}
	sum := stages["ingress"].p99ms + stages["fanout"].p99ms
	if hi := wf.E2E.P99ms*1.09 + 1; sum > hi {
		t.Errorf("stage p99 sum %.3fms exceeds e2e p99 %.3fms by more than one bucket", sum, wf.E2E.P99ms)
	}
	if lo := wf.E2E.P99ms * 0.7; sum < lo {
		t.Errorf("stage p99 sum %.3fms implausibly below e2e p99 %.3fms", sum, wf.E2E.P99ms)
	}

	// Client side: exact per-delivery decomposition, so means must agree.
	ing, fan, del := sub.StageLatencies()
	e2e := sub.E2ELatency()
	if ing.Count() == 0 || fan.Count() == 0 || del.Count() == 0 {
		t.Fatalf("client stage counts: ingress=%d fanout=%d deliver=%d", ing.Count(), fan.Count(), del.Count())
	}
	sumMean := ing.Mean() + fan.Mean() + del.Mean()
	e2eMean := e2e.Mean()
	diff := sumMean - e2eMean
	if diff < 0 {
		diff = -diff
	}
	if tol := e2eMean/50 + 20*time.Microsecond; diff > tol {
		t.Errorf("client stage means %v (i %v + f %v + d %v) vs e2e mean %v: diff %v > tol %v",
			sumMean, ing.Mean(), fan.Mean(), del.Mean(), e2eMean, diff, tol)
	}
	if sub.SkewClamped() != 0 {
		t.Errorf("skew clamped %d on a single-clock deployment", sub.SkewClamped())
	}
}

type serverStage struct {
	count uint64
	p99ms float64
}

// TestClusterBalancerScrape checks the balancer-side registry renders the
// plan/rebalance families when a balancer runs, and that scraping without a
// balancer fails cleanly.
func TestClusterBalancerScrape(t *testing.T) {
	c, err := Start(Options{InitialServers: 2, Balancer: BalancerDynamoth})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	out, err := c.ScrapeBalancerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateExposition(out); err != nil {
		t.Fatalf("balancer exposition invalid: %v\n%s", err, out)
	}
	for _, fam := range []string{
		"dynamoth_plan_version",
		"dynamoth_plan_servers 2",
		"dynamoth_rebalances_total",
		"dynamoth_failures_total",
		"dynamoth_build_info{",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("balancer exposition missing %q:\n%s", fam, out)
		}
	}

	none, err := Start(Options{InitialServers: 1, Balancer: BalancerNone})
	if err != nil {
		t.Fatal(err)
	}
	defer none.Stop()
	if _, err := none.ScrapeBalancerMetrics(); err == nil {
		t.Error("ScrapeBalancerMetrics succeeded without a balancer")
	}
	if none.BalancerRegistry() != nil {
		t.Error("BalancerRegistry non-nil without a balancer")
	}
}
