package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/dynamoth/dynamoth/internal/workload"
)

// runConns is the C100k harness: it boots a real dynamoth-node subprocess,
// rams it with multiplexed connections from this process's epoll driver, and
// writes BENCH_conns.json for the node's connection core at the largest
// achievable scale. Connection counts are capped by RLIMIT_NOFILE on both
// sides of the socket (driver and server are separate processes, each paying
// one fd per connection); the JSON reports target vs achieved vs the fd limit
// so a capped run is never mistaken for a sustained one.
func runConns(target int) error {
	fmt.Println("=== C100k — connection-scale harness ===")
	fmt.Printf("target %d connections; driver and server fd limits cap the achievable count\n\n", target)

	binDir, err := os.MkdirTemp("", "dynamoth-conns-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(binDir)
	nodeBin, err := buildNodeBin(binDir)
	if err != nil {
		return err
	}

	reactor, err := runConnsCore(nodeBin, target)
	if err != nil {
		return err
	}

	out := map[string]any{
		"description": "Connection-scale harness: a multiplexed epoll load driver (one process, " +
			"fd-indexed sockets, pipelined nonblocking connects) holds subscriber connections " +
			"against a real dynamoth-node subprocess under publish traffic and subscription churn. " +
			"'reactor' is the node's connection core (the sharded epoll reactor on Linux) at the " +
			"largest fd-budget-achievable scale. bytesPerConn is server RSS growth divided by " +
			"held connections; deliveryP99Us is publish-stamp-to-driver-receipt during churn.",
		"generated": time.Now().UTC().Format(time.RFC3339),
		"environment": map[string]any{
			"note": "fd-limited container: RLIMIT_NOFILE hard cap bounds both processes; " +
				"achieved < target means the fd budget, not the broker, was the ceiling",
		},
		"reactor": reactor,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_conns.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote BENCH_conns.json")
	return nil
}

// connsCoreResult is the harness outcome.
type connsCoreResult struct {
	Driver *workload.ConnBenchResult `json:"driver"`
	// Server-side figures: RSS before the ramp, at full connection count,
	// and the growth divided across connections.
	ServerRSSBaseKB int64   `json:"serverRssBaseKb"`
	ServerRSSPeakKB int64   `json:"serverRssPeakKb"`
	BytesPerConn    float64 `json:"bytesPerConn"`
	// Scraped broker counters: MetricsAtPeak with every connection still
	// held (the conns gauge is meaningful there), Metrics after the window
	// and driver teardown (the counters' final values).
	MetricsAtPeak map[string]float64 `json:"metricsAtPeak"`
	Metrics       map[string]float64 `json:"metrics"`
}

// runConnsCore boots one node and drives it.
func runConnsCore(nodeBin string, target int) (*connsCoreResult, error) {
	node, err := startNode(nodeBin)
	if err != nil {
		return nil, err
	}
	defer node.Stop()
	respAddr, adminAddr := node.RespAddr, node.AdminAddr

	res := &connsCoreResult{}
	res.ServerRSSBaseKB = readRSSKB(node.Pid())

	// Spread client sockets over extra loopback IPs past the ~28k
	// ephemeral-port ceiling of a single (src,dst) pair.
	var srcs []string
	for i := 0; i <= target/20_000; i++ {
		srcs = append(srcs, fmt.Sprintf("127.0.0.%d", i+2))
	}

	res.Driver, err = workload.RunConnBench(workload.ConnBenchOptions{
		Addr:      respAddr,
		SourceIPs: srcs,
		Conns:     target,
		OnEstablished: func(achieved int) {
			res.ServerRSSPeakKB = readRSSKB(node.Pid())
			res.MetricsAtPeak = scrapeConnMetrics(adminAddr)
			fmt.Printf("established %d conns; server RSS %d KB → %d KB\n",
				achieved, res.ServerRSSBaseKB, res.ServerRSSPeakKB)
		},
	})
	if err != nil {
		return nil, err
	}
	if res.Driver.Achieved > 0 && res.ServerRSSPeakKB > res.ServerRSSBaseKB {
		res.BytesPerConn = float64(res.ServerRSSPeakKB-res.ServerRSSBaseKB) * 1024 / float64(res.Driver.Achieved)
	}
	res.Metrics = scrapeConnMetrics(adminAddr)

	fmt.Printf("achieved=%d (fd limit %d)  connect=%.0f conns/s  delivered=%d  churn=%d  behind=%d  p50=%.0fµs p99=%.0fµs  bytes/conn=%.0f\n\n",
		res.Driver.Achieved, res.Driver.FDLimit, res.Driver.ConnsPerSec,
		res.Driver.Delivered, res.Driver.ChurnOps, res.Driver.BehindSchedule,
		res.Driver.DeliveryP50us, res.Driver.DeliveryP99us, res.BytesPerConn)
	return res, nil
}

// scrapeConnMetrics pulls the connection-layer families off /metrics.
func scrapeConnMetrics(adminAddr string) map[string]float64 {
	return scrapeFamilies(adminAddr,
		"dynamoth_broker_conn", "dynamoth_broker_epoll", "dynamoth_broker_bytes")
}
