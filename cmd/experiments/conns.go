package main

import (
	"fmt"
	"os"

	"github.com/dynamoth/dynamoth/internal/workload"
)

// runConns is the C100k soak: it boots a real dynamoth-node subprocess, rams
// it with multiplexed connections from this process's epoll driver under
// publish traffic and subscription churn, and judges the run itself — any
// failed check is the returned error. Connection counts are capped by
// RLIMIT_NOFILE on both sides of the socket (driver and server are separate
// processes, each paying one fd per connection), so falling short of the
// target is an error only when the fd limit left room for it.
func runConns(target int) error {
	fmt.Println("=== C100k — connection-scale soak ===")
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
	node, err := startNode(nodeBin)
	if err != nil {
		return err
	}
	defer node.Stop()

	// Spread client sockets over extra loopback IPs past the ~28k
	// ephemeral-port ceiling of a single (src,dst) pair.
	var srcs []string
	for i := 0; i <= target/20_000; i++ {
		srcs = append(srcs, fmt.Sprintf("127.0.0.%d", i+2))
	}

	rssBaseKB := readRSSKB(node.Pid())
	var rssPeakKB int64
	d, err := workload.RunConnBench(workload.ConnBenchOptions{
		Addr:      node.RespAddr,
		SourceIPs: srcs,
		Conns:     target,
		OnEstablished: func(achieved int) {
			rssPeakKB = readRSSKB(node.Pid())
			fmt.Printf("established %d conns; server RSS %d KB → %d KB\n", achieved, rssBaseKB, rssPeakKB)
		},
	})
	if err != nil {
		return err
	}
	epollEvents, _ := scrapeValue(node.AdminAddr, "dynamoth_broker_epoll_events_total")

	fmt.Printf("achieved=%d/%d (fd limit %d)  connect=%.0f conns/s  delivered=%d  samples=%d  stampErrs=%d  churn=%d  behind=%d  p50=%.0fµs p99=%.0fµs  bytes/conn=%.0f  epollEvents=%.0f\n",
		d.Achieved, target, d.FDLimit, d.ConnsPerSec, d.Delivered, d.Samples, d.StampErrors,
		d.ChurnOps, d.BehindSchedule, d.DeliveryP50us, d.DeliveryP99us,
		ratio((rssPeakKB-rssBaseKB)*1024, int64(d.Achieved)), epollEvents)

	fdCapped := d.FDLimit > 0 && uint64(target)+workload.FDHeadroom > d.FDLimit
	switch {
	case d.Achieved != target && !fdCapped:
		return fmt.Errorf("achieved %d of %d connections with fd limit %d to spare", d.Achieved, target, d.FDLimit)
	case d.Samples == 0:
		return fmt.Errorf("no latency samples from %d deliveries", d.Delivered)
	case d.StampErrors != 0:
		return fmt.Errorf("%d stamp errors (cross-frame corruption)", d.StampErrors)
	case d.ChurnOps == 0:
		return fmt.Errorf("no churn cycle completed")
	case epollEvents <= 0:
		return fmt.Errorf("node reports no epoll events: the reactor core did not serve the run")
	}
	return nil
}
