// Command experiments regenerates every table and figure of the paper's
// evaluation (§V) from the deterministic simulator and prints the series the
// figures plot, plus the headline claims. It also runs the two soaks that
// boot a real dynamoth-node and judge themselves.
//
// Usage:
//
//	experiments -run all            # every figure and the ablations (several minutes)
//	experiments -run fig4a          # Experiment 1, all-publishers replication
//	experiments -run fig4b          # Experiment 1, all-subscribers replication
//	experiments -run fig5           # Experiment 2, Dynamoth vs consistent hashing
//	experiments -run fig6           # Experiment 2, load ratios (Dynamoth run)
//	experiments -run fig7           # Experiment 3, elasticity
//	experiments -run ablation       # Algorithm 1 unaided; T_wait sweep
//	experiments -run conns          # C100k connection soak (-conns N)
//	experiments -run channels       # million-channel soak (-channels N)
//	experiments -run fig5 -scale 0.5 -seed 7
//
// -scale shrinks the workloads proportionally (0.5 → half the players /
// clients and half the ramp) for quicker, shape-preserving runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/dynamoth/dynamoth/internal/experiment"
	"github.com/dynamoth/dynamoth/internal/sim"
)

func main() {
	var (
		run      = flag.String("run", "all", "fig4a|fig4b|fig5|fig6|fig7|ablation|conns|channels|all")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper scale)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		conns    = flag.Int("conns", 100_000, "target connection count for -run conns")
		channels = flag.Int("channels", 1_000_000, "target distinct channel count for -run channels")
	)
	flag.Parse()
	if *scale <= 0 || *scale > 4 {
		fmt.Fprintln(os.Stderr, "experiments: -scale must be in (0, 4]")
		os.Exit(1)
	}

	start := time.Now()
	switch *run {
	case "fig4a":
		runFig4a(*scale, *seed)
	case "fig4b":
		runFig4b(*scale, *seed)
	case "fig5":
		runFig5(*scale, *seed)
	case "fig6":
		runFig6(*scale, *seed)
	case "fig7":
		runFig7(*scale, *seed)
	case "ablation":
		runAblations(*seed)
	case "conns":
		if err := runConns(*conns); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: conns:", err)
			os.Exit(1)
		}
	case "channels":
		if err := runChannels(*channels); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: channels:", err)
			os.Exit(1)
		}
	case "all":
		runFig4a(*scale, *seed)
		runFig4b(*scale, *seed)
		runFig5(*scale, *seed)
		runFig6(*scale, *seed)
		runFig7(*scale, *seed)
		runAblations(*seed)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown -run %q\n", *run)
		os.Exit(1)
	}
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func steps(scale float64) []int {
	base := []int{100, 200, 300, 400, 500, 600, 700, 800}
	out := make([]int, 0, len(base))
	for _, b := range base {
		n := int(float64(b) * scale)
		if n > 0 {
			out = append(out, n)
		}
	}
	return out
}

func runFig4a(scale float64, seed int64) {
	fmt.Println("=== Figure 4a — Experiment 1 “All Publishers” replication ===")
	fmt.Println("1 publisher at 10 msg/s, N subscribers; response time with and")
	fmt.Println("without all-publishers replication over 3 servers.")
	res := experiment.RunFig4a(experiment.MicroOptions{Steps: steps(scale), Seed: seed})
	fmt.Println(res.Series.Table())
	fmt.Printf("healthy (≤150ms, ≥99%% delivery) up to: no-replication %d subscribers, replicated %d subscribers\n",
		res.MaxHealthyNoRepl, res.MaxHealthyRepl)
	fmt.Printf("paper: single server degrades above ~500 subscribers; 3-server replication stays low through 800\n\n")
}

func runFig4b(scale float64, seed int64) {
	fmt.Println("=== Figure 4b — Experiment 1 “All Subscribers” replication ===")
	fmt.Println("N publishers at 10 msg/s each, 1 subscriber; response time and")
	fmt.Println("delivery with and without all-subscribers replication over 3 servers.")
	res := experiment.RunFig4b(experiment.MicroOptions{Steps: steps(scale), Seed: seed})
	fmt.Println(res.Series.Table())
	fmt.Printf("healthy up to: no-replication %d publishers, replicated %d publishers\n",
		res.MaxHealthyNoRepl, res.MaxHealthyRepl)
	fmt.Printf("paper: single server fails above ~200 publishers; replication supports nearly 600\n\n")
}

func gameScale(scale float64, seed int64, mode sim.Mode) *experiment.GameResult {
	peak := int(1200 * scale)
	ramp := time.Duration(float64(1000*time.Second) * scale)
	return experiment.RunScalability(mode, peak, ramp, seed)
}

func runFig5(scale float64, seed int64) {
	fmt.Println("=== Figure 5 — Experiment 2: Scalability, Dynamoth vs consistent hashing ===")
	fmt.Printf("players ramp %d→%d, 3 updates/s each, 8×8 tile world, ≤8 servers\n\n",
		int(120*scale), int(1200*scale))
	dyn := gameScale(scale, seed, sim.ModeDynamoth)
	fmt.Println("--- Dynamoth (Fig 5a players / 5b messages+servers / 5c response time) ---")
	fmt.Println(dyn.Series.Table())
	ch := gameScale(scale, seed, sim.ModeConsistentHashing)
	fmt.Println("--- Consistent hashing baseline ---")
	fmt.Println(ch.Series.Table())
	fmt.Printf("max players served at ≤150ms: dynamoth=%d  consistent-hashing=%d  (+%.0f%%)\n",
		dyn.MaxHealthyPlayers, ch.MaxHealthyPlayers,
		100*(float64(dyn.MaxHealthyPlayers)/float64(max(1, ch.MaxHealthyPlayers))-1))
	fmt.Printf("steady response time: dynamoth %.1fms (paper ~75ms)\n", dyn.MeanRTms)
	fmt.Printf("rebalances: dynamoth=%d  consistent-hashing=%d\n", dyn.Rebalances, ch.Rebalances)
	fmt.Printf("cloud cost (instance-hours): dynamoth=%.2f  consistent-hashing=%.2f\n",
		dyn.InstanceSeconds/3600, ch.InstanceSeconds/3600)
	fmt.Printf("mean client local-plan size at end: dynamoth=%.1f entries (of %d+ channels in the system)\n",
		dyn.AvgLocalPlanSize, 64)
	fmt.Printf("paper: Dynamoth ~1000 players vs CH ~625 (+60%%)\n\n")
}

func runFig6(scale float64, seed int64) {
	fmt.Println("=== Figure 6 — Experiment 2: per-server load ratios (Dynamoth run) ===")
	dyn := gameScale(scale, seed, sim.ModeDynamoth)
	fmt.Println(dyn.Series.Table())
	fmt.Println("columns avgLR/maxLR are the Fig 6 series; rebalance marks are the diamonds.")
	fmt.Printf("paper: average LR held below 1 until global saturation; busiest below 1 for most of the run\n\n")
}

func runFig7(scale float64, seed int64) {
	fmt.Println("=== Figure 7 — Experiment 3: Elasticity ===")
	high, low, mid := int(800*scale), int(200*scale), int(600*scale)
	phase := time.Duration(float64(400*time.Second) * scale)
	fmt.Printf("players: 0→%d, drop to %d, rise to %d\n\n", high, low, mid)
	res := experiment.RunElasticity(high, low, mid, phase, seed)
	fmt.Println(res.Series.Table())
	fmt.Printf("peak servers %d, final servers %d (released after load drop), rebalances %d, steady RT %.1fms\n",
		res.PeakServers, res.FinalServers, res.Rebalances, res.MeanRTms)
	fmt.Printf("cloud cost: %.2f instance-hours (a fixed 8-server pool would cost %.2f)\n",
		res.InstanceSeconds/3600, 8*(res.Series.Xs()[len(res.Series.Xs())-1])/3600)
	fmt.Printf("paper: servers added on rises, released (with delay) on drops; no latency spikes on scale-down\n\n")
}

func runAblations(seed int64) {
	fmt.Println("=== Ablation A — Algorithm 1 runs unaided ===")
	fmt.Println("Fig 4b's firehose offered to a full Dynamoth deployment with no")
	fmt.Println("manual plan: the balancer must replicate the channel by itself.")
	res := experiment.RunAutoReplication(400, seed)
	fmt.Printf("replication enabled: %v over %d servers (%d plan changes)\n",
		res.ReplicationEnabled, res.Replicas, res.Rebalances)
	fmt.Printf("before: %.1fms at %.0f%%%% delivery   after: %.1fms at %.0f%%%% delivery\n\n",
		res.RTBeforeMs, res.DeliveryBefore*100, res.RTAfterMs, res.DeliveryAfter*100)

	fmt.Println("=== Ablation B — T_wait sweep (Experiment 2 workload, 40% scale) ===")
	rows := experiment.RunTWaitAblation([]time.Duration{
		2 * time.Second, 5 * time.Second, 10 * time.Second, 30 * time.Second,
	}, seed)
	fmt.Println(experiment.TWaitSeries(rows).Table())
	fmt.Println("longer T_wait → fewer plan changes; the default (10s) balances")
	fmt.Println("reaction speed against plan churn.")
	fmt.Println()
}
