package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/server"
)

// Channel-soak knobs. The node runs with deliberately small hot-state caps
// so both checkpoints land after every cache is full: any RSS growth between
// them is a per-channel leak, not a cache filling to its bound.
const (
	soakTopKCap      = obs.DefaultLatencyTopKCap
	soakChannelCap   = 8192 // -channel-cap
	soakWorkingSet   = 1024 // channels in the steady-state publish loop
	soakSteadyOps    = 50_000
	soakPayloadBytes = 64
	// The warmup fills every working-set replay ring to its depth, then
	// sweeps throwaway channels until the table that only samples
	// publications (soakTopKCap channels) is full too — twice what that
	// takes: the first checkpoint's own sweep is too short for it at CI
	// scale.
	soakWarmupOps   = soakWorkingSet * server.DefaultReplayDepth
	soakWarmupSweep = 2 * soakTopKCap << obs.DefaultSampleShift

	// Bounds the run must meet: RSS flat from the first checkpoint to the
	// second, and the node's RSS at the target under an absolute ceiling —
	// about 1.5× the 31–36 MiB this configuration measures, and far under what
	// it would cost to size each of the soakChannelCap one-frame rings ahead of
	// its contents (10 KiB of empty slots apiece, +80 MiB), which a ratio of
	// two readings that both include it cannot see.
	soakMaxRSSRatio    = 1.10
	soakMaxServerRSSKB = 56 << 10
)

// runChannels is the million-channel soak: a real dynamoth-node subprocess
// with bounded hot-state caches takes one publication on each of `target`
// distinct channels from a real client over TCP. RSS on both sides is read
// at target/10 and at target; with every per-channel map bounded, the two
// readings must agree within noise — memory is O(cap), not O(channels) — and
// the node's reading at target must sit under soakMaxServerRSSKB, or the run
// is an error.
// Steady-state publish throughput and allocations are measured at both
// checkpoints over a fixed working set (the rate must be positive), and the
// node's hotstate families are scraped: every cache must be bounded and at or
// under its capacity, and the sampled channel table must have evicted.
func runChannels(target int) error {
	if target < 10 {
		return fmt.Errorf("-channels must be at least 10, got %d", target)
	}
	fmt.Println("=== Channel soak — bounded hot-state caches under an unbounded namespace ===")
	fmt.Printf("target %d distinct channels; node caps: channels=%d topk=%d; RSS checkpoints at %d and %d\n\n",
		target, soakChannelCap, soakTopKCap, target/10, target)

	binDir, err := os.MkdirTemp("", "dynamoth-channels-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(binDir)
	nodeBin, err := buildNodeBin(binDir)
	if err != nil {
		return err
	}

	node, err := startNode(nodeBin, "-channel-cap", strconv.Itoa(soakChannelCap))
	if err != nil {
		return err
	}
	defer node.Stop()
	adminAddr := node.AdminAddr

	client, err := dynamoth.Connect(dynamoth.Config{
		Addrs:  map[string]string{"bench": node.RespAddr},
		NodeID: 0xC0DE,
	})
	if err != nil {
		return fmt.Errorf("connecting client: %w", err)
	}
	defer client.Close()

	// Fixed working set for the steady-state measurements: names are
	// pre-generated so the loop measures the publish path, not fmt.
	working := make([]string, soakWorkingSet)
	for i := range working {
		working[i] = "steady." + strconv.Itoa(i)
	}
	payload := make([]byte, soakPayloadBytes)

	sweep := func(prefix string, from, to int) error {
		for i := from; i < to; i++ {
			if err := client.Publish(prefix+strconv.Itoa(i), payload); err != nil {
				return fmt.Errorf("publish channel %d: %w", i, err)
			}
			if (i+1)%100_000 == 0 {
				fmt.Printf("  swept %d channels\n", i+1)
			}
		}
		return nil
	}

	// Warmup: one throwaway steady-state burst plus a seal cycle, so both
	// checkpoints compare against the same established heap high-water
	// (GC pacing, connection buffers, the LLA's first full-cap seals). The
	// burst is flushed to the broker, then the wait ends when the node has
	// actually built its first LLA report — not after a guessed sleep that
	// under-waits on a loaded machine.
	for i := 0; i < soakWarmupOps; i++ {
		if err := client.Publish(working[i%len(working)], payload); err != nil {
			return fmt.Errorf("warmup publish: %w", err)
		}
	}
	if err := sweep("warm.", 0, soakWarmupSweep); err != nil {
		return err
	}
	if err := client.Flush(30 * time.Second); err != nil {
		return fmt.Errorf("warmup flush: %w", err)
	}
	if err := awaitCounterAdvance(adminAddr, "dynamoth_node_lla_reports_total", 0, 1, 30*time.Second); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}

	tenth := target / 10
	start := time.Now()
	if err := sweep("soak.", 0, tenth); err != nil {
		return err
	}
	at10, err := channelsCheckpoint(client, node.Pid(), adminAddr, working, payload)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint %d: server RSS %d KB, client RSS %d KB, steady %.0f msg/s at %.1f allocs/op\n",
		tenth, at10.ServerRSSKB, at10.ClientRSSKB, at10.SteadyPublishPerSec, at10.SteadyAllocsPerOp)

	if err := sweep("soak.", tenth, target); err != nil {
		return err
	}
	atFull, err := channelsCheckpoint(client, node.Pid(), adminAddr, working, payload)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint %d: server RSS %d KB, client RSS %d KB, steady %.0f msg/s at %.1f allocs/op\n",
		target, atFull.ServerRSSKB, atFull.ClientRSSKB, atFull.SteadyPublishPerSec, atFull.SteadyAllocsPerOp)

	hotstate := scrapeFamilies(adminAddr, "dynamoth_node_hotstate")
	topkEvictions := hotstate[`dynamoth_node_hotstate_evictions_total{cache="topk"}`]
	serverRatio := ratio(atFull.ServerRSSKB, at10.ServerRSSKB)
	clientRatio := ratio(atFull.ClientRSSKB, at10.ClientRSSKB)
	fmt.Printf("\nRSS growth %d→%d channels: server ×%.3f, client ×%.3f (≤ %.2f); server RSS %d KB (≤ %d KB); top-K evictions %.0f; sweep %v\n",
		tenth, target, serverRatio, clientRatio, soakMaxRSSRatio, atFull.ServerRSSKB, soakMaxServerRSSKB,
		topkEvictions, time.Since(start).Round(time.Millisecond))

	if serverRatio > soakMaxRSSRatio || clientRatio > soakMaxRSSRatio {
		return fmt.Errorf("RSS grew with the channel namespace: server ×%.3f, client ×%.3f, want ≤ %.2f", serverRatio, clientRatio, soakMaxRSSRatio)
	}
	if atFull.ServerRSSKB > soakMaxServerRSSKB {
		return fmt.Errorf("server RSS %d KB at %d channels, want ≤ %d KB", atFull.ServerRSSKB, target, soakMaxServerRSSKB)
	}
	// Every cache the node exports must be bounded and within its bound.
	const capPrefix = `dynamoth_node_hotstate_capacity{cache="`
	caches := 0
	for name, capacity := range hotstate {
		cache, ok := strings.CutPrefix(name, capPrefix)
		if !ok {
			continue
		}
		caches++
		size := hotstate[`dynamoth_node_hotstate_size{cache="`+cache]
		if capacity <= 0 || size > capacity {
			return fmt.Errorf("hotstate cache %s holds %.0f entries against capacity %.0f", strings.TrimSuffix(cache, `"}`), size, capacity)
		}
	}
	if caches == 0 {
		return fmt.Errorf("node exports no dynamoth_node_hotstate_capacity family")
	}
	if topkEvictions <= 0 {
		return fmt.Errorf("channel table never evicted: the sweep did not pass its capacity")
	}
	if atFull.SteadyPublishPerSec <= 0 {
		return fmt.Errorf("steady publish rate %.0f msg/s at %d channels", atFull.SteadyPublishPerSec, target)
	}
	return nil
}

// channelsResult is one checkpoint's measurements.
type channelsResult struct {
	ServerRSSKB         int64
	ClientRSSKB         int64
	SteadyPublishPerSec float64
	SteadyAllocsPerOp   float64
}

// channelsCheckpoint runs the steady-state publish measurement over the
// fixed working set, waits out one LLA report cycle so the node's seal and
// report-marshal paths have hit their allocation high-water, then forces a
// GC on both sides (the node through its pprof heap endpoint, this process
// directly) and reads both RSS figures. RSS is read last on purpose: Go
// keeps freed pages at the high-water mark, so each checkpoint must include
// the same steady-state churn for the two readings to be comparable.
func channelsCheckpoint(client *dynamoth.Client, nodePid int, adminAddr string, working []string, payload []byte) (*channelsResult, error) {
	res := &channelsResult{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < soakSteadyOps; i++ {
		if err := client.Publish(working[i%len(working)], payload); err != nil {
			return nil, fmt.Errorf("steady publish: %w", err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	res.SteadyPublishPerSec = float64(soakSteadyOps) / elapsed.Seconds()
	res.SteadyAllocsPerOp = float64(after.Mallocs-before.Mallocs) / soakSteadyOps

	// Drain the burst to the broker, then wait for the node to have sealed
	// and marshaled at least one full LLA report *after* it — the
	// report-marshal path must hit its allocation high-water before RSS is
	// read. The old fixed 3.5s sleep under-waited whenever CI was loaded
	// (tickers fire late under contention) and over-waited everywhere else.
	if err := client.Flush(30 * time.Second); err != nil {
		return nil, fmt.Errorf("checkpoint flush: %w", err)
	}
	reportsBefore, _ := scrapeValue(adminAddr, "dynamoth_node_lla_reports_total")
	if err := awaitCounterAdvance(adminAddr, "dynamoth_node_lla_reports_total", reportsBefore, 1, 30*time.Second); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	// Min-until-stable sampling: a single reading races GC pacing and the
	// scavenger on both sides, so GC both processes and re-read until the
	// minimum stops improving (two consecutive samples without a >1% drop),
	// bounded at eight rounds. The forced-GC HTTP round trip is the natural
	// pacing between samples.
	stable := 0
	for i := 0; i < 8 && stable < 2; i++ {
		forceNodeGC(adminAddr)
		runtime.GC()
		debug.FreeOSMemory()
		server, client := readRSSKB(nodePid), readRSSKB(os.Getpid())
		improved := false
		if res.ServerRSSKB == 0 || server < res.ServerRSSKB {
			improved = improved || res.ServerRSSKB != 0 && float64(res.ServerRSSKB-server) > 0.01*float64(res.ServerRSSKB)
			res.ServerRSSKB = server
		}
		if res.ClientRSSKB == 0 || client < res.ClientRSSKB {
			improved = improved || res.ClientRSSKB != 0 && float64(res.ClientRSSKB-client) > 0.01*float64(res.ClientRSSKB)
			res.ClientRSSKB = client
		}
		if i == 0 || improved {
			stable = 0
		} else {
			stable++
		}
	}
	return res, nil
}
