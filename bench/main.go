// Command bench is the repository's performance benchmark: it boots a real
// dynamoth-node subprocess with default flags, drives four seeded workloads
// at it from this one generator process, verifies every delivery, and prints
// each end-to-end metric by name with its unit; a separate traced run times
// calls into each layer to produce the per-layer ledger and a
// layers-vs-end-to-end reconciliation. See README.md in this directory.
//
// The benchmark driver runs one workload per invocation:
//
//	bash bench/run.sh --workload small_1to1 --seed 1 --seconds 24 --trace 0
//
// and reads the last line of standard output. Without --workload the whole
// suite runs (every workload, untraced then traced); -repeat 2 runs it twice
// and checks the two sets of readings against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 24

// setupsPerRun is how many times an untraced run sets up, a quarter of them
// before each phase and after the last; setup_s is the median.
const setupsPerRun = 16

// cli is the parsed command line.
type cli struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
	outDir   string
}

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "run one workload and print the driver's result line (default: the whole suite)")
	flag.Int64Var(&c.seed, "seed", 1, "seeds channel choice, Zipf draws and churn arrivals")
	flag.Float64Var(&c.seconds, "seconds", defaultSeconds, "measured seconds per workload run (cruise + sat + ramp)")
	flag.IntVar(&c.trace, "trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only, -1: both (suite mode)")
	flag.IntVar(&c.repeat, "repeat", 1, "run the end-to-end suite this many times and compare the readings against the bounds")
	flag.BoolVar(&c.smoke, "smoke", false, "1 s phases, one set-up, conservation checks only — timings are not meaningful")
	flag.StringVar(&c.outDir, "out", "", "directory a traced run writes its spans to (default: .bench_build/trace)")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(c cli) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if err := spec.check(); err != nil {
		return err
	}
	nodeBin, err := buildNodeBin(root)
	if err != nil {
		return err
	}
	o := runOpts{nodeBin: nodeBin, seed: c.seed, seconds: c.seconds, setups: setupsPerRun, outDir: c.outDir}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, ".bench_build", "trace")
	}
	if c.smoke {
		o.seconds, o.setups = 3, 1
	}
	prov := provenance(root, c.seed)

	if c.workload != "" {
		w, ok := workloadByName(c.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", c.workload)
		}
		res, err := runOne(w, o, c.trace == 1)
		if err != nil {
			return err
		}
		printReport(prov, res)
		// The driver's line: exactly these four keys, last on stdout.
		line, err := json.Marshal(map[string]any{
			"correct": res.correct(), "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.correct() {
			return fmt.Errorf("%s: invalid run: %d failed, gates: %s", w.Name, res.Failed, strings.Join(res.Invalid, "; "))
		}
		return nil
	}

	fmt.Printf("provenance %s\n", mustJSON(prov))
	var sets [][]*result
	bad := false
	for r := 0; r < c.repeat; r++ {
		var set []*result
		for _, w := range workloads {
			if c.trace != 1 {
				res, err := runOne(w, o, false)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				printResult(res)
				set = append(set, res)
				bad = bad || !res.correct()
			}
			if c.trace != 0 && r == 0 && !c.smoke {
				res, err := runOne(w, o, true)
				if err != nil {
					return fmt.Errorf("%s (traced): %w", w.Name, err)
				}
				printResult(res)
				bad = bad || !res.correct()
			}
		}
		sets = append(sets, set)
	}
	if c.repeat > 1 && c.trace != 1 {
		bad = bad || !compareSets(spec, sets)
	}
	if bad {
		return fmt.Errorf("invalid run, failed operations or a bound breached (see above)")
	}
	return nil
}

// runOne runs one workload once. A run in which operations failed and the
// node had disconnected subscribers of the generator as slow consumers is
// run again, once: the node sheds a consumer that stops reading, by design,
// and on these machines a vCPU frozen for a few hundred milliseconds stops
// the generator reading — what is lost then measures the machine. A failure
// that repeats, or that came without such a disconnect, stands.
func runOne(w workload, o runOpts, traced bool) (*result, error) {
	run := runWorkload
	if traced {
		run = runTraced
	}
	res, err := run(w, o)
	if err != nil || res.Failed == 0 || res.slowConsumerDrops == 0 {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d operations failed after the node dropped %d slow consumers; running again\n", w.Name, res.Failed, res.slowConsumerDrops)
	first := res
	if res, err = run(w, o); err == nil {
		res.Detail["first_attempt"] = map[string]any{
			"failed": first.Failed, "failures": first.Detail["failures"], "loss_report": first.Detail["loss_report"],
		}
	}
	return res, err
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// printReport is the driver-mode preamble: one JSON line with provenance
// and everything behind the metrics.
func printReport(prov map[string]any, res *result) {
	fmt.Printf("report %s\n", mustJSON(map[string]any{"provenance": prov, "result": res}))
}

// printResult prints one workload's metrics by name and unit.
func printResult(res *result) {
	status := "ok"
	if !res.correct() {
		status = "INVALID: " + strings.Join(res.Invalid, "; ")
	}
	fmt.Printf("\n== %s  attempted=%d failed=%d  %s\n", res.Workload, res.Attempted, res.Failed, status)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %16.4f %s\n", n, m.Value, m.Unit)
	}
	if wall, ok := res.Detail["wall_clock"].(map[string]metric); ok {
		for _, m := range wallClockMetrics {
			fmt.Printf("%-40s %16.4f %s (no bound: unresolved on a shared machine)\n", m.Name, wall[m.Name].Value, wall[m.Name].Unit)
		}
	}
	fmt.Printf("detail %s\n", mustJSON(res.Detail))
}

// provenance is the commit + machine fingerprint printed with every output.
func provenance(root string, seed int64) map[string]any {
	git := func(args ...string) string {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			return ""
		}
		return strings.TrimSpace(string(out))
	}
	sha, dirty := git("rev-parse", "HEAD"), false
	if sha == "" {
		sha = "unknown (not a git checkout)"
	} else {
		dirty = git("status", "--porcelain") != ""
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	rates := map[string]any{}
	for _, w := range workloads {
		rates[w.Name] = map[string]float64{"cruise": w.CruiseRate, "ramp_lo": w.RampLo, "ramp_hi": w.RampHi}
	}
	// The node is started without GOMAXPROCS in its environment unless the
	// caller's has one, so it resolves the same value this process does.
	return map[string]any{
		"git_sha": sha, "git_dirty": dirty,
		"nproc": runtime.NumCPU(), "cpu_model": cpu, "kernel": kernel,
		"go_version": runtime.Version(), "gomaxprocs_generator": runtime.GOMAXPROCS(0), "gomaxprocs_node": runtime.GOMAXPROCS(0),
		"seed": seed, "frozen_rates_msgs_per_s": rates,
		"network": "loopback TCP, generator and node share the machine's cores",
	}
}
