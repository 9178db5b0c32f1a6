package main

// Subprocess plumbing: build and boot a real dynamoth-node, scrape its admin
// endpoint, read its CPU and memory from /proc. Copied from
// cmd/experiments/harness.go rather than imported (that file is package
// main); folding the old harness onto this one is a later issue.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// repoRoot finds the checkout root: the nearest ancestor of the working
// directory holding cmd/dynamoth-node.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dynamoth-node", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/dynamoth-node above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildNodeBin compiles cmd/dynamoth-node into <root>/.bench_build and
// returns the binary path. Build time is never part of setup_s.
func buildNodeBin(root string) (string, error) {
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	nodeBin := filepath.Join(out, "dynamoth-node")
	build := exec.Command("go", "build", "-o", nodeBin, "./cmd/dynamoth-node")
	build.Dir = root
	build.Stdout = os.Stderr
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("building dynamoth-node: %w", err)
	}
	return nodeBin, nil
}

// nodeProc is one booted dynamoth-node subprocess.
type nodeProc struct {
	cmd       *exec.Cmd
	RespAddr  string
	AdminAddr string
	exited    chan struct{} // closed once the process has been reaped
}

// startNode boots a single-server node with default flags on loopback
// ephemeral ports and waits for its banner. The bootstrap plan's server set
// is the node's own ID, so every bench channel is "right" under the plan.
func startNode(nodeBin string) (*nodeProc, error) {
	cmd := exec.Command(nodeBin,
		"-id", "bench",
		"-servers", "bench",
		"-listen", "127.0.0.1:0",
		"-admin-addr", "127.0.0.1:0",
		"-log-level", "error",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &nodeProc{cmd: cmd, exited: make(chan struct{})}
	n.RespAddr, n.AdminAddr, err = parseNodeBanner(stdout)
	go func() {
		io.Copy(io.Discard, stdout) //nolint:errcheck // keep the pipe drained
		cmd.Wait()                  //nolint:errcheck // exit status is not a result
		close(n.exited)
	}()
	if err != nil {
		n.Stop()
		return nil, err
	}
	return n, nil
}

func (n *nodeProc) Pid() int { return n.cmd.Process.Pid }

// Alive reports whether the node is still running.
func (n *nodeProc) Alive() bool {
	select {
	case <-n.exited:
		return false
	default:
		return true
	}
}

// Stop kills the node and waits until it has been reaped.
func (n *nodeProc) Stop() {
	n.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-n.exited
}

// parseNodeBanner extracts the RESP and admin addresses from the node's
// startup lines.
func parseNodeBanner(r io.Reader) (resp, admin string, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "serving RESP on "); i >= 0 {
			resp = strings.Fields(line[i+len("serving RESP on "):])[0]
		}
		if i := strings.Index(line, "admin http on "); i >= 0 {
			admin = strings.TrimSpace(line[i+len("admin http on "):])
		}
		if resp != "" && admin != "" {
			return resp, admin, nil
		}
	}
	return "", "", fmt.Errorf("node banner not found (resp=%q admin=%q)", resp, admin)
}

// procCPU reads utime+stime of pid from /proc/<pid>/stat. The kernel reports
// clock ticks of 1/100 s (USER_HZ is 100 on every Linux ABI).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/<pid>/status
// (VmHWM is the peak resident set).
func procStatusKB(pid int, key string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				return strconv.ParseInt(fields[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// scrapeFamilies pulls every unlabelled-or-labelled sample whose name starts
// with prefix off the node's /metrics, keyed by the full sample name.
func scrapeFamilies(adminAddr, prefix string) (map[string]float64, error) {
	resp, err := http.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out, sc.Err()
}

// awaitMetric polls /metrics until pred accepts the named sample. A
// condition that never comes is a loud error, not an under-slept run.
func awaitMetric(adminAddr, name string, timeout time.Duration, pred func(float64) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		fams, err := scrapeFamilies(adminAddr, name)
		v, ok := fams[name]
		if err == nil && ok && pred(v) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting on %s (last %v, err %v)", timeout, name, v, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// forceNodeGC makes the node run a GC and return freed pages to the OS (its
// /debug/freemem admin route), so VmRSS reads the live set.
func forceNodeGC(adminAddr string) error {
	resp, err := http.Get("http://" + adminAddr + "/debug/freemem")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/freemem: %s", resp.Status)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// stageSummary is one entry of the node's /debug/latency stages list.
type stageSummary struct {
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	P50ms float64 `json:"p50Ms"`
	P99ms float64 `json:"p99Ms"`
}

// fetchStages reads the node's waterfall stage digests.
func fetchStages(adminAddr string) ([]stageSummary, error) {
	resp, err := http.Get("http://" + adminAddr + "/debug/latency")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/latency: %s", resp.Status)
	}
	var wf struct {
		Stages []stageSummary `json:"stages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wf); err != nil {
		return nil, err
	}
	return wf.Stages, nil
}
