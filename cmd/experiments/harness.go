package main

// Shared harness plumbing for the two subprocess soaks (conns, channels):
// building and booting a real dynamoth-node, reading its RSS,
// scraping its /metrics, and — instead of sleeping guessed intervals —
// polling scraped state until the condition the sleep was standing in for
// actually holds.

import (
	"bufio"
	"bytes"
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

// buildNodeBin compiles cmd/dynamoth-node into dir and returns the binary
// path.
func buildNodeBin(dir string) (string, error) {
	nodeBin := filepath.Join(dir, "dynamoth-node")
	build := exec.Command("go", "build", "-o", nodeBin, "./cmd/dynamoth-node")
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
}

// nodeBannerTimeout bounds how long a booted node may take to print both of
// its listen addresses.
const nodeBannerTimeout = 15 * time.Second

// startNode boots a single-server node on loopback ephemeral ports and waits
// for its banner. The bootstrap plan's server set contains the node's own ID
// so bench channels are "right" under the plan (no SWITCH flood), and extra
// flags append to the baseline.
func startNode(nodeBin string, extra ...string) (*nodeProc, error) {
	args := []string{
		"-id", "bench",
		"-servers", "bench",
		"-listen", "127.0.0.1:0",
		"-admin-addr", "127.0.0.1:0",
		"-log-level", "error",
	}
	return bootNode(nodeBannerTimeout, nodeBin, append(args, extra...)...)
}

// bootNode starts bin and reads its banner off stdout. A child that has not
// printed it within bannerTimeout is killed — which is also what ends the
// read, so a child that starts and prints nothing cannot hang the caller —
// and the error carries whatever the child wrote to stderr.
func bootNode(bannerTimeout time.Duration, bin string, args ...string) (*nodeProc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = io.MultiWriter(os.Stderr, &stderr)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	timer := time.AfterFunc(bannerTimeout, func() { cmd.Process.Kill() }) //nolint:errcheck
	respAddr, adminAddr, err := parseNodeBanner(stdout)
	if !timer.Stop() {
		err = fmt.Errorf("no node banner within %v (resp=%q admin=%q)", bannerTimeout, respAddr, adminAddr)
	}
	if err != nil {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck // also drains stderr into the buffer
		return nil, fmt.Errorf("%w; node stderr: %q", err, strings.TrimSpace(stderr.String()))
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck // keep the pipe drained
	return &nodeProc{cmd: cmd, RespAddr: respAddr, AdminAddr: adminAddr}, nil
}

func (n *nodeProc) Pid() int { return n.cmd.Process.Pid }

func (n *nodeProc) Stop() {
	n.cmd.Process.Kill() //nolint:errcheck
	n.cmd.Wait()         //nolint:errcheck
}

// parseNodeBanner extracts the RESP and admin addresses from the node's
// startup lines, reading until it has both or the stream ends.
func parseNodeBanner(r io.Reader) (resp, admin string, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "serving RESP on "); i >= 0 {
			rest := line[i+len("serving RESP on "):]
			resp = strings.Fields(rest)[0]
		}
		if i := strings.Index(line, "admin http on "); i >= 0 {
			admin = strings.TrimSpace(line[i+len("admin http on "):])
		}
		if resp != "" && admin != "" {
			return resp, admin, nil
		}
	}
	return resp, admin, fmt.Errorf("node exited before its banner (resp=%q admin=%q)", resp, admin)
}

// readRSSKB reads VmRSS from /proc/<pid>/status (0 if unavailable).
func readRSSKB(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseInt(fields[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// scrapeFamilies pulls every sample whose name starts with one of the
// prefixes off the node's /metrics, keyed by the full name including labels.
func scrapeFamilies(adminAddr string, prefixes ...string) map[string]float64 {
	out := map[string]float64{}
	resp, err := http.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		matched := false
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				matched = true
				break
			}
		}
		if !matched {
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
	return out
}

// scrapeValue reads one family's current value off /metrics.
func scrapeValue(adminAddr, name string) (float64, bool) {
	v, ok := scrapeFamilies(adminAddr, name)[name]
	return v, ok
}

// awaitCounterAdvance polls /metrics until the named counter exceeds from by
// at least delta — e.g. "the node has built delta more LLA reports than it
// had at from" — at a cadence that keeps the admin endpoint unbothered. It
// replaces the fixed sleeps the soaks used to guess settle intervals with:
// the wait ends the moment the condition the sleep stood in for is actually
// true, and a condition that never comes is a loud error instead of a
// silently under-slept measurement.
func awaitCounterAdvance(adminAddr, name string, from, delta float64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		v, ok := scrapeValue(adminAddr, name)
		if ok && v >= from+delta {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting on %s to reach %v (last %v)", timeout, name, from+delta, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// forceNodeGC makes the node subprocess run a GC and return freed pages to
// the OS (its /debug/freemem admin route), so readRSSKB sees the live set,
// not the allocation high-water mark (best effort).
func forceNodeGC(adminAddr string) {
	resp, err := http.Get("http://" + adminAddr + "/debug/freemem")
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
