package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/obs"
)

// TestLBDaemonIntegration builds the real dynamoth-lb and dynamoth-node
// binaries, boots two nodes and then the LB against them with -admin-addr
// 127.0.0.1:0, and waits until the LB's /statusz shows a load for each node:
// the LB dialed both, subscribed to their LLA reports and decoded them. Its
// /metrics must then be a valid exposition, its profiling routes must serve
// gzipped profiles, and an unknown path and a POST must get 404 and 405.
func TestLBDaemonIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping exec-based integration test in -short mode")
	}
	dir := t.TempDir()
	lbBin, nodeBin := filepath.Join(dir, "dynamoth-lb"), filepath.Join(dir, "dynamoth-node")
	for bin, pkg := range map[string]string{lbBin: ".", nodeBin: "../dynamoth-node"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	var lbArgs []string
	for i, id := range []string{"pub1", "pub2"} {
		addr := startDaemon(t, "serving RESP on ", nodeBin,
			"-id", id,
			"-listen", "127.0.0.1:0",
			"-servers", "pub1,pub2",
			"-node", fmt.Sprint(0xD001+i))
		lbArgs = append(lbArgs, "-node", id+"="+addr)
	}
	admin := startDaemon(t, "admin http on ", lbBin, append(lbArgs, "-admin-addr", "127.0.0.1:0")...)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", admin, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// Each node's LLA reports every 3 s, idle or not.
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		code, body := get("/statusz")
		if code != http.StatusOK {
			t.Fatalf("/statusz = %d %q", code, body)
		}
		var st balancer.BalancerStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/statusz: %v\n%s", err, body)
		}
		if len(st.Loads) == 2 && st.Loads[0].Server == "pub1" && st.Loads[1].Server == "pub2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the LB never heard both nodes' reports: %s", body)
		}
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	fams, err := obs.ValidateExposition(body)
	if err != nil {
		t.Fatalf("/metrics malformed: %v\n%s", err, body)
	}
	for _, want := range []string{"dynamoth_plan_version", "dynamoth_server_utilization_ratio"} {
		if _, ok := fams[want]; !ok {
			t.Errorf("/metrics missing family %s (got %v)", want, fams)
		}
	}

	// The profiling routes come from the runtime itself: gzipped profiles
	// from a live process. Unknown paths are a 404, other methods a 405.
	for _, path := range []string{"/debug/pprof/heap", "/debug/pprof/profile?seconds=1"} {
		code, body := get(path)
		zr, err := gzip.NewReader(strings.NewReader(body))
		var raw []byte
		if err == nil {
			raw, err = io.ReadAll(zr)
		}
		if code != http.StatusOK || err != nil || len(raw) == 0 {
			t.Errorf("%s = %d, %d profile bytes (err %v)", path, code, len(raw), err)
		}
	}
	if code, _ := get("/debug/nope"); code != http.StatusNotFound {
		t.Errorf("/debug/nope = %d, want 404", code)
	}
	post, err := http.Post(fmt.Sprintf("http://%s/metrics", admin), "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

// startDaemon runs bin with args until the test ends and returns the first
// word its stdout prints after prefix (a bound address).
func startDaemon(t *testing.T, prefix, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), prefix); ok {
				select {
				case found <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-found:
		return addr
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never printed %q", filepath.Base(bin), prefix)
		return ""
	}
}
