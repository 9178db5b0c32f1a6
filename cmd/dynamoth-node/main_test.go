package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/trace"
)

// TestAdminEndpointIntegration builds the real dynamoth-node binary, boots it
// with -admin-addr 127.0.0.1:0, discovers the bound port from stdout, and
// scrapes /metrics and /healthz over HTTP — the same flow the CI obs job and
// a production Prometheus would use. The test fails on malformed exposition.
func TestAdminEndpointIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping exec-based integration test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "dynamoth-node")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dynamoth-node: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-id", "pub1",
		"-listen", "127.0.0.1:0",
		"-admin-addr", "127.0.0.1:0",
		"-servers", "pub1",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting node: %v", err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The node prints "admin http on <addr>" once the admin listener is up.
	adminAddr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "admin http on "); ok {
				adminAddr <- strings.TrimSpace(rest)
			}
		}
	}()
	var addr string
	select {
	case addr = <-adminAddr:
	case <-time.After(10 * time.Second):
		t.Fatal("node never announced its admin address")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
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

	code, body := get("/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	fams, err := obs.ValidateExposition(body)
	if err != nil {
		t.Fatalf("/metrics malformed: %v\n%s", err, body)
	}
	for _, want := range []string{
		"dynamoth_broker_published_total",
		"dynamoth_broker_sessions",
		"dynamoth_broker_conn_doorbells_total",
		"dynamoth_broker_conn_adopted_flushes_total",
		"dynamoth_broker_conn_handoffs_total",
		"dynamoth_broker_replay_bytes",
		"dynamoth_plan_version",
		"dynamoth_e2e_latency_seconds",
		"dynamoth_reconfig_plan_applies_total",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("/metrics missing family %s (got %v)", want, fams)
		}
	}

	code, body = get("/statusz")
	if code != http.StatusOK || !strings.Contains(body, `"planVersion"`) {
		t.Fatalf("/statusz = %d %q", code, body)
	}

	// The flight-recorder endpoints: a freshly booted node has few (possibly
	// zero) events, but the stream must already be schema-valid JSONL and the
	// timeline document a JSON array.
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/events", addr))
	if err != nil {
		t.Fatalf("GET /debug/events: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/jsonl") {
		t.Errorf("/debug/events Content-Type = %q", ct)
	}
	if _, err := trace.ValidateJSONL(resp.Body); err != nil {
		t.Errorf("/debug/events stream invalid: %v", err)
	}
	resp.Body.Close()

	code, body = get("/debug/rebalances")
	if code != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Fatalf("/debug/rebalances = %d %q", code, body)
	}
}
