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
	"strconv"
	"strings"
	"testing"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/server"
	"github.com/dynamoth/dynamoth/internal/trace"
)

// TestAdminEndpointIntegration builds the real dynamoth-node binary, boots it
// with -admin-addr 127.0.0.1:0, discovers the bound port from stdout, and
// scrapes /metrics and /healthz over HTTP — the same flow the CI obs job and
// a production Prometheus would use. The test fails on malformed exposition,
// on a flight-recorder stream that breaks its schema or its ?since= cursor
// contract, on profiling routes that serve no profile, on an unknown path
// or a POST answered other than 404 and 405, and — after real traffic — on a
// /debug/latency waterfall whose stages do not decompose the end-to-end
// figure.
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

	// The node prints "… serving RESP on <addr> …", then "admin http on
	// <addr>" once the admin listener is up.
	addrs := make(chan [2]string, 1)
	go func() {
		var respAddr string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving RESP on "); ok {
				respAddr, _, _ = strings.Cut(rest, " ")
			}
			if rest, ok := strings.CutPrefix(line, "admin http on "); ok {
				addrs <- [2]string{respAddr, strings.TrimSpace(rest)}
			}
		}
	}()
	var respAddr, addr string
	select {
	case a := <-addrs:
		respAddr, addr = a[0], a[1]
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
	if resp.Header.Get("X-Trace-Seq") == "" {
		t.Error("/debug/events carries no X-Trace-Seq cursor header")
	}
	if _, err := trace.ValidateJSONL(resp.Body); err != nil {
		t.Errorf("/debug/events stream invalid: %v", err)
	}
	resp.Body.Close()

	// ?since= pagination: a cursor past the head returns an empty stream, a
	// malformed cursor is a 400.
	if code, body = get("/debug/events?since=1000000"); code != http.StatusOK || body != "" {
		t.Errorf("/debug/events past the head = %d %q, want 200 and no events", code, body)
	}
	if code, _ = get("/debug/events?since=banana"); code != http.StatusBadRequest {
		t.Errorf("/debug/events?since=banana = %d, want 400", code)
	}

	code, body = get("/debug/rebalances")
	if code != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Fatalf("/debug/rebalances = %d %q", code, body)
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
	post, err := http.Post(fmt.Sprintf("http://%s/metrics", addr), "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", post.StatusCode)
	}

	// The latency waterfall, after real traffic: 30 stamped publications
	// from a real client to its own subscription.
	const published = 30
	channels := func() int {
		_, body := get("/metrics")
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, "dynamoth_broker_channels "); ok {
				n, _ := strconv.Atoi(v)
				return n
			}
		}
		return 0
	}
	idle := channels()
	client, err := dynamoth.Connect(dynamoth.Config{Addrs: map[string]string{"pub1": respAddr}, NodeID: 7})
	if err != nil {
		t.Fatalf("connecting client to %s: %v", respAddr, err)
	}
	defer client.Close()
	msgs, err := client.Subscribe("arena")
	if err != nil {
		t.Fatal(err)
	}
	// SUBSCRIBE and PUBLISH travel on different sockets: wait until the node
	// holds both of the client's channels (inbox and arena) before sending.
	for deadline := time.Now().Add(5 * time.Second); channels() < idle+2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node never registered the client's subscriptions (channels %d → %d)", idle, channels())
		}
	}
	for i := 0; i < published; i++ {
		if err := client.Publish("arena", []byte("tick")); err != nil {
			t.Fatal(err)
		}
	}
	for i, timeout := 0, time.After(10*time.Second); i < published; i++ {
		select {
		case <-msgs:
		case <-timeout:
			t.Fatalf("received %d of %d publications", i, published)
		}
	}
	// The node's observers run after the fan-out that delivered the last
	// message, fanout stage last; /debug/latency is read once, since each
	// read closes the slow-channel window.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		_, body = get("/metrics")
		if strings.Contains(body, fmt.Sprintf("dynamoth_stage_latency_fanout_seconds_count %d\n", published)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never observed %d fanout stages:\n%s", published, body)
		}
	}
	code, body = get("/debug/latency")
	if code != http.StatusOK {
		t.Fatalf("/debug/latency status = %d", code)
	}
	var wf server.Waterfall
	if err := json.Unmarshal([]byte(body), &wf); err != nil {
		t.Fatalf("/debug/latency: %v\n%s", err, body)
	}
	if wf.Server != "pub1" || wf.E2E.Count != published {
		t.Errorf("waterfall server %q with %d e2e observations, want pub1 with %d", wf.Server, wf.E2E.Count, published)
	}
	if len(wf.Stages) != 3 || wf.Stages[0].Stage != "ingress" || wf.Stages[1].Stage != "fanout" || wf.Stages[2].Stage != "flush" {
		t.Fatalf("waterfall stages = %+v, want ingress, fanout, flush", wf.Stages)
	}
	ingress, fanout := wf.Stages[0], wf.Stages[1]
	for _, st := range []server.StageSummary{ingress, fanout} {
		if st.Count == 0 || st.P99ms <= 0 {
			t.Errorf("stage %s unobserved: %+v", st.Stage, st)
		}
	}
	// Ingress + fanout decompose the broker-side e2e exactly per observation,
	// so their p99 sum may exceed the e2e p99 by at most one log-bucket step
	// (~8%) plus quantization slack.
	if sum := ingress.P99ms + fanout.P99ms; sum > wf.E2E.P99ms*1.09+0.2 {
		t.Errorf("stage p99 sum %.3f ms against e2e p99 %.3f ms", sum, wf.E2E.P99ms)
	}
	if len(wf.SlowChannels) == 0 {
		t.Errorf("no slow channel ranked:\n%s", body)
	}
}

// TestDaemonsLinkNoHTTPStack keeps net/http and crypto/tls out of the node
// and LB binaries. The admin plane is obs.Mux; either package would link
// TLS, x509 and an HTTP/2 server back in — half the node binary and most of
// an idle node's resident set (DESIGN.md §12).
func TestDaemonsLinkNoHTTPStack(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go list in -short mode")
	}
	out, err := exec.Command("go", "list", "-deps",
		"-f", `{{.ImportPath}}{{range .Imports}} {{.}}{{end}}`, ".", "../dynamoth-lb").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	listed := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if strings.HasSuffix(pkg, "/cmd/dynamoth-node") || strings.HasSuffix(pkg, "/cmd/dynamoth-lb") {
			listed++
		}
		for _, imp := range strings.Fields(imports) {
			if imp == "net/http" || imp == "crypto/tls" {
				t.Errorf("%s imports %s", pkg, imp)
			}
		}
	}
	if listed != 2 {
		t.Fatalf("go list named %d of the two daemons:\n%s", listed, out)
	}
}
