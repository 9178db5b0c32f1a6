package obs

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// serve answers m on a free loopback port until the test ends and returns
// the base URL.
func serve(t *testing.T, m *Mux) string {
	t.Helper()
	ln, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	return "http://" + ln.Addr().String()
}

func get(t *testing.T, base, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestAdminMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("admin_test_total", "x.", func() uint64 { return 7 })
	status := func() any { return map[string]int{"sessions": 2} }
	base := serve(t, NewAdminMux(reg, status))

	code, body, hdr := get(t, base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "admin_test_total 7\n") {
		t.Errorf("/metrics body missing counter:\n%s", body)
	}
	if _, err := ValidateExposition(body); err != nil {
		t.Errorf("/metrics invalid: %v", err)
	}

	code, body, _ = get(t, base, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body, _ = get(t, base, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status = %d", code)
	}
	var doc map[string]int
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if doc["sessions"] != 2 {
		t.Fatalf("/statusz doc = %v", doc)
	}

	code, body, _ = get(t, base, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

func TestAdminMuxNilStatus(t *testing.T) {
	base := serve(t, NewAdminMux(NewRegistry(), nil))
	code, body, _ := get(t, base, "/statusz")
	if code != http.StatusOK || strings.TrimSpace(body) != "{}" {
		t.Fatalf("/statusz with nil status = %d %q", code, body)
	}
}

func TestServePicksFreePort(t *testing.T) {
	ln, err := Serve("127.0.0.1:0", NewAdminMux(NewRegistry(), nil))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestAdminMuxStatuses: GET and HEAD reach the handlers, every other method
// is a 405 naming the allowed ones, an unknown path a 404 and a request line
// without a version a 400; every answer closes the connection.
func TestAdminMuxStatuses(t *testing.T) {
	base := serve(t, NewAdminMux(NewRegistry(), nil))

	resp, err := http.Post(base+"/healthz", "text/plain", strings.NewReader("ignored body"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Fatalf("POST /healthz = %d, Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	resp, err = http.Head(base + "/healthz")
	if err != nil {
		t.Fatalf("HEAD: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len("ok\n")) {
		t.Fatalf("HEAD /healthz = %d, Content-Length %d", resp.StatusCode, resp.ContentLength)
	}

	if code, _, _ := get(t, base, "/nope"); code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", code)
	}
	if code, _, _ := get(t, base, "/debug/pprof/nope"); code != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/nope = %d, want 404", code)
	}

	if out := rawRequest(t, base, "GET /healthz\r\n\r\n"); !strings.HasPrefix(out, "HTTP/1.1 400 Bad Request\r\n") ||
		!strings.Contains(out, "\r\nConnection: close\r\n") {
		t.Fatalf("versionless request line answered %q", out)
	}
	// A head past the cap is dropped unanswered.
	if out := rawRequest(t, base, "GET /healthz HTTP/1.1\r\nX-Pad: "+strings.Repeat("a", maxHead)+"\r\n\r\n"); out != "" {
		t.Fatalf("oversize head answered %q", out)
	}
}

// rawRequest writes req on a fresh connection to base and returns all the
// responder sends back before it closes.
func rawRequest(t *testing.T, base, req string) string {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	out, err := io.ReadAll(c)
	if err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("reading the answer to %.40q: %v", req, err)
	}
	return string(out)
}

// TestAdminPprof: the runtime's profiles come from runtime/pprof directly —
// gzipped protobuf by default, text with ?debug=1 — and the CPU profile
// honours ?seconds=.
func TestAdminPprof(t *testing.T) {
	base := serve(t, NewAdminMux(NewRegistry(), nil))
	for _, path := range []string{"/debug/pprof/heap?gc=1", "/debug/pprof/profile?seconds=1"} {
		code, body, hdr := get(t, base, path)
		if code != http.StatusOK || hdr.Get("Content-Type") != octetStream {
			t.Fatalf("%s = %d %q", path, code, hdr.Get("Content-Type"))
		}
		if err := checkGzip(body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	code, body, _ := get(t, base, "/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK || !strings.Contains(body, "goroutine profile: total") {
		t.Fatalf("/debug/pprof/goroutine?debug=1 = %d %q", code, body)
	}
	if code, body, _ = get(t, base, "/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

// checkGzip reports why body is not a non-empty gzip stream.
func checkGzip(body string) error {
	zr, err := gzip.NewReader(strings.NewReader(body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err == nil && len(raw) == 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// headEnd returns the length of the request head at the start of in —
// through the first line that is empty once its LF or CRLF ending is cut —
// or -1 when in holds no complete head.
func headEnd(in []byte) int {
	for off := 0; ; {
		i := bytes.IndexByte(in[off:], '\n')
		if i < 0 {
			return -1
		}
		line := in[off : off+i]
		off += i + 1
		if len(line) == 0 || string(line) == "\r" {
			return off
		}
	}
}

var statusLine = regexp.MustCompile(`^HTTP/1\.1 [1-5][0-9][0-9] [^\r\n]*\r\n`)

// fuzzMaxHead is the head cap FuzzAdminRequest serves under: small, so the
// engine reaches the cap often and keeps its inputs short.
const fuzzMaxHead = 96

// FuzzAdminRequest feeds arbitrary bytes to the responder as one
// connection's input. It must not panic; it must write exactly one
// well-formed response when the input starts with a complete head within
// the cap and nothing otherwise; and only GET and HEAD may reach a handler.
func FuzzAdminRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /r?a=1&b=%20x HTTP/1.1\r\nHost: admin\r\n\r\n",
		"POST /r HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"GET /r\r\n\r\n",
		"GET /r HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", fuzzMaxHead) + "\r\n\r\n",
		"GET /r HTTP/1.1\nHost: admin\n\n",
		"GET /r?a=%zz HTTP/1.1\r\n\r\n",
		"GET /r%zz HTTP/1.1\r\n\r\n",
		"GET http://admin:9101/r?a=1 HTTP/1.1\r\n\r\n",
		"HEAD /r HTTP/1.0\r\n\r\n",
		"HEAD\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var calls atomic.Int32
		m := NewMux(Route{"/r", func(body *bytes.Buffer, q url.Values) Reply {
			calls.Add(1)
			body.WriteString(q.Get("a"))
			return Reply{Header: [][2]string{{"X-Test", "1"}}}
		}})
		end := headEnd(in)
		due := end >= 0 && end <= fuzzMaxHead
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			m.serveConn(server, fuzzMaxHead)
		}()
		go func() {
			// A pipe has no half-close: closing is the only end of input
			// the responder can see, and it is due only when no answer is.
			if _, err := client.Write(in); err == nil && !due {
				client.Close()
			}
		}()
		out, _ := io.ReadAll(client)
		<-done
		client.Close()

		method, _, _ := strings.Cut(string(in[:max(end, 0)]), " ")
		if calls.Load() > 0 && method != "GET" && method != "HEAD" {
			t.Fatalf("method %q reached a handler", method)
		}
		if !due {
			if len(out) != 0 {
				t.Fatalf("answered an incomplete or oversize head: %q", out)
			}
			return
		}
		if !statusLine.Match(out) {
			t.Fatalf("no well-formed status line: %q", out)
		}
		// Exactly one head, then exactly Content-Length body bytes — or none
		// for a HEAD.
		i := bytes.Index(out, []byte("\r\n\r\n")) + 4
		if i < 4 {
			t.Fatalf("unterminated response head: %q", out)
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(out[:i])), &http.Request{Method: "HEAD"})
		if err != nil {
			t.Fatalf("malformed response %q: %v", out, err)
		}
		body := out[i:]
		if int64(len(body)) != resp.ContentLength && !(method == "HEAD" && len(body) == 0) {
			t.Fatalf("body %q against Content-Length %d", body, resp.ContentLength)
		}
		if !resp.Close {
			t.Fatalf("response does not close the connection: %q", out)
		}
		if method != "GET" && method != "HEAD" && resp.StatusCode != 400 && resp.StatusCode != 405 {
			t.Fatalf("method %q answered %d", method, resp.StatusCode)
		}
	})
}
