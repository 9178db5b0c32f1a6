package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// The admin plane answers plain GETs from curl, Prometheus, go tool pprof
// and the harnesses, one request per connection. Those limits bound what a
// stray or hostile client can hold.
const (
	// maxHead caps a request head (request line and headers); a longer one
	// is dropped unanswered. Admin GETs carry a handful of short headers.
	maxHead = 8 << 10
	// headTimeout bounds the wait for a complete head, writeTimeout the
	// write of the response.
	headTimeout  = 10 * time.Second
	writeTimeout = 10 * time.Second
	// maxConns bounds the connections served at once; the accept loop
	// waits for a slot.
	maxConns = 16
)

// octetStream is the Content-Type of the binary profiles.
const octetStream = "application/octet-stream"

// Handler renders one admin GET: it writes the response body into body,
// reads what it needs of the request's query, and returns the rest of the
// response.
type Handler func(body *bytes.Buffer, query url.Values) Reply

// Reply is the part of a response a Handler chooses besides its body.
type Reply struct {
	// Status is the HTTP status code; 0 means 200.
	Status int
	// ContentType is the Content-Type; "" means plain UTF-8 text.
	ContentType string
	// Header holds extra (name, value) header pairs, e.g. X-Trace-Seq.
	Header [][2]string
}

// Error replaces body with msg and answers status, the shape net/http's
// http.Error gives: a plain-text body ending in a newline.
func Error(body *bytes.Buffer, status int, msg string) Reply {
	body.Reset()
	body.WriteString(msg)
	body.WriteByte('\n')
	return Reply{Status: status}
}

// Route mounts Handler at the exact path Path.
type Route struct {
	Path    string
	Handler Handler
}

// Mux is the admin plane's own HTTP/1.1 responder: it routes GET and HEAD
// requests by exact path, answers every other method 405, and closes the
// connection after each response. It serves nothing else HTTP has, which is
// why the daemons link no net/http.
type Mux struct {
	routes map[string]Handler
}

// NewMux builds a Mux serving routes; a later route replaces an earlier one
// on the same path.
func NewMux(routes ...Route) *Mux {
	m := &Mux{routes: make(map[string]Handler, len(routes))}
	for _, r := range routes {
		m.routes[r.Path] = r.Handler
	}
	return m
}

// NewAdminMux builds the node/balancer admin responder:
//
//	/metrics       Prometheus text exposition of reg
//	/healthz       "ok" (200) once the process serves traffic
//	/statusz       JSON from status (plan version, counts, hot channels, …)
//	/debug/pprof/  the Go runtime's profiles: a text index; one route per
//	               runtime/pprof profile (?debug=, and ?gc= on heap);
//	               cmdline; profile?seconds= (CPU); trace?seconds=
//
// status may be nil (/statusz then serves {}). Extra routes are mounted
// after the built-ins. The handlers hold no state of their own; everything
// renders on request.
func NewAdminMux(reg *Registry, status func() any, extra ...Route) *Mux {
	if status == nil {
		status = func() any { return struct{}{} }
	}
	routes := []Route{
		{"/metrics", func(body *bytes.Buffer, _ url.Values) Reply {
			body.Write(reg.AppendText(body.AvailableBuffer()))
			return Reply{ContentType: "text/plain; version=0.0.4; charset=utf-8"}
		}},
		{"/healthz", func(body *bytes.Buffer, _ url.Values) Reply {
			body.WriteString("ok\n")
			return Reply{}
		}},
		{"/statusz", JSONHandler(status)},
		{pprofPrefix, pprofIndex},
		{pprofPrefix + "cmdline", func(body *bytes.Buffer, _ url.Values) Reply {
			body.WriteString(strings.Join(os.Args, "\x00"))
			return Reply{}
		}},
		{pprofPrefix + "profile", cpuProfile},
		{pprofPrefix + "trace", execTrace},
	}
	for _, p := range pprof.Profiles() {
		routes = append(routes, Route{pprofPrefix + p.Name(), profileHandler(p.Name())})
	}
	return NewMux(append(routes, extra...)...)
}

// JSONHandler serves the value fn returns as indented JSON on every request
// (the shape /statusz uses, for extra document-style admin routes like
// /debug/latency).
func JSONHandler(fn func() any) Handler {
	return func(body *bytes.Buffer, _ url.Values) Reply {
		enc := json.NewEncoder(body)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fn()); err != nil {
			return Error(body, 500, err.Error())
		}
		return Reply{ContentType: "application/json; charset=utf-8"}
	}
}

// Serve listens on addr and answers admin requests with m in a background
// goroutine until the returned listener is closed (addr ":0" picks a free
// port — read ln.Addr()). The admin plane must never take the data plane
// down: accept errors other than a closed listener are waited out.
func Serve(addr string, m *Mux) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go m.acceptLoop(ln)
	return ln, nil
}

func (m *Mux) acceptLoop(ln net.Listener) {
	slots := make(chan struct{}, maxConns)
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(10 * time.Millisecond) // out of fds and kin: wait, never exit
			continue
		}
		slots <- struct{}{}
		go func() {
			defer func() { <-slots }()
			m.serveConn(c, maxHead)
		}()
	}
}

// serveConn answers the one request on c and closes it. A head that does
// not arrive whole within limit bytes and headTimeout gets no answer.
func (m *Mux) serveConn(c net.Conn, limit int) {
	defer c.Close()
	_ = c.SetReadDeadline(time.Now().Add(headTimeout))
	line, ok := readHead(bufio.NewReaderSize(c, limit), limit)
	if !ok {
		return
	}
	var body bytes.Buffer
	method, rep := m.handle(line, &body)
	_ = c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := writeReply(c, rep, body.Bytes(), method == "HEAD"); err != nil {
		return
	}
	// Closing a TCP socket with unread request bytes (a POST body) resets
	// it, which can destroy the response before the client reads it:
	// half-close, then drain what the client still sends.
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
		_ = tc.SetReadDeadline(time.Now().Add(time.Second))
		_, _ = io.Copy(io.Discard, io.LimitReader(tc, 256<<10))
	}
}

// readHead reads one request head — lines up to and including the first
// empty one, ended by LF or CRLF — and returns its first line without the
// line ending. It fails on a read error or once the head passes limit
// bytes; the reader's buffer must hold limit bytes.
func readHead(r *bufio.Reader, limit int) (string, bool) {
	var first string
	for i, n := 0, 0; ; i++ {
		line, err := r.ReadSlice('\n')
		n += len(line)
		if err != nil || n > limit {
			return "", false
		}
		line = bytes.TrimSuffix(line[:len(line)-1], []byte{'\r'})
		if i == 0 {
			first = string(line)
		}
		if len(line) == 0 {
			return first, true
		}
	}
}

// handle parses the request line, routes it and runs the handler; it
// returns the request's method ("" for a malformed line) and the reply for
// body.
func (m *Mux) handle(line string, body *bytes.Buffer) (string, Reply) {
	method, rest, ok := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok || !ok2 || (proto != "HTTP/1.1" && proto != "HTTP/1.0") {
		return "", Error(body, 400, "malformed request line")
	}
	if method != "GET" && method != "HEAD" {
		rep := Error(body, 405, "method not allowed")
		rep.Header = [][2]string{{"Allow", "GET, HEAD"}}
		return method, rep
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return method, Error(body, 400, "bad request target")
	}
	h := m.routes[u.Path]
	if h == nil {
		return method, Error(body, 404, "404 page not found")
	}
	// Like net/http's URL.Query, a malformed query pair is dropped.
	return method, h(body, u.Query())
}

// writeReply writes the status line, the headers and, unless the request
// was a HEAD, the body.
func writeReply(w io.Writer, rep Reply, body []byte, head bool) (int64, error) {
	status, ctype := rep.Status, rep.ContentType
	if status == 0 {
		status = 200
	}
	if ctype == "" {
		ctype = "text/plain; charset=utf-8"
	}
	h := fmt.Appendf(nil, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n",
		status, statusText[status], ctype, len(body))
	for _, kv := range rep.Header {
		h = append(h, kv[0]...)
		h = append(h, ": "...)
		h = append(h, kv[1]...)
		h = append(h, "\r\n"...)
	}
	h = append(h, "Connection: close\r\n\r\n"...)
	bufs := net.Buffers{h}
	if !head {
		bufs = append(bufs, body)
	}
	return bufs.WriteTo(w)
}

// statusText holds the reason phrases of the statuses the handlers answer.
var statusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found",
	405: "Method Not Allowed", 500: "Internal Server Error"}

// ---------------------------------------------------------------------------
// /debug/pprof: the runtime's profiles, served without net/http/pprof.
// Profiles carry their own symbols, so go tool pprof needs no /symbol.

const pprofPrefix = "/debug/pprof/"

func pprofIndex(body *bytes.Buffer, _ url.Values) Reply {
	body.WriteString("/debug/pprof/ profiles (?debug=1 for text):\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(body, "%6d  %s%s\n", p.Count(), pprofPrefix, p.Name())
	}
	body.WriteString("        " + pprofPrefix + "cmdline\n")
	body.WriteString("        " + pprofPrefix + "profile?seconds=30  CPU profile\n")
	body.WriteString("        " + pprofPrefix + "trace?seconds=1     execution trace\n")
	return Reply{}
}

// profileHandler serves one named runtime/pprof profile: ?debug=N selects
// the text forms, ?gc=1 collects garbage before a heap profile.
func profileHandler(name string) Handler {
	return func(body *bytes.Buffer, q url.Values) Reply {
		p := pprof.Lookup(name)
		debug, _ := strconv.Atoi(q.Get("debug"))
		if gc, _ := strconv.Atoi(q.Get("gc")); gc > 0 && name == "heap" {
			runtime.GC()
		}
		if err := p.WriteTo(body, debug); err != nil {
			return Error(body, 500, "profile "+name+": "+err.Error())
		}
		if debug != 0 {
			return Reply{}
		}
		return Reply{ContentType: octetStream}
	}
}

// cpuProfile records ?seconds= (default 30) of CPU profile.
func cpuProfile(body *bytes.Buffer, q url.Values) Reply {
	sec, err := strconv.ParseInt(q.Get("seconds"), 10, 64)
	if sec <= 0 || err != nil {
		sec = 30
	}
	if err := pprof.StartCPUProfile(body); err != nil {
		return Error(body, 500, "could not enable CPU profiling: "+err.Error())
	}
	time.Sleep(time.Duration(sec) * time.Second)
	pprof.StopCPUProfile()
	return Reply{ContentType: octetStream}
}

// execTrace records ?seconds= (default 1) of execution trace.
func execTrace(body *bytes.Buffer, q url.Values) Reply {
	sec, err := strconv.ParseFloat(q.Get("seconds"), 64)
	if sec <= 0 || err != nil {
		sec = 1
	}
	if err := trace.Start(body); err != nil {
		return Error(body, 500, "could not enable tracing: "+err.Error())
	}
	time.Sleep(time.Duration(sec * float64(time.Second)))
	trace.Stop()
	return Reply{ContentType: octetStream}
}
