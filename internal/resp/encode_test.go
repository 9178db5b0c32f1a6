package resp

import (
	"bytes"
	"strings"
	"testing"
)

// decodeFrame reads one value back out of raw bytes.
func decodeFrame(t *testing.T, raw []byte) Value {
	t.Helper()
	v, err := NewReader(bytes.NewReader(raw)).ReadValue()
	if err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return v
}

// TestWriteMessageFrame pins the message push frame the broker writes
// (AppendMessage) byte for byte.
func TestWriteMessageFrame(t *testing.T) {
	got := AppendMessage(nil, "news", []byte("breaking"))
	want := "*3\r\n$7\r\nmessage\r\n$4\r\nnews\r\n$8\r\nbreaking\r\n"
	if string(got) != want {
		t.Fatalf("AppendMessage wire=%q want %q", got, want)
	}
	v := decodeFrame(t, got)
	if v.Kind != KindArray || len(v.Array) != 3 || string(v.Array[0].Str) != "message" {
		t.Fatalf("decoded %+v", v)
	}
}

// TestWritePMessageFrame pins the pattern push frame (AppendPMessage).
func TestWritePMessageFrame(t *testing.T) {
	want := "*4\r\n$8\r\npmessage\r\n$3\r\nn.*\r\n$3\r\nn.s\r\n$1\r\nx\r\n"
	if got := AppendPMessage(nil, "n.*", "n.s", []byte("x")); string(got) != want {
		t.Fatalf("AppendPMessage wire=%q want %q", got, want)
	}
}

// TestAppendPathMatchesWriter: the append-style encoders must produce
// byte-identical frames to the Writer's element-by-element encoding, for any
// payload including binary and embedded CRLF.
func TestAppendPathMatchesWriter(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("hello"), {0, 1, 2, 255, '\r', '\n'}, bytes.Repeat([]byte("z"), 4096)}
	for _, p := range payloads {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.WriteArrayHeader(3)         //nolint:errcheck // sticky: Flush reports it
		w.WriteBulkString("message")  //nolint:errcheck
		w.WriteBulkString("chan-1")   //nolint:errcheck
		w.WriteBulk(p)                //nolint:errcheck
		w.WriteArrayHeader(4)         //nolint:errcheck
		w.WriteBulkString("pmessage") //nolint:errcheck
		w.WriteBulkString("c*")       //nolint:errcheck
		w.WriteBulkString("chan-1")   //nolint:errcheck
		w.WriteBulk(p)                //nolint:errcheck
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		appended := AppendMessage(nil, "chan-1", p)
		appended = AppendPMessage(appended, "c*", "chan-1", p)
		if !bytes.Equal(appended, buf.Bytes()) {
			t.Fatalf("append path diverged for payload len %d:\nappend: %q\nwriter: %q", len(p), appended, buf.Bytes())
		}
	}
}

func TestAppendBulkVariants(t *testing.T) {
	if got := string(AppendBulk(nil, []byte("ab"))); got != "$2\r\nab\r\n" {
		t.Fatalf("AppendBulk=%q", got)
	}
	if got := string(AppendBulkString([]byte("x"), "ab")); got != "x$2\r\nab\r\n" {
		t.Fatalf("AppendBulkString with prefix=%q", got)
	}
}

// TestSimpleStringsSurviveSubsequentReads pins the reader scratch-buffer
// contract: values returned by ReadValue must stay intact after further
// reads overwrite the scratch.
func TestSimpleStringsSurviveSubsequentReads(t *testing.T) {
	r := NewReader(strings.NewReader("+first\r\n+second-much-longer\r\n-ERR boom\r\n:42\r\n"))
	v1, err := r.ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	v3, err := r.ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadValue(); err != nil {
		t.Fatal(err)
	}
	if string(v1.Str) != "first" {
		t.Fatalf("first value corrupted by later reads: %q", v1.Str)
	}
	if string(v2.Str) != "second-much-longer" {
		t.Fatalf("second value corrupted: %q", v2.Str)
	}
	if string(v3.Str) != "ERR boom" {
		t.Fatalf("error value corrupted: %q", v3.Str)
	}
}

// TestBulkPayloadsIndependent: bulk strings are handed to asynchronous
// delivery paths, so each must be an independent allocation, not a window
// into the reader's buffer.
func TestBulkPayloadsIndependent(t *testing.T) {
	r := NewReader(strings.NewReader("$3\r\nabc\r\n$3\r\nxyz\r\n"))
	v1, err := r.ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	if string(v1.Str) != "abc" || string(v2.Str) != "xyz" {
		t.Fatalf("payloads %q %q", v1.Str, v2.Str)
	}
	v2.Str[0] = 'Z'
	if string(v1.Str) != "abc" {
		t.Fatalf("bulk payloads alias each other: %q", v1.Str)
	}
}

func TestParseInt(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"42", 42, true},
		{"-1", -1, true},
		{"+7", 7, true},
		{"1234567890123", 1234567890123, true},
		{"", 0, false},
		{"-", 0, false},
		{"+", 0, false},
		{"12a", 0, false},
		{" 1", 0, false},
		{"99999999999999999999", 0, false}, // overflow
	}
	for _, c := range cases {
		got, ok := parseInt([]byte(c.in))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseInt(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestLongLineSpansBufferRefills drives readLine's slow path: a simple
// string longer than the 16 KB bufio window.
func TestLongLineSpansBufferRefills(t *testing.T) {
	long := strings.Repeat("a", 40<<10)
	r := NewReader(strings.NewReader("+" + long + "\r\n+ok\r\n"))
	v, err := r.ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Str) != long {
		t.Fatalf("long line mangled: len=%d", len(v.Str))
	}
	v2, err := r.ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	if string(v2.Str) != "ok" {
		t.Fatalf("follow-up read=%q", v2.Str)
	}
}

// BenchmarkAppendMessage measures the append-style encode path.
func BenchmarkAppendMessage(b *testing.B) {
	payload := make([]byte, 200)
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch = AppendMessage(scratch[:0], "tile-3-4", payload)
	}
	_ = scratch
}
