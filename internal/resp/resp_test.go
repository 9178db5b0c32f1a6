package resp

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteValue(v); err != nil {
		t.Fatalf("WriteValue: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := NewReader(&buf).ReadValue()
	if err != nil {
		t.Fatalf("ReadValue: %v", err)
	}
	return got
}

func TestRoundTripScalars(t *testing.T) {
	tests := []struct {
		name string
		v    Value
	}{
		{"simple", Value{Kind: KindSimpleString, Str: []byte("OK")}},
		{"error", Value{Kind: KindError, Str: []byte("ERR wrong server")}},
		{"integer", Value{Kind: KindInteger, Int: -42}},
		{"zero int", Value{Kind: KindInteger}},
		{"bulk", Value{Kind: KindBulkString, Str: []byte("hello\r\nworld\x00")}},
		{"empty bulk", Value{Kind: KindBulkString, Str: []byte{}}},
		{"null bulk", Value{Kind: KindBulkString, Null: true}},
		{"null array", Value{Kind: KindArray, Null: true}},
		{"empty array", Value{Kind: KindArray}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.v)
			if got.Kind != tt.v.Kind || got.Int != tt.v.Int || got.Null != tt.v.Null {
				t.Fatalf("got %+v want %+v", got, tt.v)
			}
			if string(got.Str) != string(tt.v.Str) {
				t.Fatalf("Str=%q want %q", got.Str, tt.v.Str)
			}
		})
	}
}

func TestRoundTripNestedArray(t *testing.T) {
	v := Value{Kind: KindArray, Array: []Value{
		{Kind: KindBulkString, Str: []byte("message")},
		{Kind: KindBulkString, Str: []byte("chan")},
		{Kind: KindArray, Array: []Value{
			{Kind: KindInteger, Int: 7},
			{Kind: KindSimpleString, Str: []byte("nested")},
		}},
	}}
	got := roundTrip(t, v)
	if len(got.Array) != 3 {
		t.Fatalf("outer len=%d", len(got.Array))
	}
	inner := got.Array[2]
	if len(inner.Array) != 2 || inner.Array[0].Int != 7 || string(inner.Array[1].Str) != "nested" {
		t.Fatalf("nested array mangled: %+v", inner)
	}
}

func TestReadCommandArrayForm(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommand([]byte("PUBLISH"), []byte("ch"), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	args, err := NewReader(&buf).ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("PUBLISH"), []byte("ch"), []byte("payload")}
	if !reflect.DeepEqual(args, want) {
		t.Fatalf("args=%q want %q", args, want)
	}
}

func TestReadCommandInlineForm(t *testing.T) {
	r := NewReader(strings.NewReader("PING\r\nSUBSCRIBE  a   b\r\n"))
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 1 || string(args[0]) != "PING" {
		t.Fatalf("args=%q", args)
	}
	args, err = r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[1]) != "a" || string(args[2]) != "b" {
		t.Fatalf("args=%q", args)
	}
}

func TestReadCommandPipelined(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 50; i++ {
		if err := w.WriteCommand([]byte("PING")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i := 0; i < 50; i++ {
		if _, err := r.ReadCommand(); err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}
	if _, err := r.ReadCommand(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after stream end, got %v", err)
	}
}

func TestProtocolErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"unknown type byte", "?x\r\n"},
		{"bare LF line", "+OK\n"},
		{"bad integer", ":abc\r\n"},
		{"negative bulk", "$-5\r\nxx\r\n"},
		{"bulk missing terminator", "$3\r\nabcXY"},
		{"array negative", "*-7\r\n"},
		{"command with non-bulk element", "*1\r\n:5\r\n"},
		{"empty inline", "\r\n"},
		{"zero-length command", "*0\r\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(tt.input))
			var err error
			if strings.HasPrefix(tt.name, "command") || strings.Contains(tt.name, "inline") || strings.HasPrefix(tt.input, "*0") {
				_, err = r.ReadCommand()
			} else {
				_, err = r.ReadValue()
			}
			if err == nil {
				t.Fatalf("input %q decoded without error", tt.input)
			}
			if errors.Is(err, io.EOF) {
				t.Fatalf("plain EOF for malformed input %q", tt.input)
			}
		})
	}
}

func TestTruncatedInputGivesUnexpectedEOF(t *testing.T) {
	full := "$10\r\n0123456789\r\n"
	for i := 1; i < len(full); i++ {
		r := NewReader(strings.NewReader(full[:i]))
		if _, err := r.ReadValue(); err == nil {
			t.Fatalf("truncated at %d decoded without error", i)
		}
	}
}

func TestOversizeRejected(t *testing.T) {
	r := NewReader(strings.NewReader("$99999999999\r\n"))
	if _, err := r.ReadValue(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	r = NewReader(strings.NewReader("*99999999\r\n"))
	if _, err := r.ReadValue(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestBulkRoundTripQuick(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteBulk(payload); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		v, err := NewReader(&buf).ReadValue()
		if err != nil {
			return false
		}
		return v.Kind == KindBulkString && bytes.Equal(v.Str, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCommandRoundTripQuick(t *testing.T) {
	f := func(name string, a, b []byte) bool {
		if name == "" {
			name = "X"
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteCommand([]byte(name), a, b); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		args, err := NewReader(&buf).ReadCommand()
		if err != nil {
			return false
		}
		return len(args) == 3 && string(args[0]) == name &&
			bytes.Equal(args[1], a) && bytes.Equal(args[2], b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindSimpleString: "simple-string",
		KindError:        "error",
		KindInteger:      "integer",
		KindBulkString:   "bulk-string",
		KindArray:        "array",
		Kind(99):         "kind(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String()=%q want %q", k, got, want)
		}
	}
}

// What ReadValue allocates follows the bytes that arrive, not the lengths
// they declare: a header claiming a huge array or bulk body, alone or
// nested, costs under 1 MiB, and arrays nested past maxArrayDepth are a
// protocol error rather than a stack that grows with the input.
func TestReaderAllocatesWhatArrives(t *testing.T) {
	allocated := func(input string) (uint64, error) {
		r := NewReader(strings.NewReader(input))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := r.ReadValue()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	for _, tt := range []struct {
		name, input string
		want        error
	}{
		{"array header", "*1048576\r\n", io.ErrUnexpectedEOF},
		{"nested array headers", strings.Repeat("*1048576\r\n", 4), io.ErrUnexpectedEOF},
		{"bulk header", "$67108864\r\n", io.ErrUnexpectedEOF},
		{"deep nesting", strings.Repeat("*1\r\n", 100_000), ErrProtocol},
	} {
		n, err := allocated(tt.input)
		if !errors.Is(err, tt.want) {
			t.Errorf("%s: err = %v, want %v", tt.name, err, tt.want)
		}
		if n >= 1<<20 {
			t.Errorf("%s: %d input bytes allocated %d KiB, want under 1 MiB", tt.name, len(tt.input), n>>10)
		}
	}

	// A body past the window still arrives whole, in a buffer of its size:
	// 1 MiB, and 1 MiB and 3 bytes (no power-of-two multiple of the window).
	for _, size := range []int{1 << 20, 1<<20 + 3} {
		body := bytes.Repeat([]byte("0123456789abcdef"), size/16+1)[:size]
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.WriteBulk(body) //nolint:errcheck // checked at Flush
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		v, err := NewReader(&buf).ReadValue()
		if err != nil || v.Kind != KindBulkString || !bytes.Equal(v.Str, body) || cap(v.Str) != len(body) {
			t.Fatalf("%d-byte bulk: kind %s, %d bytes (cap %d), err %v; want the %d bytes exactly",
				size, v.Kind, len(v.Str), cap(v.Str), err, len(body))
		}
	}
}
