package resp

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the client-side reader — what a client
// reads off a node's socket — through both ReadPush and ReadValue. Neither
// may panic, and every value ReadValue accepts must encode with WriteValue
// and read back equal. The seeds run in tier-1;
// `go test -fuzz FuzzReader ./internal/resp/` explores.
func FuzzReader(f *testing.F) {
	f.Add([]byte("*3\r\n$7\r\nmessage\r\n$4\r\nroom\r\n$5\r\nhello\r\n"))
	f.Add([]byte("*4\r\n$8\r\npmessage\r\n$2\r\nr*\r\n$4\r\nroom\r\n$0\r\n\r\n"))
	f.Add([]byte("*3\r\n$9\r\nsubscribe\r\n$4\r\nroom\r\n:1\r\n+PONG\r\n-ERR wrong\r\n:-7\r\n"))
	f.Add([]byte("$-1\r\n*-1\r\n*0\r\n*2\r\n*1\r\n+a\rb\r\n$3\r\nx\r\n\r\n"))
	f.Add([]byte("*3\r\n$7\r\nmessage\r\n:5\r\n$1\r\nx\r\n"))
	f.Add([]byte("*1048576\r\n*1048576\r\n$67108864\r\n"))
	f.Add(bytes.Repeat([]byte("*1\r\n"), 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		push := NewReader(bytes.NewReader(data))
		for {
			if _, _, _, _, err := push.ReadPush(); err != nil {
				break
			}
		}
		r := NewReader(bytes.NewReader(data))
		for {
			v, err := r.ReadValue()
			if err != nil {
				return
			}
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteValue(v); err != nil {
				t.Fatalf("WriteValue(%+v): %v", v, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			again, err := NewReader(&buf).ReadValue()
			if err != nil {
				t.Fatalf("%+v re-encoded as %q does not read back: %v", v, buf.Bytes(), err)
			}
			if !reflect.DeepEqual(again, v) {
				t.Fatalf("%+v re-encoded as %q reads back as %+v", v, buf.Bytes(), again)
			}
		}
	})
}
