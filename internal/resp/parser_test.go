package resp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// buildStream encodes commands as RESP arrays of bulk strings.
func buildStream(cmds [][]string) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, cmd := range cmds {
		bs := make([][]byte, 0, len(cmd))
		for _, a := range cmd {
			bs = append(bs, []byte(a))
		}
		if err := w.WriteCommand(bs...); err != nil {
			panic(err)
		}
	}
	w.Flush() //nolint:errcheck
	return buf.Bytes()
}

// readAll decodes the whole stream with the buffered Reader — the reference
// the incremental parser must match.
func readAllBuffered(t *testing.T, stream []byte) [][][]byte {
	t.Helper()
	r := NewReader(bytes.NewReader(stream))
	var out [][][]byte
	for {
		args, err := r.ReadCommand()
		if err != nil {
			return out
		}
		cp := make([][]byte, len(args))
		for i, a := range args {
			cp[i] = append([]byte(nil), a...)
		}
		out = append(out, cp)
	}
}

// drain pulls every complete command currently buffered in p.
func drain(t *testing.T, p *CommandParser) [][][]byte {
	t.Helper()
	var out [][][]byte
	for {
		args, err := p.Next()
		if err != nil {
			t.Fatalf("parser error: %v", err)
		}
		if args == nil {
			return out
		}
		cp := make([][]byte, len(args))
		for i, a := range args {
			cp[i] = append([]byte(nil), a...)
		}
		out = append(out, cp)
	}
}

func equalCmds(a, b [][][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !bytes.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

var parserCmds = [][]string{
	{"SUBSCRIBE", "alpha", "beta"},
	{"PUBLISH", "alpha", strings.Repeat("x", 3000)},
	{"PING"},
	{"PUBLISH", "beta", ""},
	{"PSUBSCRIBE", "news.*"},
	{"PUBLISH", "alpha", "payload with \r\n embedded CRLF and \x00 nul"},
	{"UNSUBSCRIBE"},
	{"QUIT"},
}

// TestCommandParserSplitEveryBoundary feeds the stream split at every single
// byte offset and asserts the incremental parse matches the buffered Reader.
func TestCommandParserSplitEveryBoundary(t *testing.T) {
	stream := buildStream(parserCmds)
	want := readAllBuffered(t, stream)
	for cut := 0; cut <= len(stream); cut++ {
		var p CommandParser
		var got [][][]byte
		p.Feed(stream[:cut])
		got = append(got, drain(t, &p)...)
		p.Feed(stream[cut:])
		got = append(got, drain(t, &p)...)
		if !equalCmds(got, want) {
			t.Fatalf("cut at %d: got %d cmds, want %d", cut, len(got), len(want))
		}
		if p.Buffered() != 0 {
			t.Fatalf("cut at %d: %d bytes left unconsumed", cut, p.Buffered())
		}
	}
}

// TestCommandParserByteAtATime trickles the stream in one byte at a time.
func TestCommandParserByteAtATime(t *testing.T) {
	stream := buildStream(parserCmds)
	want := readAllBuffered(t, stream)
	var p CommandParser
	var got [][][]byte
	for i := 0; i < len(stream); i++ {
		p.Feed(stream[i : i+1])
		got = append(got, drain(t, &p)...)
	}
	if !equalCmds(got, want) {
		t.Fatalf("got %d cmds, want %d", len(got), len(want))
	}
}

// TestCommandParserRandomFragments quick-checks random command streams under
// random fragmentation against the buffered path.
func TestCommandParserRandomFragments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		ncmd := 1 + rng.Intn(6)
		cmds := make([][]string, ncmd)
		for i := range cmds {
			nargs := 1 + rng.Intn(4)
			args := make([]string, nargs)
			for j := range args {
				n := rng.Intn(64)
				b := make([]byte, n)
				rng.Read(b)
				args[j] = string(b)
			}
			cmds[i] = args
		}
		stream := buildStream(cmds)
		want := readAllBuffered(t, stream)
		var p CommandParser
		var got [][][]byte
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(17)
			if off+n > len(stream) {
				n = len(stream) - off
			}
			p.Feed(stream[off : off+n])
			off += n
			got = append(got, drain(t, &p)...)
		}
		if !equalCmds(got, want) {
			t.Fatalf("iter %d: got %d cmds, want %d", iter, len(got), len(want))
		}
	}
}

// TestCommandParserInline covers the inline command form, split mid-line.
func TestCommandParserInline(t *testing.T) {
	var p CommandParser
	p.Feed([]byte("PING ar"))
	if args, err := p.Next(); err != nil || args != nil {
		t.Fatalf("mid-line: got %v, %v", args, err)
	}
	p.Feed([]byte("g1 arg2\r\n"))
	args, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"PING", "arg1", "arg2"}
	if len(args) != len(want) {
		t.Fatalf("got %d args, want %d", len(args), len(want))
	}
	for i, w := range want {
		if string(args[i]) != w {
			t.Fatalf("arg %d: got %q want %q", i, args[i], w)
		}
	}
}

// TestCommandParserIntegerElements parses frames with integer elements — the
// shape of subscription acks the load harness consumes.
func TestCommandParserIntegerElements(t *testing.T) {
	var p CommandParser
	p.Feed([]byte("*3\r\n$9\r\nsubscribe\r\n$5\r\nalpha\r\n:42\r\n"))
	args, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "subscribe" || string(args[2]) != "42" {
		t.Fatalf("got %q", args)
	}
}

// TestCommandParserErrors asserts protocol violations surface as errors, not
// hangs or silent drops.
func TestCommandParserErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"null bulk element", "*1\r\n$-1\r\n"},
		{"bad element type", "*1\r\n+OK\r\n"},
		{"bad array length", "*abc\r\n"},
		{"zero array", "*0\r\n"},
		{"missing bulk CRLF", "*1\r\n$3\r\nabcXY"},
		{"LF-only line", "*1\n"},
		{"empty inline", "\r\n"},
		{"oversize header", "*" + strings.Repeat("9", 100) + "\r\n"},
	}
	for _, tc := range cases {
		var p CommandParser
		p.Feed([]byte(tc.input))
		if _, err := p.Next(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestCommandParserCompaction feeds twice before draining, with a partial
// tail each round: the undrained fragment is kept, and the carry buffer stays
// bounded by the frames in flight.
func TestCommandParserCompaction(t *testing.T) {
	var p CommandParser
	one := buildStream([][]string{{"PUBLISH", "ch", strings.Repeat("y", 512)}})
	for i := 0; i < 1000; i++ {
		// Feed a complete command plus the first half of the next one.
		p.Feed(one)
		p.Feed(one[:len(one)/2])
		if args, err := p.Next(); err != nil || len(args) != 3 {
			t.Fatalf("iter %d: %v %v", i, args, err)
		}
		if args, err := p.Next(); err != nil || args != nil {
			t.Fatalf("iter %d partial: %v %v", i, args, err)
		}
		p.Feed(one[len(one)/2:])
		if args, err := p.Next(); err != nil || len(args) != 3 {
			t.Fatalf("iter %d second: %v %v", i, args, err)
		}
		if cap(p.carry) > 8*len(one) {
			t.Fatalf("buffer grew without bound: cap %d", cap(p.carry))
		}
	}
}

// TestAppendCommandStrings round-trips through the parser.
func TestAppendCommandStrings(t *testing.T) {
	frame := AppendCommandStrings(nil, "SUBSCRIBE", "a", "b")
	var p CommandParser
	p.Feed(frame)
	args, err := p.Next()
	if err != nil || len(args) != 3 {
		t.Fatalf("got %v, %v", args, err)
	}
	if string(args[0]) != "SUBSCRIBE" || string(args[1]) != "a" || string(args[2]) != "b" {
		t.Fatalf("got %q", args)
	}
	if fmt.Sprintf("%s", frame) != "*3\r\n$9\r\nSUBSCRIBE\r\n$1\r\na\r\n$1\r\nb\r\n" {
		t.Fatalf("wire form %q", frame)
	}
}

// cloneArgs copies a command out of the buffer its arguments alias.
func cloneArgs(args [][]byte) [][]byte {
	cp := make([][]byte, len(args))
	for i, a := range args {
		cp[i] = append([]byte(nil), a...)
	}
	return cp
}

// parseAll drains a parser into owned copies of every command, stopping at the
// first error.
func parseAll(p *CommandParser) (out [][][]byte, err error) {
	for {
		args, err := p.Next()
		if err != nil || args == nil {
			return out, err
		}
		out = append(out, cloneArgs(args))
	}
}

// declaresHugeLength reports a '$' or '*' followed by six or more digits. The
// oracle allocates a declared length before it reads the body, so the fuzzer
// stays away from streams that only promise megabytes.
func declaresHugeLength(stream []byte) bool {
	for i, c := range stream {
		if c != '$' && c != '*' {
			continue
		}
		digits := 0
		for _, d := range stream[i+1:] {
			if (d < '0' || d > '9') && !(digits == 0 && (d == '+' || d == '-')) {
				break
			}
			digits++
		}
		if digits >= 6 {
			return true
		}
	}
	return false
}

// FuzzCommandParserSplits is the differential target of the one parser that
// reads untrusted bytes: any stream, cut at any boundaries, must yield what
// the same stream yields fed whole, and that must be Reader.ReadCommand's
// command sequence followed by the same verdict on what comes after. On the
// way it pins the borrowing contract: arguments returned since a Feed are
// still intact when the next Feed comes, and a parser that has consumed all
// it was fed holds no buffer.
func FuzzCommandParserSplits(f *testing.F) {
	// The table's commands with long arguments cut down: the fuzzing engine
	// minimizes every input it keeps, in time quadratic in its length.
	table := make([][]string, len(parserCmds))
	for i, cmd := range parserCmds {
		for _, a := range cmd {
			table[i] = append(table[i], a[:min(len(a), 40)])
		}
	}
	f.Add(buildStream(table), []byte{7, 1, 200, 33})
	f.Add(buildStream(table), []byte{})
	f.Add([]byte("PING arg1 arg2\r\n*1\r\n$4\r\nPING\r\n"), []byte{5})
	f.Add([]byte("*3\r\n$9\r\nsubscribe\r\n$5\r\nalpha\r\n:42\r\n"), []byte{3, 9})
	f.Add(AppendCommandStrings(nil, "SUBSCRIBE", "a", "b"), []byte{1})
	for _, bad := range []string{"*1\r\n$-1\r\n", "*1\r\n+OK\r\n", "*abc\r\n", "*0\r\n", "*1\r\n$3\r\nabcXY", "*1\n", "\r\n"} {
		f.Add([]byte("*1\r\n$4\r\nPING\r\n"+bad), []byte{2, 11})
	}

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		if len(stream) > 1<<10 || declaresHugeLength(stream) {
			t.Skip() // long streams add no structure, only minimization time
		}
		// The reference: ReadCommand until it stops, and where it stopped.
		src := bytes.NewReader(stream)
		rd := NewReader(src)
		var want [][][]byte
		var oracleErr error
		consumed := 0 // stream bytes behind the commands ReadCommand returned
		for {
			args, err := rd.ReadCommand()
			if err != nil {
				oracleErr = err
				break
			}
			want = append(want, args)
			consumed = len(stream) - src.Len() - rd.br.Buffered()
		}
		oracleRejects := errors.Is(oracleErr, ErrProtocol) || errors.Is(oracleErr, ErrTooLarge)

		var whole CommandParser
		whole.Feed(stream)
		got, gotErr := parseAll(&whole)

		// Cut the same stream up: cuts[i] is the i-th fragment's length.
		var p CommandParser
		var frag [][][]byte
		var fragErr error
		for off, i := 0, 0; off < len(stream) && fragErr == nil; i++ {
			n := len(stream) - off
			if len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)])+1)
			}
			// The fragment is a read buffer of its own, scribbled over once
			// the parser is done with it, so a borrow held too long shows.
			rbuf := append([]byte(nil), stream[off:off+n]...)
			off += n
			p.Feed(rbuf)
			var held [][][]byte
			before := len(frag)
			for {
				args, err := p.Next()
				if err != nil {
					fragErr = err
					break
				}
				if args == nil {
					break
				}
				held = append(held, append([][]byte(nil), args...))
				frag = append(frag, cloneArgs(args))
			}
			if !equalCmds(held, frag[before:]) {
				t.Fatalf("arguments returned since the last Feed changed before the next one")
			}
			if fragErr == nil && p.Buffered() == 0 && p.carry != nil {
				t.Fatalf("parser consumed everything yet holds a %d-byte buffer", cap(p.carry))
			}
			for j := range rbuf {
				rbuf[j] = 0xAA
			}
		}
		if !equalCmds(frag, got) || (fragErr == nil) != (gotErr == nil) {
			t.Fatalf("cut up: %d commands, err %v; whole: %d commands, err %v", len(frag), fragErr, len(got), gotErr)
		}

		// Against the oracle. The parser's grammar is the oracle's plus
		// integer elements in arrays, so it may read on where the oracle
		// rejects one; otherwise both stop after the same commands.
		shared := min(len(got), len(want))
		if !equalCmds(got[:shared], want[:shared]) {
			t.Fatalf("first %d commands differ from ReadCommand's", shared)
		}
		intElement := oracleRejects && strings.Contains(oracleErr.Error(), "is integer")
		switch {
		case intElement:
			if len(got) < len(want) {
				t.Fatalf("%d commands, ReadCommand read %d before an integer element", len(got), len(want))
			}
		case len(got) != len(want):
			t.Fatalf("%d commands (err %v), ReadCommand read %d (err %v)", len(got), gotErr, len(want), oracleErr)
		case oracleRejects && gotErr == nil:
			t.Fatalf("ReadCommand rejects the stream after %d commands (%v), the parser does not", len(want), oracleErr)
		case consumed == len(stream) && (gotErr != nil || whole.Buffered() != 0):
			t.Fatalf("a stream of whole frames leaves the parser with err %v and %d bytes", gotErr, whole.Buffered())
		}
	})
}
