// Package resp implements the Redis serialization protocol (RESP2).
//
// Dynamoth runs on top of unmodified, Redis-like pub/sub servers (paper
// §II-A); this package provides the wire format those servers and the client
// library speak over TCP: simple strings, errors, integers, bulk strings,
// arrays (including null bulk strings and null arrays), plus the inline
// command form. It is a from-scratch implementation against the public
// protocol specification.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Kind identifies a RESP value type.
type Kind uint8

// RESP value kinds.
const (
	KindSimpleString Kind = iota + 1
	KindError
	KindInteger
	KindBulkString
	KindArray
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindSimpleString:
		return "simple-string"
	case KindError:
		return "error"
	case KindInteger:
		return "integer"
	case KindBulkString:
		return "bulk-string"
	case KindArray:
		return "array"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a decoded RESP value.
type Value struct {
	Kind  Kind
	Str   []byte  // simple string, error, or bulk string contents
	Int   int64   // integer contents
	Array []Value // array elements
	Null  bool    // null bulk string ($-1) or null array (*-1)
}

// Protocol errors.
var (
	ErrProtocol = errors.New("resp: protocol error")
	ErrTooLarge = errors.New("resp: element exceeds size limit")
)

// MaxBulkLen bounds bulk string and array sizes to keep a corrupt or
// malicious length prefix from exhausting memory (Redis uses 512 MB; pub/sub
// payloads here are small, so we are stricter).
const MaxBulkLen = 64 << 20

// maxArrayLen bounds array element counts.
const maxArrayLen = 1 << 20

// maxArrayDepth bounds how deeply ReadValue nests arrays. The deepest reply
// a node sends is one level (an array of scalars); the bound keeps a stream
// of "*1\r\n" from growing the reading goroutine's stack without end.
const maxArrayDepth = 8

// arrayRoom bounds the elements an array reserves on the word of its length
// prefix alone; a longer array grows as its elements really arrive.
const arrayRoom = 16

// ---------------------------------------------------------------------------
// Reader

// Reader decodes RESP values from a stream.
type Reader struct {
	br *bufio.Reader
	// line is the reusable scratch buffer behind readLine, so length
	// prefixes and integer replies cost no allocation per frame. Slices of
	// it never escape a single read: ReadValue copies simple strings and
	// errors before returning them.
	line []byte
}

// NewReader wraps r in a RESP decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 16<<10)}
}

// ReadValue reads one complete RESP value. What it allocates follows the
// bytes that arrive, not the lengths they declare: an array or a bulk body
// past the read window grows as its contents come in.
func (r *Reader) ReadValue() (Value, error) { return r.readValue(0) }

// readValue reads one value inside depth enclosing arrays.
func (r *Reader) readValue(depth int) (Value, error) {
	t, err := r.br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch t {
	case '+':
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: KindSimpleString, Str: append([]byte(nil), line...)}, nil
	case '-':
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: KindError, Str: append([]byte(nil), line...)}, nil
	case ':':
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: KindInteger, Int: n}, nil
	case '$':
		return r.readBulk()
	case '*':
		return r.readArray(depth)
	default:
		return Value{}, fmt.Errorf("%w: unexpected type byte %q", ErrProtocol, t)
	}
}

// messagePushPrefix is the fixed wire prefix of a ["message", channel,
// payload] push frame: array of 3, first element the 7-byte bulk "message".
var messagePushPrefix = []byte("*3\r\n$7\r\nmessage\r\n")

// ReadMessagePush reads one frame from a subscriber-mode connection,
// decoding the dominant ["message", channel, payload] push without building
// a generic Value tree: the fixed prefix is matched with a single
// Peek/Discard and only the channel and payload themselves are allocated,
// both owned by the caller. Any other frame (subscription acks, pmessage
// pushes) is consumed through the generic path and reported with ok=false
// unless it is itself a message push.
//
// The fast path peeks len(messagePushPrefix) bytes, so it is only suitable
// for streams whose every frame is at least that long — true of subscriber
// sockets, where the shortest frames are subscription acks.
func (r *Reader) ReadMessagePush() (channel string, payload []byte, ok bool, err error) {
	frag, perr := r.br.Peek(len(messagePushPrefix))
	if perr == nil && bytes.Equal(frag, messagePushPrefix) {
		r.br.Discard(len(messagePushPrefix)) //nolint:errcheck // cannot fail after Peek
		ch, err := r.expectBulk()
		if err != nil {
			return "", nil, false, err
		}
		pay, err := r.expectBulk()
		if err != nil {
			return "", nil, false, err
		}
		return string(ch), pay, true, nil
	}
	// Slow path: a non-message frame, or fewer than len(prefix) bytes left
	// before EOF. ReadValue consumes whatever is there and surfaces the real
	// error position.
	v, err := r.ReadValue()
	if err != nil {
		return "", nil, false, err
	}
	if v.Kind == KindArray && !v.Null && len(v.Array) == 3 && string(v.Array[0].Str) == "message" {
		return string(v.Array[1].Str), v.Array[2].Str, true, nil
	}
	return "", nil, false, nil
}

// ReadPush is ReadMessagePush for subscriber streams that also carry
// non-message frames the caller needs to inspect (csubscribe replay acks):
// a ["message", channel, payload] push takes the same allocation-free fast
// path and returns ok=true; any other frame is decoded generically and
// returned in v with ok=false.
func (r *Reader) ReadPush() (channel string, payload []byte, ok bool, v Value, err error) {
	frag, perr := r.br.Peek(len(messagePushPrefix))
	if perr == nil && bytes.Equal(frag, messagePushPrefix) {
		r.br.Discard(len(messagePushPrefix)) //nolint:errcheck // cannot fail after Peek
		ch, err := r.expectBulk()
		if err != nil {
			return "", nil, false, Value{}, err
		}
		pay, err := r.expectBulk()
		if err != nil {
			return "", nil, false, Value{}, err
		}
		return string(ch), pay, true, Value{}, nil
	}
	v, err = r.ReadValue()
	if err != nil {
		return "", nil, false, Value{}, err
	}
	if v.Kind == KindArray && !v.Null && len(v.Array) == 3 && string(v.Array[0].Str) == "message" {
		return string(v.Array[1].Str), v.Array[2].Str, true, Value{}, nil
	}
	return "", nil, false, v, nil
}

// expectBulk reads a non-null bulk string including its type byte.
func (r *Reader) expectBulk() ([]byte, error) {
	t, err := r.br.ReadByte()
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	if t != '$' {
		return nil, fmt.Errorf("%w: expected bulk string, got type byte %q", ErrProtocol, t)
	}
	v, err := r.readBulk()
	if err != nil {
		return nil, err
	}
	if v.Null {
		return nil, fmt.Errorf("%w: unexpected null bulk string", ErrProtocol)
	}
	return v.Str, nil
}

func (r *Reader) readBulk() (Value, error) {
	n, err := r.readInt()
	if err != nil {
		return Value{}, err
	}
	if n == -1 {
		return Value{Kind: KindBulkString, Null: true}, nil
	}
	if n < 0 || n > MaxBulkLen {
		return Value{}, fmt.Errorf("%w: bulk length %d", ErrTooLarge, n)
	}
	// The payload must be an independent allocation (deliveries outlive
	// the read), sized exactly n with no CRLF tail waste. Fast path: when
	// payload+CRLF fit the bufio window, validate and copy straight out of
	// it in one step.
	if int(n)+2 <= r.br.Size() {
		frag, err := r.br.Peek(int(n) + 2)
		if err != nil {
			return Value{}, unexpectedEOF(err)
		}
		if frag[n] != '\r' || frag[n+1] != '\n' {
			return Value{}, fmt.Errorf("%w: bulk string missing CRLF terminator", ErrProtocol)
		}
		buf := make([]byte, n)
		copy(buf, frag)
		r.br.Discard(int(n) + 2) //nolint:errcheck // cannot fail after Peek
		return Value{Kind: KindBulkString, Str: buf}, nil
	}
	// Past the window the body doubles as it arrives, from the window's
	// size, so a length prefix alone reserves no more than that; the last
	// step sizes it to n exactly.
	buf := make([]byte, 0, min(int(n), r.br.Size()))
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(int(n), 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r.br, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return Value{}, unexpectedEOF(err)
		}
	}
	var crlf [2]byte
	if _, err := io.ReadFull(r.br, crlf[:]); err != nil {
		return Value{}, unexpectedEOF(err)
	}
	if crlf[0] != '\r' || crlf[1] != '\n' {
		return Value{}, fmt.Errorf("%w: bulk string missing CRLF terminator", ErrProtocol)
	}
	return Value{Kind: KindBulkString, Str: buf}, nil
}

// readArray reads an array's length and elements, inside depth enclosing
// arrays.
func (r *Reader) readArray(depth int) (Value, error) {
	if depth >= maxArrayDepth {
		return Value{}, fmt.Errorf("%w: arrays nested deeper than %d", ErrProtocol, maxArrayDepth)
	}
	n, err := r.readInt()
	if err != nil {
		return Value{}, err
	}
	if n == -1 {
		return Value{Kind: KindArray, Null: true}, nil
	}
	if n < 0 || n > maxArrayLen {
		return Value{}, fmt.Errorf("%w: array length %d", ErrTooLarge, n)
	}
	v := Value{Kind: KindArray}
	if n > 0 {
		v.Array = make([]Value, 0, min(n, arrayRoom))
		for ; n > 0; n-- {
			elem, err := r.readValue(depth + 1)
			if err != nil {
				return Value{}, unexpectedEOF(err) // cut short inside the array
			}
			v.Array = append(v.Array, elem)
		}
	}
	return v, nil
}

// readLine reads up to CRLF and returns the line without the terminator.
// The returned slice aliases the reader's scratch buffer and is only valid
// until the next read; callers that retain it must copy.
func (r *Reader) readLine() ([]byte, error) {
	frag, err := r.br.ReadSlice('\n')
	if err == nil {
		// Common case: the whole line sits in the bufio window, which is
		// stable until the next read — no copy, no allocation.
		if len(frag) < 2 || frag[len(frag)-2] != '\r' {
			return nil, fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
		}
		return frag[:len(frag)-2], nil
	}
	// Slow path: the line spans bufio refills; accumulate fragments into
	// the reusable scratch buffer (never aliasing the bufio window).
	r.line = append(r.line[:0], frag...)
	for errors.Is(err, bufio.ErrBufferFull) {
		if len(r.line) > MaxBulkLen {
			return nil, fmt.Errorf("%w: line length %d", ErrTooLarge, len(r.line))
		}
		frag, err = r.br.ReadSlice('\n')
		r.line = append(r.line, frag...)
	}
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	line := r.line
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	n, ok := parseInt(line)
	if !ok {
		return 0, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
	}
	return n, nil
}

// parseInt decodes a decimal integer without the string conversion (and its
// allocation) that strconv.ParseInt would cost on every length prefix.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
		if i == len(b) {
			return 0, false
		}
	}
	var n int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
		if n < 0 {
			return 0, false // overflow
		}
	}
	if neg {
		n = -n
	}
	return n, true
}

func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ---------------------------------------------------------------------------
// Writer

// Writer encodes RESP values onto a stream. Callers must Flush to push
// buffered data out.
type Writer struct {
	bw *bufio.Writer
	// num is scratch for integer encoding, so length prefixes and integer
	// replies never allocate (strconv.AppendInt(nil, …) would).
	num [24]byte
}

// NewWriter wraps w in a RESP encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 16<<10)}
}

// Flush writes any buffered data to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// WriteSimpleString writes "+s\r\n".
func (w *Writer) WriteSimpleString(s string) error {
	w.bw.WriteByte('+') //nolint:errcheck // bufio sticky error checked at Flush
	w.bw.WriteString(s) //nolint:errcheck
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteError writes "-msg\r\n".
func (w *Writer) WriteError(msg string) error {
	w.bw.WriteByte('-')   //nolint:errcheck
	w.bw.WriteString(msg) //nolint:errcheck
	_, err := w.bw.WriteString("\r\n")
	return err
}

// writeHeader writes one type byte, a decimal integer, and CRLF — the shape
// of every RESP prefix — without allocating.
func (w *Writer) writeHeader(t byte, n int64) error {
	w.bw.WriteByte(t)                               //nolint:errcheck // sticky error checked below
	w.bw.Write(strconv.AppendInt(w.num[:0], n, 10)) //nolint:errcheck
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteInteger writes ":n\r\n".
func (w *Writer) WriteInteger(n int64) error { return w.writeHeader(':', n) }

// WriteBulk writes a bulk string "$len\r\nbytes\r\n".
func (w *Writer) WriteBulk(b []byte) error {
	w.writeHeader('$', int64(len(b))) //nolint:errcheck
	w.bw.Write(b)                     //nolint:errcheck
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteBulkString writes a string as a bulk string. The string's bytes are
// written directly to the buffer — no []byte(s) copy.
func (w *Writer) WriteBulkString(s string) error {
	w.writeHeader('$', int64(len(s))) //nolint:errcheck
	w.bw.WriteString(s)               //nolint:errcheck
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteNullBulk writes the null bulk string "$-1\r\n".
func (w *Writer) WriteNullBulk() error {
	_, err := w.bw.WriteString("$-1\r\n")
	return err
}

// WriteArrayHeader writes "*n\r\n"; the caller then writes n elements.
func (w *Writer) WriteArrayHeader(n int) error { return w.writeHeader('*', int64(n)) }

// WritePublish writes the ["PUBLISH", channel, payload] command frame in one
// allocation-free shot — the pipelined client publish hot path.
func (w *Writer) WritePublish(channel string, payload []byte) error {
	w.bw.WriteString("*3\r\n$7\r\nPUBLISH\r\n") //nolint:errcheck // sticky error checked below
	w.WriteBulkString(channel)                  //nolint:errcheck
	return w.WriteBulk(payload)
}

// WriteCommandStrings writes a command whose name and arguments are strings,
// straight from the string bytes — no [][]byte conversion or per-argument
// allocation (the subscribe-path analogue of WritePublish).
func (w *Writer) WriteCommandStrings(cmd string, args ...string) error {
	if err := w.WriteArrayHeader(len(args) + 1); err != nil {
		return err
	}
	if err := w.WriteBulkString(cmd); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.WriteBulkString(a); err != nil {
			return err
		}
	}
	return nil
}

// WriteCommand writes a command as an array of bulk strings.
func (w *Writer) WriteCommand(args ...[]byte) error {
	if err := w.WriteArrayHeader(len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.WriteBulk(a); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Append-style encoding
//
// These build frames into a caller-provided buffer (append semantics, like
// strconv.AppendInt), so a sink that owns a reusable scratch buffer can
// encode a burst of push frames and hand the kernel one contiguous write.

// AppendBulk appends "$len\r\nbytes\r\n" to dst.
func AppendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

// AppendBulkString appends a string as a bulk string to dst.
func AppendBulkString(dst []byte, s string) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendMessage appends the ["message", channel, payload] push frame to dst.
func AppendMessage(dst []byte, channel string, payload []byte) []byte {
	dst = append(dst, "*3\r\n$7\r\nmessage\r\n"...)
	dst = AppendBulkString(dst, channel)
	return AppendBulk(dst, payload)
}

// AppendPMessage appends the ["pmessage", pattern, channel, payload] frame
// to dst.
func AppendPMessage(dst []byte, pattern, channel string, payload []byte) []byte {
	dst = append(dst, "*4\r\n$8\r\npmessage\r\n"...)
	dst = AppendBulkString(dst, pattern)
	dst = AppendBulkString(dst, channel)
	return AppendBulk(dst, payload)
}

// WriteValue writes an arbitrary decoded value back out (used by tests and
// proxies).
func (w *Writer) WriteValue(v Value) error {
	switch v.Kind {
	case KindSimpleString:
		return w.WriteSimpleString(string(v.Str))
	case KindError:
		return w.WriteError(string(v.Str))
	case KindInteger:
		return w.WriteInteger(v.Int)
	case KindBulkString:
		if v.Null {
			return w.WriteNullBulk()
		}
		return w.WriteBulk(v.Str)
	case KindArray:
		if v.Null {
			_, err := w.bw.WriteString("*-1\r\n")
			return err
		}
		if err := w.WriteArrayHeader(len(v.Array)); err != nil {
			return err
		}
		for _, e := range v.Array {
			if err := w.WriteValue(e); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: cannot encode kind %s", ErrProtocol, v.Kind)
	}
}
