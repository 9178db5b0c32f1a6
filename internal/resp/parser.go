package resp

import (
	"bytes"
	"fmt"
)

// CommandParser incrementally decodes RESP client commands from a byte
// stream delivered in arbitrary fragments — the decode path of both
// connection cores, whose reads land in a read buffer (shared per shard on
// the reactor) rather than a per-connection bufio.Reader. Feed appends a
// fragment; Next returns the next complete command or (nil, nil) when the
// buffered bytes end mid-frame (partial-frame carry-over).
//
// The same grammar as Reader.ReadCommand is accepted (arrays of bulk strings
// and inline commands), plus integer elements inside arrays — which lets the
// load harness parse subscription acks ["subscribe", name, :count] with the
// same machinery.
//
// Returned argument slices alias the parser's internal buffer and are valid
// only until the next Feed or Next call; callers that retain them must copy
// (the broker's dispatch already does).
type CommandParser struct {
	buf  []byte
	r    int // consumed offset into buf
	args [][]byte
}

// maxHeaderLine bounds a length-prefix or integer line that has not seen its
// CRLF yet; real prefixes are ≤ ~20 bytes, so anything longer is garbage and
// must not make the parser buffer it forever.
const maxHeaderLine = 64

// Feed appends a fragment of the stream. The fragment is copied; the caller
// may reuse data immediately (the reactor feeds from a shared read buffer).
func (p *CommandParser) Feed(data []byte) {
	if p.r == len(p.buf) {
		p.buf = p.buf[:0]
		p.r = 0
	} else if p.r > 0 && len(p.buf)+len(data) > cap(p.buf) {
		// Compact consumed prefix away before growing the buffer.
		n := copy(p.buf, p.buf[p.r:])
		p.buf = p.buf[:n]
		p.r = 0
	}
	p.buf = append(p.buf, data...)
}

// Buffered reports how many unconsumed bytes the parser is holding.
func (p *CommandParser) Buffered() int { return len(p.buf) - p.r }

// Next returns the next complete command, or (nil, nil) when the buffered
// stream ends mid-frame. Protocol violations return an error wrapping
// ErrProtocol or ErrTooLarge; the connection should be closed, matching
// Reader.ReadCommand behavior.
func (p *CommandParser) Next() ([][]byte, error) {
	b := p.buf[p.r:]
	if len(b) == 0 {
		return nil, nil
	}
	if b[0] != '*' {
		return p.nextInline(b)
	}
	n, pos, ok, err := parseIntLine(b, 1)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	if n <= 0 || n > maxArrayLen {
		return nil, fmt.Errorf("%w: command array length %d", ErrProtocol, n)
	}
	p.args = p.args[:0]
	for i := int64(0); i < n; i++ {
		if pos >= len(b) {
			return nil, nil
		}
		switch b[pos] {
		case '$':
			ln, np, ok, err := parseIntLine(b, pos+1)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
			if ln < 0 {
				return nil, fmt.Errorf("%w: command element %d is a null bulk string", ErrProtocol, i)
			}
			if ln > MaxBulkLen {
				return nil, fmt.Errorf("%w: bulk length %d", ErrTooLarge, ln)
			}
			end := np + int(ln)
			if end+2 > len(b) {
				return nil, nil
			}
			if b[end] != '\r' || b[end+1] != '\n' {
				return nil, fmt.Errorf("%w: bulk string missing CRLF terminator", ErrProtocol)
			}
			p.args = append(p.args, b[np:end])
			pos = end + 2
		case ':':
			line, np, ok, err := parseHeaderLine(b, pos+1)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
			if _, good := parseInt(line); !good {
				return nil, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
			}
			p.args = append(p.args, line)
			pos = np
		default:
			return nil, fmt.Errorf("%w: command element %d is type %q, want bulk string", ErrProtocol, i, b[pos])
		}
	}
	p.r += pos
	return p.args, nil
}

// nextInline parses a one-line inline command (space-separated words).
func (p *CommandParser) nextInline(b []byte) ([][]byte, error) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		if len(b) > MaxBulkLen {
			return nil, fmt.Errorf("%w: line length %d", ErrTooLarge, len(b))
		}
		return nil, nil
	}
	if i == 0 || b[i-1] != '\r' {
		return nil, fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
	}
	line := b[:i-1]
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return nil, fmt.Errorf("%w: empty inline command", ErrProtocol)
	}
	p.r += i + 1
	p.args = append(p.args[:0], fields...)
	return p.args, nil
}

// parseHeaderLine scans a short CRLF-terminated line starting at pos (after
// the type byte). ok=false means the line is still incomplete.
func parseHeaderLine(b []byte, pos int) (line []byte, next int, ok bool, err error) {
	rest := b[pos:]
	limit := len(rest)
	if limit > maxHeaderLine {
		limit = maxHeaderLine
	}
	i := bytes.IndexByte(rest[:limit], '\n')
	if i < 0 {
		if len(rest) > maxHeaderLine {
			return nil, 0, false, fmt.Errorf("%w: header line exceeds %d bytes", ErrProtocol, maxHeaderLine)
		}
		return nil, 0, false, nil
	}
	if i == 0 || rest[i-1] != '\r' {
		return nil, 0, false, fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
	}
	return rest[:i-1], pos + i + 1, true, nil
}

// parseIntLine reads a decimal integer line starting at pos (after the type
// byte). ok=false means more bytes are needed.
func parseIntLine(b []byte, pos int) (n int64, next int, ok bool, err error) {
	line, next, ok, err := parseHeaderLine(b, pos)
	if err != nil || !ok {
		return 0, 0, ok, err
	}
	n, good := parseInt(line)
	if !good {
		return 0, 0, false, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
	}
	return n, next, true, nil
}

// AppendCommandStrings appends a command encoded as an array of bulk strings
// to dst — the append-style twin of Writer.WriteCommandStrings, used by the
// connection harness to batch commands into one write.
func AppendCommandStrings(dst []byte, cmd string, args ...string) []byte {
	dst = append(dst, '*')
	dst = appendInt(dst, int64(len(args)+1))
	dst = AppendBulkString(dst, cmd)
	for _, a := range args {
		dst = AppendBulkString(dst, a)
	}
	return dst
}

func appendInt(dst []byte, n int64) []byte {
	dst = appendDecimal(dst, n)
	return append(dst, '\r', '\n')
}

// appendDecimal is strconv.AppendInt without pulling strconv into this file's
// hot helpers (it is tiny for the small values RESP headers carry).
func appendDecimal(dst []byte, n int64) []byte {
	if n < 0 {
		dst = append(dst, '-')
		n = -n
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}
