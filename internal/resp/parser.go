package resp

import (
	"bytes"
	"fmt"
)

// CommandParser incrementally decodes RESP client commands from a byte
// stream delivered in arbitrary fragments — the decode path of both
// connection cores, whose reads land in a read buffer (shared per shard on
// the reactor) rather than a per-connection bufio.Reader. Feed lends the
// parser a fragment; Next returns the next complete command or (nil, nil)
// when the stream ends mid-frame.
//
// Complete frames are parsed in place in the fragment: the parser copies
// nothing but the unconsumed tail of a frame cut short by the fragment's end,
// which moves to a carry buffer and is completed — with exactly the bytes that
// frame still needs — from the next fragment. The carry buffer is dropped once
// its frame is returned, so a parser between whole frames holds no memory.
//
// Borrowing contract: the fragment passed to Feed is the parser's until Next
// has returned (nil, nil) or an error, and the arguments Next returns alias
// it (or the carry buffer) and stay intact until the next Feed. A caller
// therefore drains with Next before it refills the read buffer, and copies
// whatever it keeps longer. Arguments are writable: the broker stamps a
// PUBLISH payload where it lies.
//
// The grammar is arrays of bulk strings and inline commands (what the tests'
// reference reader, Reader.ReadCommand, accepts), plus integer elements inside
// arrays — which lets the load harness parse subscription acks
// ["subscribe", name, :count] with the same machinery.
type CommandParser struct {
	in    []byte // borrowed: the part of the last fragment not yet parsed
	carry []byte // owned: the head of a frame whose tail has not arrived

	// Resume point of the frame at the head of the stream, as offsets from its
	// first byte, so a frame that arrives in pieces is scanned once rather
	// than once per piece — and survives the move from fragment to carry.
	pos   int   // next unscanned byte (0 with left == 0: frame not begun)
	left  int   // array elements still to scan
	spans []int // [lo, hi) of each element scanned so far

	args [][]byte
}

// maxHeaderLine bounds a length-prefix or integer line that has not seen its
// CRLF yet; real prefixes are ≤ ~20 bytes, so anything longer is garbage and
// must not make the parser buffer it forever.
const maxHeaderLine = 64

// carryRoom bounds the space a new carry buffer reserves on the word of a
// length prefix alone; a longer body grows the buffer as it really arrives.
const carryRoom = 64 << 10

// needLine is scan's "cannot tell how many" answer: the frame stops inside a
// line, which ends at the next '\n'.
const needLine = -1

// Feed lends the parser the next fragment of the stream (see the borrowing
// contract on CommandParser). Fed before the previous fragment was drained,
// the undrained rest is copied first, so no byte of the stream is lost.
func (p *CommandParser) Feed(data []byte) {
	if len(p.in) > 0 {
		p.carry = append(p.carry, p.in...)
	}
	p.in = data
}

// Buffered reports how many bytes of the stream the parser has been fed and
// not yet returned as commands.
func (p *CommandParser) Buffered() int { return len(p.carry) + len(p.in) }

// Next returns the next complete command, or (nil, nil) when the stream fed
// so far ends mid-frame. Protocol violations return an error wrapping
// ErrProtocol or ErrTooLarge; the connection should be closed.
func (p *CommandParser) Next() ([][]byte, error) {
	if len(p.carry) == 0 {
		n, need, err := p.scan(p.in)
		if err != nil {
			return nil, err
		}
		if need == 0 {
			p.in = p.in[n:]
			return p.args, nil
		}
		if len(p.in) > 0 {
			// Cut short by the fragment's end: keep the tail, with room for
			// what the frame is known to need (as far as one more read could
			// bring it) so a bulk body lands without regrowth.
			room := min(max(need, maxHeaderLine), carryRoom)
			p.carry = append(make([]byte, 0, len(p.in)+room), p.in...)
			p.in = nil
		}
		return nil, nil
	}
	for {
		n, need, err := p.scan(p.carry)
		if err != nil {
			return nil, err
		}
		if need == 0 {
			// The returned arguments keep the buffer alive for as long as the
			// caller holds them; the parser lets go now.
			if p.carry = p.carry[n:]; len(p.carry) == 0 {
				p.carry = nil
			}
			return p.args, nil
		}
		if len(p.in) == 0 {
			return nil, nil
		}
		// Move over exactly what the frame needs next, so the frames behind
		// it are parsed where they lie.
		if need == needLine {
			need = bytes.IndexByte(p.in, '\n') + 1
		}
		if need <= 0 || need > len(p.in) {
			need = len(p.in)
		}
		p.carry = append(p.carry, p.in[:need]...)
		p.in = p.in[need:]
	}
}

// scan advances over the frame at the head of b from where the previous call
// left off (b may have grown or moved in between; it must start at the same
// stream byte). need == 0 reports a complete frame of n bytes, its arguments
// in p.args. Otherwise the frame is incomplete and need is how many more
// bytes it is known to require: the rest of a bulk body and its CRLF, or
// needLine.
func (p *CommandParser) scan(b []byte) (n, need int, err error) {
	if p.left == 0 {
		if len(b) == 0 {
			return 0, needLine, nil
		}
		if b[0] != '*' {
			return p.scanInline(b)
		}
		count, pos, ok, err := parseIntLine(b, 1)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			return 0, needLine, nil
		}
		if count <= 0 || count > maxArrayLen {
			return 0, 0, fmt.Errorf("%w: command array length %d", ErrProtocol, count)
		}
		p.pos, p.left, p.spans = pos, int(count), p.spans[:0]
	}
	for ; p.left > 0; p.left-- {
		pos := p.pos
		if pos >= len(b) {
			return 0, needLine, nil
		}
		switch b[pos] {
		case '$':
			ln, np, ok, err := parseIntLine(b, pos+1)
			if err != nil {
				return 0, 0, err
			}
			if !ok {
				return 0, needLine, nil
			}
			if ln < 0 {
				return 0, 0, fmt.Errorf("%w: command element %d is a null bulk string", ErrProtocol, len(p.spans)/2)
			}
			if ln > MaxBulkLen {
				return 0, 0, fmt.Errorf("%w: bulk length %d", ErrTooLarge, ln)
			}
			end := np + int(ln)
			if end+2 > len(b) {
				return 0, end + 2 - len(b), nil
			}
			if b[end] != '\r' || b[end+1] != '\n' {
				return 0, 0, fmt.Errorf("%w: bulk string missing CRLF terminator", ErrProtocol)
			}
			p.spans = append(p.spans, np, end)
			p.pos = end + 2
		case ':':
			line, np, ok, err := parseHeaderLine(b, pos+1)
			if err != nil {
				return 0, 0, err
			}
			if !ok {
				return 0, needLine, nil
			}
			if _, good := parseInt(line); !good {
				return 0, 0, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
			}
			p.spans = append(p.spans, pos+1, pos+1+len(line))
			p.pos = np
		default:
			return 0, 0, fmt.Errorf("%w: command element %d is type %q, want bulk string", ErrProtocol, len(p.spans)/2, b[pos])
		}
	}
	p.args = p.args[:0]
	for i := 0; i < len(p.spans); i += 2 {
		p.args = append(p.args, b[p.spans[i]:p.spans[i+1]])
	}
	n, p.pos = p.pos, 0
	return n, 0, nil
}

// scanInline scans a one-line inline command (space-separated words). p.pos
// remembers how much of the line was already searched for its end.
func (p *CommandParser) scanInline(b []byte) (n, need int, err error) {
	i := bytes.IndexByte(b[p.pos:], '\n')
	if i < 0 {
		if len(b) > MaxBulkLen {
			return 0, 0, fmt.Errorf("%w: line length %d", ErrTooLarge, len(b))
		}
		p.pos = len(b)
		return 0, needLine, nil
	}
	i += p.pos
	p.pos = 0
	if i == 0 || b[i-1] != '\r' {
		return 0, 0, fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
	}
	p.args = append(p.args[:0], bytes.Fields(b[:i-1])...)
	if len(p.args) == 0 {
		return 0, 0, fmt.Errorf("%w: empty inline command", ErrProtocol)
	}
	return i + 1, 0, nil
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
