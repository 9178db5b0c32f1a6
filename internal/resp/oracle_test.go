package resp

import (
	"bytes"
	"fmt"
)

// ReadCommand reads a client command: either an array of bulk strings or an
// inline command (space-separated words on one line). It returns the
// arguments with the command name first. Nothing outside this package's
// tests calls it: the broker reads untrusted bytes with CommandParser only,
// and this is the reference FuzzCommandParserSplits compares it against.
func (r *Reader) ReadCommand() ([][]byte, error) {
	t, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if t != '*' {
		// Inline command.
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		// Copy before splitting: the scratch line is overwritten by the
		// next read, while command args may outlive it.
		fields := bytes.Fields(append([]byte(nil), line...))
		if len(fields) == 0 {
			return nil, fmt.Errorf("%w: empty inline command", ErrProtocol)
		}
		return fields, nil
	}
	n, err := r.readInt()
	if err != nil {
		return nil, err
	}
	if n <= 0 || n > maxArrayLen {
		return nil, fmt.Errorf("%w: command array length %d", ErrProtocol, n)
	}
	args := make([][]byte, n)
	for i := range args {
		v, err := r.ReadValue()
		if err != nil {
			return nil, err
		}
		if v.Kind != KindBulkString || v.Null {
			return nil, fmt.Errorf("%w: command element %d is %s, want bulk string", ErrProtocol, i, v.Kind)
		}
		args[i] = v.Str
	}
	return args, nil
}
