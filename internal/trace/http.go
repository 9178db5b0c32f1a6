package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"

	"github.com/dynamoth/dynamoth/internal/obs"
)

// wireEvent is the JSONL schema served by /debug/events. Kind is the
// symbolic name; component is derived from it so consumers need no table.
type wireEvent struct {
	Seq       uint64 `json:"seq"`
	TS        int64  `json:"ts"`
	Kind      string `json:"kind"`
	Component string `json:"component"`
	Plan      uint64 `json:"plan"`
	Subject   string `json:"subject,omitempty"`
	Detail    string `json:"detail,omitempty"`
	Value     int64  `json:"value"`
	Aux       int64  `json:"aux,omitempty"`
}

func toWire(ev Event) wireEvent {
	return wireEvent{
		Seq:       ev.Seq,
		TS:        ev.Time,
		Kind:      ev.Kind.String(),
		Component: ev.Kind.Component(),
		Plan:      ev.Plan,
		Subject:   ev.Subject,
		Detail:    ev.Detail,
		Value:     ev.Value,
		Aux:       ev.Aux,
	}
}

// WriteJSONL encodes events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(toWire(ev)); err != nil {
			return err
		}
	}
	return nil
}

// EventsHandler serves the recorder as JSONL on /debug/events. The optional
// ?since=N query returns only events with Seq > N, enabling cursor-based
// tailing; the X-Trace-Seq response header carries the latest sequence so a
// tail client can resume from it.
func (r *Recorder) EventsHandler() obs.Handler {
	return func(body *bytes.Buffer, q url.Values) obs.Reply {
		var since uint64
		if s := q.Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return obs.Error(body, 400, "bad since cursor: "+err.Error())
			}
			since = v
		}
		_ = WriteJSONL(body, r.Events(since))
		return obs.Reply{
			ContentType: "application/jsonl; charset=utf-8",
			Header:      [][2]string{{"X-Trace-Seq", strconv.FormatUint(r.Seq(), 10)}},
		}
	}
}

// RebalancesHandler serves reconstructed per-rebalance timelines as a JSON
// array on /debug/rebalances.
func (r *Recorder) RebalancesHandler() obs.Handler {
	return obs.JSONHandler(func() any {
		if timelines := r.Timelines(); timelines != nil {
			return timelines
		}
		return []Rebalance{}
	})
}

// ValidateJSONL checks a /debug/events payload: every line must be a JSON
// object matching the wire schema, with known kind names, positive
// timestamps, and strictly increasing sequence numbers. It returns the
// number of valid events.
func ValidateJSONL(rd io.Reader) (int, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	n := 0
	var lastSeq uint64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev wireEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return n, fmt.Errorf("line %d: invalid JSON: %w", n+1, err)
		}
		if ev.Seq == 0 {
			return n, fmt.Errorf("line %d: missing seq", n+1)
		}
		if ev.Seq <= lastSeq {
			return n, fmt.Errorf("line %d: seq %d not increasing (previous %d)", n+1, ev.Seq, lastSeq)
		}
		if ev.TS <= 0 {
			return n, fmt.Errorf("line %d: non-positive timestamp %d", n+1, ev.TS)
		}
		if KindByName(ev.Kind) == KindUnknown && ev.Kind != "unknown" {
			return n, fmt.Errorf("line %d: unknown kind %q", n+1, ev.Kind)
		}
		lastSeq = ev.Seq
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}
