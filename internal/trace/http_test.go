package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestEventsHandlerJSONL(t *testing.T) {
	r := NewRecorder(32)
	r.SetNow(testNow())
	r.Record(KindTrigger, 2, "", "spawn:1", 0, 0)
	r.Record(KindPlanPush, 2, "pub1", "", int64(time.Millisecond), 0)

	srv := httptest.NewServer(r.EventsHandler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/jsonl") {
		t.Fatalf("content type %q", ct)
	}
	if hdr := res.Header.Get("X-Trace-Seq"); hdr != "2" {
		t.Fatalf("X-Trace-Seq = %q, want 2", hdr)
	}
	n, err := ValidateJSONL(res.Body)
	if err != nil {
		t.Fatalf("ValidateJSONL: %v", err)
	}
	if n != 2 {
		t.Fatalf("validated %d events, want 2", n)
	}
}

func TestEventsHandlerSinceCursor(t *testing.T) {
	r := NewRecorder(32)
	r.SetNow(testNow())
	for i := 0; i < 5; i++ {
		r.Record(KindSwitchSend, 1, "game", "", 0, 0)
	}
	srv := httptest.NewServer(r.EventsHandler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "?since=3")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var seqs []uint64
	dec := json.NewDecoder(res.Body)
	for dec.More() {
		var ev wireEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, ev.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("since=3 returned seqs %v, want [4 5]", seqs)
	}

	bad, err := srv.Client().Get(srv.URL + "?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("bad cursor gave status %d, want 400", bad.StatusCode)
	}
}

func TestRebalancesHandler(t *testing.T) {
	r := NewRecorder(64)
	r.SetNow(testNow())
	sp := r.StartSpan(KindPlanCompute, 0, "")
	sp.EndAt(2, "high-load:1 moves", 1)
	r.Record(KindPlanPush, 2, "pub1", "", int64(time.Millisecond), 0)
	r.Record(KindMigrate, 2, "game", "switch", 1, 2)
	for i := 0; i < 5; i++ {
		r.Record(KindDuplicate, 0, "game", "", 1, 0)
	}

	srv := httptest.NewServer(r.RebalancesHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var timelines []Rebalance
	if err := json.NewDecoder(res.Body).Decode(&timelines); err != nil {
		t.Fatal(err)
	}
	if len(timelines) != 1 || timelines[0].Plan != 2 {
		t.Fatalf("timelines = %+v", timelines)
	}
	if timelines[0].Suppressed != 5 {
		t.Fatalf("suppressed = %d, want 5", timelines[0].Suppressed)
	}
}

func TestRebalancesHandlerEmpty(t *testing.T) {
	r := NewRecorder(8)
	srv := httptest.NewServer(r.RebalancesHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var timelines []Rebalance
	if err := json.NewDecoder(res.Body).Decode(&timelines); err != nil {
		t.Fatal(err)
	}
	if timelines == nil || len(timelines) != 0 {
		t.Fatalf("empty recorder should serve [], got %v", timelines)
	}
}

func TestValidateJSONLRejectsBadStreams(t *testing.T) {
	cases := map[string]string{
		"not json":       "hello\n",
		"missing seq":    `{"ts":1,"kind":"trigger"}` + "\n",
		"bad kind":       `{"seq":1,"ts":1,"kind":"party"}` + "\n",
		"zero ts":        `{"seq":1,"ts":0,"kind":"trigger"}` + "\n",
		"seq regression": `{"seq":2,"ts":1,"kind":"trigger"}` + "\n" + `{"seq":1,"ts":2,"kind":"trigger"}` + "\n",
		"seq duplicated": `{"seq":2,"ts":1,"kind":"trigger"}` + "\n" + `{"seq":2,"ts":2,"kind":"trigger"}` + "\n",
	}
	for name, payload := range cases {
		if _, err := ValidateJSONL(strings.NewReader(payload)); err == nil {
			t.Fatalf("%s: ValidateJSONL accepted %q", name, payload)
		}
	}
	good := ""
	for i := 1; i <= 3; i++ {
		good += `{"seq":` + strconv.Itoa(i) + `,"ts":` + strconv.Itoa(i*1000) + `,"kind":"migrate","component":"client","plan":2,"subject":"game","value":1}` + "\n"
	}
	n, err := ValidateJSONL(strings.NewReader(good + "\n\n"))
	if err != nil || n != 3 {
		t.Fatalf("good stream rejected: n=%d err=%v", n, err)
	}
}
