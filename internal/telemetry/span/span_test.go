package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestIDs(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("IDs are not 64-bit hex: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("consecutive IDs collided: %q", a)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	spans := []Span{
		{Trace: "t1", ID: "r1", Kind: KindRun, Name: "tpsfarm", StartNS: 100, EndNS: 900},
		{Trace: "t1", ID: "c1", Parent: "r1", Kind: KindCell, Name: "gups/tps",
			Outcome: OutcomeCompleted, StartNS: 150, EndNS: 800},
		{Trace: "t1", ID: "l1", Parent: "c1", Kind: KindLease, Name: "gups/tps",
			Worker: "w-1", Gen: 3, Outcome: OutcomeExpired, StartNS: 150, EndNS: 400},
		{Trace: "t1", ID: "a1", Parent: "c1", Kind: KindAttempt, Name: "gups/tps",
			Worker: "w-2", Gen: 4, Outcome: OutcomeFailed, Err: "boom", StartNS: 420, EndNS: 800},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("got %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Fatalf("span %d mutated: %+v != %+v", i, got[i], spans[i])
		}
	}
	if d := spans[2].Duration(); d != 250 {
		t.Fatalf("Duration = %d, want 250", d)
	}
}

func TestReadSpansStrict(t *testing.T) {
	good := `{"trace":"t","id":"a","kind":"run","name":"n","start_ns":1,"end_ns":2}`
	cases := []struct {
		name, input string
		wantLine    string
	}{
		{"unknown-field", good + "\n" + `{"trace":"t","id":"b","kind":"cell","name":"n","start_ns":1,"end_ns":2,"bogus":1}` + "\n", "line 2"},
		{"missing-id", `{"trace":"t","kind":"run","name":"n","start_ns":1,"end_ns":2}` + "\n", "line 1"},
		{"truncated", good + "\n" + good[:12] + "\n", "line 2"},
		{"trailing-object", good + "\n" + good + " " + good + "\n", "line 2"},
		{"trailing-garbage", good + " garbage\n", "line 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadSpans(strings.NewReader(c.input))
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !strings.Contains(err.Error(), c.wantLine) {
				t.Fatalf("error %q lacks %q", err, c.wantLine)
			}
		})
	}
}

func TestChromeTrace(t *testing.T) {
	spans := []Span{
		{Trace: "t", ID: "r", Kind: KindRun, Name: "run", StartNS: 1_000_000, EndNS: 5_000_000},
		{Trace: "t", ID: "a", Parent: "r", Kind: KindAttempt, Name: "gups/tps",
			Worker: "w-1", Gen: 2, StartNS: 2_000_000, EndNS: 4_000_000},
	}
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid trace_event JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(out.TraceEvents))
	}
	// Rebased to the earliest span, microseconds.
	if out.TraceEvents[0].TS != 0 || out.TraceEvents[0].Dur != 4000 {
		t.Fatalf("run event mis-timed: %+v", out.TraceEvents[0])
	}
	if out.TraceEvents[1].TS != 1000 || out.TraceEvents[1].TID != 1 {
		t.Fatalf("attempt event mis-laned: %+v", out.TraceEvents[1])
	}
	if out.TraceEvents[0].Ph != "X" {
		t.Fatalf("phase = %q, want X", out.TraceEvents[0].Ph)
	}
}
