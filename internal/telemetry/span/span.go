// Package span is the fleet's dependency-free distributed-tracing model.
// One sweep produces one trace: a run span at the root, a cell span per
// grid cell, a lease span per coordinator grant of that cell (so work
// lost to SIGKILLed workers is still visible — the grant record is the
// only evidence they leave), and worker-side attempt spans per compute
// try. Span IDs ride the
// fabric lease protocol: the coordinator stamps each lease with the trace
// ID and the cell's span ID, workers parent their attempt spans under it
// and return them in the completion payload, and the coordinator
// assembles the run-wide trace.
//
// The model is deliberately minimal — stdlib only, flat JSONL on the
// wire, wall-clock unix nanoseconds — because the consumers are jq, the
// tpsreport timeline renderer, and Chrome's about:tracing, not an OTLP
// collector. Cross-host clock skew therefore shows up as span skew; the
// timeline views order by start time and never assume alignment tighter
// than the heartbeat interval.
package span

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Span kinds, root to leaf.
const (
	KindRun     = "run"     // one per trace: the whole sweep
	KindCell    = "cell"    // one per grid cell, parented to the run
	KindLease   = "lease"   // one per coordinator grant, parented to the cell
	KindAttempt = "attempt" // one per worker compute try, parented to the cell
)

// Outcome vocabulary. Cells and leases use the coordinator's view;
// attempts use the worker's.
const (
	OutcomeCompleted  = "completed"
	OutcomeFailed     = "failed"
	OutcomeExpired    = "expired"    // lease TTL lapsed without completion
	OutcomeSuperseded = "superseded" // another grant settled the cell first
	OutcomeSeeded     = "store-seeded"
	OutcomeLive       = "live" // still open when the trace was assembled
)

// Span is one timed node of a trace tree.
type Span struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"` // cells/attempts: "workload/scheme"

	Worker string `json:"worker,omitempty"` // worker name, where one applies
	Gen    uint64 `json:"gen,omitempty"`    // lease generation, where one applies

	StartNS int64 `json:"start_ns"` // wall clock, unix nanoseconds
	EndNS   int64 `json:"end_ns"`   // 0 only for spans still open at assembly

	Outcome string `json:"outcome,omitempty"`
	Err     string `json:"error,omitempty"`
}

// Duration returns the span's wall time (zero for open or skewed spans).
func (s Span) Duration() time.Duration {
	if s.EndNS <= s.StartNS {
		return 0
	}
	return time.Duration(s.EndNS - s.StartNS)
}

// idCounter backs the fallback ID source if crypto/rand ever fails
// (it effectively cannot on the supported platforms).
var idCounter atomic.Uint64

// NewID returns a 64-bit random hex ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := idCounter.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// ParseSpan decodes one JSONL line strictly: unknown fields and trailing
// data after the record are rejected, and a span without trace, id, or
// kind is malformed.
func ParseSpan(line []byte) (Span, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var s Span
	if err := dec.Decode(&s); err != nil {
		return Span{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Span{}, fmt.Errorf("span: trailing data after record")
	}
	if s.Trace == "" || s.ID == "" || s.Kind == "" {
		return Span{}, fmt.Errorf("span: record missing trace, id, or kind")
	}
	return s, nil
}

// ReadSpans parses a JSONL stream, failing with the 1-based line number
// of the first malformed record. Blank lines are ignored.
func ReadSpans(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		s, err := ParseSpan(raw)
		if err != nil {
			return nil, fmt.Errorf("span: line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteAll emits spans as JSONL, one span per line.
func WriteAll(w io.Writer, spans []Span) error {
	var buf bytes.Buffer
	for _, s := range spans {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// chromeEvent is one Chrome trace_event "complete" record.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds since trace start
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace exports spans in Chrome's trace_event JSON format
// (chrome://tracing, Perfetto). Lanes (tids) are assigned per worker,
// sorted by name for a stable layout; coordinator-side spans (run, cell,
// lease without a worker) share lane 0. Timestamps are rebased to the
// earliest span so the viewer opens at t=0.
func ChromeTrace(w io.Writer, spans []Span) error {
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.StartNS < t0 {
			t0 = s.StartNS
		}
	}
	laneSet := map[string]bool{}
	for _, s := range spans {
		if s.Worker != "" {
			laneSet[s.Worker] = true
		}
	}
	workers := make([]string, 0, len(laneSet))
	for name := range laneSet {
		workers = append(workers, name)
	}
	sort.Strings(workers)
	lane := map[string]int{}
	for i, name := range workers {
		lane[name] = i + 1
	}

	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		end := s.EndNS
		if end < s.StartNS {
			end = s.StartNS
		}
		args := map[string]string{"kind": s.Kind}
		if s.Outcome != "" {
			args["outcome"] = s.Outcome
		}
		if s.Gen != 0 {
			args["gen"] = fmt.Sprintf("%d", s.Gen)
		}
		if s.Err != "" {
			args["error"] = s.Err
		}
		evs = append(evs, chromeEvent{
			Name: s.Name,
			Cat:  s.Kind,
			Ph:   "X",
			TS:   float64(s.StartNS-t0) / 1e3,
			Dur:  float64(end-s.StartNS) / 1e3,
			PID:  1,
			TID:  lane[s.Worker],
			Args: args,
		})
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: evs}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
