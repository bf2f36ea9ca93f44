package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Cell lifecycle event types, in the order a cell can emit them. A cell's
// stream is one of:
//
//	queued → store-hit                             (replayed from the store)
//	queued → started → [retried...] → finished     (computed)
//	queued → started → [retried...] → failed       (error/panic/timeout)
//
// dedup-joined marks an additional consumer attaching to an existing
// flight (no new cell), and quarantined marks the store moving a corrupt
// entry aside (the cell recomputes and emits a normal started stream).
const (
	EventQueued      = "queued"
	EventDedupJoined = "dedup-joined"
	EventStoreHit    = "store-hit"
	EventStarted     = "started"
	EventRetried     = "retried"
	EventFailed      = "failed"
	EventQuarantined = "quarantined"
	EventFinished    = "finished"
)

// Fleet lease-lifecycle event types: cmd/tpsfarm translates the fabric
// coordinator's OnEvent stream into these ("lease-" + the fabric kind),
// so one -events file interleaves cell lifecycle and lease protocol in
// emission order. Origin names the worker involved and Gen the lease
// generation.
const (
	EventLeaseGranted    = "lease-granted"
	EventLeaseSpeculated = "lease-speculated"
	EventLeaseExpired    = "lease-expired"
	EventLeaseCompleted  = "lease-completed"
	EventLeaseDuplicate  = "lease-duplicate"
	EventLeaseFailed     = "lease-failed"
	EventLeaseRequeued   = "lease-requeued"
	EventLeaseRejected   = "lease-rejected"
)

// Counters is the finished-event snapshot of one cell's modeled
// statistics — the figure-level numbers a diverging cell is debugged
// against without rerunning the sweep.
type Counters struct {
	Refs        uint64 `json:"refs"`
	L1Hits      uint64 `json:"l1_hits"`
	L1Misses    uint64 `json:"l1_misses"`
	L2Hits      uint64 `json:"l2_hits"` // STLB
	L2Misses    uint64 `json:"l2_misses"`
	WalkMemRefs uint64 `json:"walk_mem_refs"`
	AliasExtras uint64 `json:"alias_extras"`
}

// Event is one JSONL line of the structured event stream. TNS is
// monotonic nanoseconds since the recorder was created (derived from the
// monotonic clock, so events order correctly even across wall-clock
// adjustments). Worker is the engine worker slot, -1 when no slot is
// involved (queued, dedup-joined, quarantined).
type Event struct {
	TNS      int64     `json:"t_ns"`
	Event    string    `json:"event"`
	Cell     string    `json:"cell"`
	Workload string    `json:"workload,omitempty"`
	Setup    string    `json:"setup,omitempty"`   // display label
	Scheme   string    `json:"scheme,omitempty"`  // stable registry name
	Variant  string    `json:"variant,omitempty"` // cell variant ("smt+cyc"); "" for a plain cell
	Worker   int       `json:"worker"`
	Origin   string    `json:"origin,omitempty"`   // fleet worker name (tpsworker/tpsfarm)
	Gen      uint64    `json:"gen,omitempty"`      // lease generation (fleet events)
	Attempt  int       `json:"attempt,omitempty"`  // retried only
	DurNS    int64     `json:"dur_ns,omitempty"`   // finished/failed
	Error    string    `json:"error,omitempty"`    // failed
	Counters *Counters `json:"counters,omitempty"` // finished only
}

// ParseEvent decodes one JSONL line strictly: unknown fields are a schema
// violation, not silently dropped, and anything but whitespace after the
// record (two records that lost their newline) is malformed — the
// round-trip tests and cmd/tpsreport both validate files through this
// single entry point.
func ParseEvent(line []byte) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var ev Event
	if err := dec.Decode(&ev); err != nil {
		return Event{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Event{}, fmt.Errorf("telemetry: trailing data after event")
	}
	if ev.Event == "" {
		return Event{}, fmt.Errorf("telemetry: event line missing \"event\" field")
	}
	return ev, nil
}

// EventLog writes events as JSONL with atomic line writes: each line is
// marshaled completely, then written in a single Write call under the
// mutex, so concurrent cells never interleave partial lines and a reader
// tailing the file (or a crash) sees only whole records.
type EventLog struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error // first write error; subsequent emits are dropped
}

// NewEventLog wraps a writer (typically an unbuffered *os.File, so each
// line is one write syscall) in an event sink.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w}
}

// Emit appends one event line. Write errors are sticky and silent at emit
// time (telemetry must never fail a run); Err reports the first one.
func (l *EventLog) Emit(ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return // unreachable for Event, but never panic a run over telemetry
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	l.buf = append(l.buf[:0], data...)
	l.buf = append(l.buf, '\n')
	if _, err := l.w.Write(l.buf); err != nil {
		l.err = err
	}
}

// Err reports the first write failure, if any.
func (l *EventLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ReadEvents parses a complete JSONL stream, failing with the 1-based
// line number of the first malformed record. Blank lines are ignored.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var evs []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ev, err := ParseEvent(raw)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return evs, nil
}
