package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEventSchemaRoundTrip: every event shape the recorder emits must
// survive Marshal → ParseEvent unchanged, and ParseEvent must enforce the
// schema strictly (unknown fields, missing event type).
func TestEventSchemaRoundTrip(t *testing.T) {
	events := []Event{
		{TNS: 1, Event: EventQueued, Cell: "abc123", Workload: "gups", Setup: "TPS", Worker: -1},
		{TNS: 2, Event: EventDedupJoined, Cell: "abc123", Workload: "gups", Setup: "TPS", Worker: -1},
		{TNS: 3, Event: EventStoreHit, Cell: "abc123", Workload: "gups", Setup: "TPS", Worker: 2},
		{TNS: 4, Event: EventStarted, Cell: "def456", Workload: "mcf", Setup: "THP", Variant: "smt+cyc", Worker: 0},
		{TNS: 5, Event: EventRetried, Cell: "def456", Workload: "mcf", Setup: "THP", Worker: 0, Attempt: 1},
		{TNS: 6, Event: EventQuarantined, Cell: "def456", Worker: -1},
		{TNS: 7, Event: EventFailed, Cell: "def456", Workload: "mcf", Setup: "THP", Worker: 0,
			DurNS: 12345, Error: "boom"},
		{TNS: 8, Event: EventFinished, Cell: "abc999", Workload: "gups", Setup: "TPS", Variant: "threshold=0.5", Worker: 3,
			DurNS: 99999, Counters: &Counters{
				Refs: 1 << 20, L1Hits: 9, L1Misses: 8, L2Hits: 7, L2Misses: 6,
				WalkMemRefs: 5, AliasExtras: 4,
			}},
	}
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseEvent(data)
		if err != nil {
			t.Fatalf("%s: %v", ev.Event, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("%s did not round-trip:\n got %+v\nwant %+v", ev.Event, got, ev)
		}
	}

	if _, err := ParseEvent([]byte(`{"t_ns":1,"event":"queued","cell":"x","worker":-1,"bogus":true}`)); err == nil {
		t.Error("unknown field accepted; schema must be strict")
	}
	if _, err := ParseEvent([]byte(`{"t_ns":1,"cell":"x","worker":-1}`)); err == nil {
		t.Error("missing event type accepted")
	}
	if _, err := ParseEvent([]byte(`not json`)); err == nil {
		t.Error("malformed line accepted")
	}
	// Two records that lost their newline are one malformed line, not
	// the first record with the second silently dropped.
	if _, err := ParseEvent([]byte(`{"t_ns":1,"event":"finished","cell":"c","worker":0} {"bogus":1}`)); err == nil {
		t.Error("trailing object accepted")
	}
	if _, err := ParseEvent([]byte(`{"t_ns":1,"event":"finished","cell":"c","worker":0} garbage`)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestEventLogAtomicLines: concurrent emitters must never interleave
// partial lines — every line of the resulting stream parses.
func TestEventLogAtomicLines(t *testing.T) {
	var buf lockedBuffer
	log := NewEventLog(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				log.Emit(Event{Event: EventStarted, Cell: strings.Repeat("x", 64), Worker: g})
			}
		}(g)
	}
	wg.Wait()
	if err := log.Err(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("interleaved or corrupt line: %v", err)
	}
	if len(evs) != 8*200 {
		t.Errorf("got %d events, want %d", len(evs), 8*200)
	}
}

// lockedBuffer serializes writes (bytes.Buffer alone is not safe for
// concurrent writers); line atomicity is still the EventLog's job.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestEventLogStickyError: a failing writer mutes the log without
// panicking or blocking, and Err reports the first failure.
func TestEventLogStickyError(t *testing.T) {
	log := NewEventLog(failWriter{})
	log.Emit(Event{Event: EventQueued, Cell: "x", Worker: -1})
	log.Emit(Event{Event: EventQueued, Cell: "y", Worker: -1})
	if log.Err() == nil {
		t.Fatal("write error not surfaced")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestRecorderLifecycle drives one synthetic cell grid through the
// recorder and checks the counters, the event stream, and the manifest
// agree with each other.
func TestRecorderLifecycle(t *testing.T) {
	var buf lockedBuffer
	rec := New()
	rec.LogTo(NewEventLog(&buf))
	rec.ConfigureWorkers(2)

	a := CellInfo{Key: "aaa", Workload: "gups", Setup: "TPS"}
	b := CellInfo{Key: "bbb", Workload: "gups", Setup: "THP"}
	c := CellInfo{Key: "ccc", Workload: "mcf", Setup: "TPS", Variant: "smt+cyc"}

	rec.CellQueued(a)
	rec.CellStarted(a, 0)
	rec.WorkerRefs(0)(512)
	rec.WorkerRefs(0)(512)
	rec.CellFinished(a, 0, 80*time.Millisecond, Counters{Refs: 1024, L1Misses: 3})

	rec.CellQueued(b)
	rec.CellDedupJoined(b)
	rec.CellStoreHit(b, 1)
	rec.CellStoreMiss()

	rec.CellQueued(c)
	rec.CellStarted(c, 1)
	rec.CellRetried(c, 1, 1)
	rec.CellFailed(c, 1, 10*time.Millisecond, errors.New("boom"))
	rec.StoreQuarantined("ddd")

	s := rec.Snapshot()
	want := Snapshot{
		CellsQueued: 3, CellsDone: 2, CellsFailed: 1, DedupJoined: 1,
		StoreHits: 1, StoreMisses: 1, Retries: 1, Quarantined: 1, RefsTotal: 1024,
	}
	if s.CellsQueued != want.CellsQueued || s.CellsDone != want.CellsDone ||
		s.CellsFailed != want.CellsFailed || s.DedupJoined != want.DedupJoined ||
		s.StoreHits != want.StoreHits || s.StoreMisses != want.StoreMisses ||
		s.Retries != want.Retries || s.Quarantined != want.Quarantined ||
		s.RefsTotal != want.RefsTotal {
		t.Errorf("snapshot counters = %+v, want %+v", s, want)
	}
	if len(s.Workers) != 2 {
		t.Fatalf("got %d workers, want 2", len(s.Workers))
	}
	if s.Workers[0].Refs != 1024 || s.Workers[0].Cell != "" {
		t.Errorf("worker 0 = %+v, want idle with 1024 refs", s.Workers[0])
	}

	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, ev := range evs {
		types = append(types, ev.Event)
	}
	wantTypes := []string{
		EventQueued, EventStarted, EventFinished,
		EventQueued, EventDedupJoined, EventStoreHit,
		EventQueued, EventStarted, EventRetried, EventFailed,
		EventQuarantined,
	}
	if !reflect.DeepEqual(types, wantTypes) {
		t.Errorf("event stream %v, want %v", types, wantTypes)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TNS < evs[i-1].TNS {
			t.Errorf("timestamps not monotone: event %d at %d after %d", i, evs[i].TNS, evs[i-1].TNS)
		}
	}
	fin := evs[2]
	if fin.Counters == nil || fin.Counters.Refs != 1024 || fin.DurNS != (80*time.Millisecond).Nanoseconds() {
		t.Errorf("finished event incomplete: %+v", fin)
	}

	note := rec.ProgressNote()
	if !strings.Contains(note, "cells 3/3") || !strings.Contains(note, "1 store hits") {
		t.Errorf("progress note %q missing done/total or store hits", note)
	}
	sum := rec.SummaryLine()
	for _, frag := range []string{"3 cells", "1 store hits", "1 dedup-joined", "1 retries", "1 quarantined", "1 FAILED"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary %q missing %q", sum, frag)
		}
	}

	m := rec.Manifest()
	if len(m.Cells) != 3 {
		t.Fatalf("manifest has %d cells, want 3", len(m.Cells))
	}
	// Sorted by workload/setup: gups/THP, gups/TPS, mcf/TPS.
	if m.Cells[0].Status != StatusStoreHit || m.Cells[1].Status != StatusOK || m.Cells[2].Status != StatusFailed {
		t.Errorf("manifest cells out of order or mis-statused: %+v", m.Cells)
	}
	if m.Cells[2].Error != "boom" {
		t.Errorf("failed cell lost its error: %+v", m.Cells[2])
	}
	// The variant reaches every event and the manifest record of its
	// cell; a plain cell carries none.
	for _, ev := range evs {
		if want := map[string]string{"ccc": "smt+cyc"}[ev.Cell]; ev.Variant != want {
			t.Errorf("%s event of cell %s has variant %q, want %q", ev.Event, ev.Cell, ev.Variant, want)
		}
	}
	if m.Cells[2].Variant != "smt+cyc" || m.Cells[0].Variant != "" || m.Cells[1].Variant != "" {
		t.Errorf("manifest variants = %q %q %q, want \"\" \"\" \"smt+cyc\"",
			m.Cells[0].Variant, m.Cells[1].Variant, m.Cells[2].Variant)
	}
}

// TestNilRecorder: the disabled path must be safe to call everywhere.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.ConfigureWorkers(4)
	r.LogTo(NewEventLog(io.Discard))
	ci := CellInfo{Key: "x"}
	r.CellQueued(ci)
	r.CellDedupJoined(ci)
	r.CellStoreHit(ci, 0)
	r.CellStoreMiss()
	r.CellStarted(ci, 0)
	r.CellRetried(ci, 0, 1)
	r.CellFinished(ci, 0, time.Millisecond, Counters{})
	r.CellFailed(ci, 0, time.Millisecond, errors.New("x"))
	r.StoreQuarantined("x")
	if hook := r.WorkerRefs(0); hook != nil {
		t.Error("nil recorder returned a non-nil refs hook")
	}
	if note := r.ProgressNote(); note != "" {
		t.Errorf("nil recorder progress note %q", note)
	}
	_ = r.Snapshot()
	_ = r.Manifest()
}

// TestManifestWriteAtomic: the manifest lands complete via temp+rename
// (no partial file under the final name) and round-trips through
// ReadManifest.
func TestManifestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	m := Manifest{
		Version:   "tps-sim-v1",
		GoVersion: "go-test",
		StartedAt: time.Now().Truncate(time.Second),
		Config:    RunConfig{Refs: 1 << 20, Seed: 42, Target: "-fig 10"},
		Exit:      ExitStatus{Status: "interrupted", Code: 130, Error: "context canceled"},
		Cells: []CellRecord{
			{Cell: "aaa", Workload: "gups", Setup: "TPS", Status: StatusOK, WallS: 1.5},
			{Cell: "bbb", Workload: "gups", Setup: "TPS", Variant: "frag+cyc", Status: StatusOK, WallS: 2.5},
		},
	}
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	// Overwrite must also be atomic (rename over the old file).
	m.Exit = ExitStatus{Status: "ok"}
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Exit.Status != "ok" || got.Version != m.Version || !reflect.DeepEqual(got.Cells, m.Cells) {
		t.Errorf("manifest did not round-trip: %+v", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp files left behind: %v", ents)
	}
}

// TestHandlerServesSnapshot: /metrics returns a decodable snapshot, the
// index lists endpoints, and pprof is mounted.
func TestHandlerServesSnapshot(t *testing.T) {
	rec := New()
	rec.ConfigureWorkers(1)
	rec.CellQueued(CellInfo{Key: "x", Workload: "gups", Setup: "TPS"})
	srv := httptest.NewServer(Handler(rec))
	defer srv.Close()

	var snap Snapshot
	getJSON(t, srv.URL+"/metrics", &snap)
	if snap.CellsQueued != 1 {
		t.Errorf("snapshot cells_queued = %d, want 1", snap.CellsQueued)
	}
	for _, path := range []string{"/", "/debug/vars", "/debug/pprof/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}
