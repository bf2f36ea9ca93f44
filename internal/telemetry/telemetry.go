// Package telemetry is the run-observability layer for long experiment
// sweeps: structured per-cell lifecycle events (JSONL), a live metrics
// snapshot served over HTTP, and an end-of-run manifest. It observes the
// experiment engine without perturbing it — modeled statistics and
// rendered stdout are byte-identical with telemetry on, off, or absent.
//
// The overhead contract: a nil *Recorder is fully disabled (every method
// is a nil-receiver no-op and the engine passes a nil per-batch hook into
// the simulator), and an enabled Recorder touches the hot path only
// through one per-worker atomic add per delivered reference batch (512
// references) — never an atomic, a lock, or an allocation on the
// per-reference path. Everything else happens at cell granularity
// (hundreds of events per run, not billions).
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tps/internal/telemetry/span"
)

// CellInfo identifies one simulation cell across events and manifest
// records: the content address its result has in the store (a hex
// SHA-256 of the full cell fingerprint), the human-readable
// workload/setup pair, the stable scheme-registry name the cell is keyed
// by, and its variant. Ablation variants share workload/setup labels but
// never keys.
type CellInfo struct {
	Key      string
	Workload string
	Setup    string // display label ("TPS")
	Scheme   string // stable registry name ("tps")
	Variant  string // what sets the cell apart from the plain one ("smt+cyc"); "" for a plain cell
	Gen      uint64 // lease generation, when the cell runs under a fleet lease
}

func (ci CellInfo) label() string { return ci.Workload + "/" + ci.Setup }

// event returns the cell's lifecycle event of the given kind on a worker
// slot (-1: none).
func (ci CellInfo) event(kind string, slot int) Event {
	return Event{Event: kind, Cell: ci.Key, Workload: ci.Workload, Setup: ci.Setup,
		Scheme: ci.Scheme, Variant: ci.Variant, Gen: ci.Gen, Worker: slot}
}

// record returns the cell's manifest record with the given status.
func (ci CellInfo) record(status string) CellRecord {
	return CellRecord{Cell: ci.Key, Workload: ci.Workload, Setup: ci.Setup,
		Scheme: ci.Scheme, Variant: ci.Variant, Status: status}
}

// worker is one engine worker slot's live state. The refs counter is the
// only value touched from the simulation loop (one atomic add per batch);
// cell identity changes only at cell boundaries, under the mutex.
type worker struct {
	refs atomic.Uint64

	mu    sync.Mutex
	cell  string // "" when idle
	since time.Time
}

// Recorder collects a run's telemetry. Construct with New; a nil
// *Recorder is valid and means "telemetry off" — every method is a
// no-op, so callers thread it through unconditionally.
type Recorder struct {
	start time.Time // carries wall and monotonic clocks

	log    *EventLog // nil: no events file
	origin string    // fleet worker name stamped on every event; "" for local runs

	// workers is set once, by ConfigureWorkers, and may be read by a
	// metrics handler that is already serving — hence the atomic.
	workers atomic.Pointer[[]worker]

	cellsQueued atomic.Uint64 // flights created (the running "total")
	cellsDone   atomic.Uint64 // finished + store-hit
	cellsFailed atomic.Uint64
	dedupJoined atomic.Uint64
	storeHits   atomic.Uint64
	storeMisses atomic.Uint64
	retries     atomic.Uint64
	quarantined atomic.Uint64

	mu       sync.Mutex
	cells    []CellRecord // settled cells, for the manifest
	ewmaNS   float64      // EWMA of computed-cell wall time (store hits excluded)
	lastSnap time.Time    // refs/sec-since-last-snapshot state
	lastRefs uint64
}

// New creates an enabled Recorder. Attach an events file with LogTo.
func New() *Recorder {
	return &Recorder{start: time.Now()}
}

// LogTo attaches the structured-event JSONL sink. Call before the run
// starts; a nil Recorder ignores it.
func (r *Recorder) LogTo(l *EventLog) {
	if r == nil {
		return
	}
	r.log = l
}

// SetOrigin names this process in the event stream — the fleet worker ID,
// so events from many workers appending to a shared file (or merged later)
// stay attributable. Call before the run starts.
func (r *Recorder) SetOrigin(name string) {
	if r == nil {
		return
	}
	r.origin = name
}

// ConfigureWorkers sizes the per-worker state to the engine's pool width.
// The first call wins; the engine calls it once at construction.
func (r *Recorder) ConfigureWorkers(n int) {
	if r == nil || n <= 0 {
		return
	}
	ws := make([]worker, n)
	r.workers.CompareAndSwap(nil, &ws)
}

// slots returns the per-worker state; nil until ConfigureWorkers.
func (r *Recorder) slots() []worker {
	if p := r.workers.Load(); p != nil {
		return *p
	}
	return nil
}

// WorkerRefs returns the per-batch reference hook for a worker slot, or
// nil when telemetry is off — the simulator calls it once per delivered
// batch, never per reference.
func (r *Recorder) WorkerRefs(slot int) func(n uint64) {
	if r == nil {
		return nil
	}
	ws := r.slots()
	if slot < 0 || slot >= len(ws) {
		return nil
	}
	w := &ws[slot]
	return func(n uint64) { w.refs.Add(n) }
}

// sinceStart is the monotonic event timestamp.
func (r *Recorder) sinceStart() int64 { return time.Since(r.start).Nanoseconds() }

// emit writes one event to the JSONL log, if attached.
func (r *Recorder) emit(ev Event) {
	if r.log == nil {
		return
	}
	ev.TNS = r.sinceStart()
	if ev.Origin == "" {
		ev.Origin = r.origin
	}
	r.log.Emit(ev)
}

// CellQueued records a new flight: the cell exists and will eventually
// settle. Dedup-joined waiters do not queue new cells.
func (r *Recorder) CellQueued(ci CellInfo) {
	if r == nil {
		return
	}
	r.cellsQueued.Add(1)
	r.emit(ci.event(EventQueued, -1))
}

// CellDedupJoined records a caller attaching to an existing flight
// instead of recomputing the cell.
func (r *Recorder) CellDedupJoined(ci CellInfo) {
	if r == nil {
		return
	}
	r.dedupJoined.Add(1)
	r.emit(ci.event(EventDedupJoined, -1))
}

// CellStoreHit records a cell settled by replaying a persisted result.
func (r *Recorder) CellStoreHit(ci CellInfo, slot int) {
	if r == nil {
		return
	}
	r.storeHits.Add(1)
	r.cellsDone.Add(1)
	now := r.sinceStart()
	r.emit(ci.event(EventStoreHit, slot))
	rec := ci.record(StatusStoreHit)
	rec.TStartNS, rec.TEndNS = now, now
	r.recordCell(rec)
}

// CellStoreMiss counts a store consultation that found nothing (the cell
// computes). Only called when a store is configured.
func (r *Recorder) CellStoreMiss() {
	if r == nil {
		return
	}
	r.storeMisses.Add(1)
}

// CellStarted marks a worker slot busy on a cell and emits the event.
func (r *Recorder) CellStarted(ci CellInfo, slot int) {
	if r == nil {
		return
	}
	if ws := r.slots(); slot >= 0 && slot < len(ws) {
		w := &ws[slot]
		w.mu.Lock()
		w.cell = ci.label()
		w.since = time.Now()
		w.mu.Unlock()
	}
	r.emit(ci.event(EventStarted, slot))
}

// CellRetried records one backoff re-run of a transiently failing cell.
func (r *Recorder) CellRetried(ci CellInfo, slot, attempt int) {
	if r == nil {
		return
	}
	r.retries.Add(1)
	ev := ci.event(EventRetried, slot)
	ev.Attempt = attempt
	r.emit(ev)
}

// CellFinished settles a computed cell: frees its worker slot, folds its
// wall time into the ETA EWMA, and emits the finished event carrying the
// modeled-counter snapshot.
func (r *Recorder) CellFinished(ci CellInfo, slot int, d time.Duration, c Counters) {
	if r == nil {
		return
	}
	r.clearWorker(slot)
	r.cellsDone.Add(1)
	r.observeDuration(d)
	end := r.sinceStart()
	ev := ci.event(EventFinished, slot)
	ev.DurNS, ev.Counters = d.Nanoseconds(), &c
	r.emit(ev)
	rec := ci.record(StatusOK)
	rec.WallS, rec.Refs = d.Seconds(), c.Refs
	rec.TStartNS, rec.TEndNS = end-d.Nanoseconds(), end
	r.recordCell(rec)
}

// CellFailed settles a failed cell (error, panic, timeout, cancellation).
func (r *Recorder) CellFailed(ci CellInfo, slot int, d time.Duration, err error) {
	if r == nil {
		return
	}
	r.clearWorker(slot)
	r.cellsFailed.Add(1)
	r.observeDuration(d)
	end := r.sinceStart()
	ev := ci.event(EventFailed, slot)
	ev.DurNS, ev.Error = d.Nanoseconds(), err.Error()
	r.emit(ev)
	rec := ci.record(StatusFailed)
	rec.WallS, rec.Error = d.Seconds(), err.Error()
	rec.TStartNS, rec.TEndNS = end-d.Nanoseconds(), end
	r.recordCell(rec)
}

// StoreQuarantined is the result store's corruption hook: a corrupt entry
// was moved aside and its cell recomputes. The key is the store key; the
// store does not know workload/setup.
func (r *Recorder) StoreQuarantined(key string) {
	if r == nil {
		return
	}
	r.quarantined.Add(1)
	r.emit(Event{Event: EventQuarantined, Cell: key, Worker: -1})
}

func (r *Recorder) clearWorker(slot int) {
	ws := r.slots()
	if slot < 0 || slot >= len(ws) {
		return
	}
	w := &ws[slot]
	w.mu.Lock()
	w.cell = ""
	w.since = time.Time{}
	w.mu.Unlock()
}

// observeDuration folds one computed cell's wall time into the EWMA the
// ETA estimate uses. Store hits are excluded: replays are ~free and would
// collapse the estimate.
func (r *Recorder) observeDuration(d time.Duration) {
	const alpha = 0.2
	r.mu.Lock()
	if r.ewmaNS == 0 {
		r.ewmaNS = float64(d.Nanoseconds())
	} else {
		r.ewmaNS = alpha*float64(d.Nanoseconds()) + (1-alpha)*r.ewmaNS
	}
	r.mu.Unlock()
}

func (r *Recorder) recordCell(c CellRecord) {
	r.mu.Lock()
	r.cells = append(r.cells, c)
	r.mu.Unlock()
}

// refsTotal sums the per-worker batch counters.
func (r *Recorder) refsTotal() uint64 {
	var n uint64
	ws := r.slots()
	for i := range ws {
		n += ws[i].refs.Load()
	}
	return n
}

// WorkerSnapshot is one worker slot's live state at snapshot time.
type WorkerSnapshot struct {
	ID       int     `json:"id"`
	Cell     string  `json:"cell"` // "" when idle
	ElapsedS float64 `json:"elapsed_s"`
	Refs     uint64  `json:"refs"`
}

// Snapshot is the live metrics view the HTTP endpoint serves. Counters
// are read atomically; the snapshot is internally consistent per field
// and monotone across calls (done never exceeds queued).
type Snapshot struct {
	UptimeS       float64          `json:"uptime_s"`
	CellsQueued   uint64           `json:"cells_queued"`
	CellsDone     uint64           `json:"cells_done"`
	CellsFailed   uint64           `json:"cells_failed"`
	DedupJoined   uint64           `json:"dedup_joined"`
	StoreHits     uint64           `json:"store_hits"`
	StoreMisses   uint64           `json:"store_misses"`
	Retries       uint64           `json:"retries"`
	Quarantined   uint64           `json:"quarantined"`
	RefsTotal     uint64           `json:"refs_total"`
	RefsPerSec    float64          `json:"refs_per_sec"`     // since the previous snapshot
	AvgRefsPerSec float64          `json:"avg_refs_per_sec"` // whole run
	ETAS          float64          `json:"eta_s"`            // rough; -1 when unknown
	Workers       []WorkerSnapshot `json:"workers"`
}

// Snapshot assembles the live metrics view. Safe to call concurrently
// with a running sweep; done is read before queued so the done<=queued
// invariant holds even mid-settlement.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{ETAS: -1}
	}
	now := time.Now()
	s := Snapshot{
		UptimeS:     now.Sub(r.start).Seconds(),
		CellsDone:   r.cellsDone.Load(),
		CellsFailed: r.cellsFailed.Load(),
		DedupJoined: r.dedupJoined.Load(),
		StoreHits:   r.storeHits.Load(),
		StoreMisses: r.storeMisses.Load(),
		Retries:     r.retries.Load(),
		Quarantined: r.quarantined.Load(),
		RefsTotal:   r.refsTotal(),
		ETAS:        -1,
	}
	s.CellsQueued = r.cellsQueued.Load()
	if s.UptimeS > 0 {
		s.AvgRefsPerSec = float64(s.RefsTotal) / s.UptimeS
	}

	r.mu.Lock()
	if !r.lastSnap.IsZero() {
		if dt := now.Sub(r.lastSnap).Seconds(); dt > 0 && s.RefsTotal >= r.lastRefs {
			s.RefsPerSec = float64(s.RefsTotal-r.lastRefs) / dt
		}
	}
	r.lastSnap = now
	r.lastRefs = s.RefsTotal
	s.ETAS = r.etaLocked(s)
	r.mu.Unlock()

	ws := r.slots()
	for i := range ws {
		w := &ws[i]
		ws := WorkerSnapshot{ID: i, Refs: w.refs.Load()}
		w.mu.Lock()
		ws.Cell = w.cell
		if !w.since.IsZero() {
			// Not the snapshot's now: a cell may have started after it.
			ws.ElapsedS = time.Since(w.since).Seconds()
		}
		w.mu.Unlock()
		s.Workers = append(s.Workers, ws)
	}
	return s
}

// etaLocked estimates seconds to drain the currently known cell backlog
// from the per-cell duration EWMA and the worker-pool width. It is a live
// lower bound: figures queue cells incrementally, so the total grows as a
// sweep proceeds. Requires r.mu.
func (r *Recorder) etaLocked(s Snapshot) float64 {
	settled := s.CellsDone + s.CellsFailed
	if r.ewmaNS == 0 || s.CellsQueued <= settled {
		return -1
	}
	workers := len(r.slots())
	if workers == 0 {
		workers = 1
	}
	remaining := float64(s.CellsQueued - settled)
	return remaining * r.ewmaNS / 1e9 / float64(workers)
}

// ProgressNote renders the compact live status the -progress stream
// appends to each row: cells done/total, the store hit count, and the
// EWMA-based ETA. Empty when telemetry is off.
func (r *Recorder) ProgressNote() string {
	if r == nil {
		return ""
	}
	s := r.Snapshot()
	note := fmt.Sprintf("cells %d/%d", s.CellsDone+s.CellsFailed, s.CellsQueued)
	if s.StoreHits > 0 {
		note += fmt.Sprintf(", %d store hits", s.StoreHits)
	}
	if s.ETAS >= 0 {
		note += ", eta " + (time.Duration(s.ETAS * float64(time.Second))).Round(time.Second).String()
	}
	return note
}

// SummaryLine renders the end-of-run accounting for stderr: cell totals,
// store effectiveness, and the previously silent quarantine and retry
// counts.
func (r *Recorder) SummaryLine() string {
	if r == nil {
		return ""
	}
	s := r.Snapshot()
	line := fmt.Sprintf("%d cells in %s (%d computed, %d store hits, %d dedup-joined",
		s.CellsDone+s.CellsFailed,
		time.Duration(s.UptimeS*float64(time.Second)).Round(10*time.Millisecond),
		s.CellsDone-s.StoreHits, s.StoreHits, s.DedupJoined)
	if s.StoreHits+s.StoreMisses > 0 {
		line += fmt.Sprintf(", store hit rate %.0f%%",
			100*float64(s.StoreHits)/float64(s.StoreHits+s.StoreMisses))
	}
	if s.Retries > 0 {
		line += fmt.Sprintf(", %d retries", s.Retries)
	}
	if s.Quarantined > 0 {
		line += fmt.Sprintf(", %d quarantined", s.Quarantined)
	}
	if s.CellsFailed > 0 {
		line += fmt.Sprintf(", %d FAILED", s.CellsFailed)
	}
	return line + ")"
}

// Trace renders the run as a span tree: one run span plus one cell span
// per settled cell, on the wall clock (the recorder's monotonic offsets
// rebased onto its start time). A local-run counterpart of the fleet
// coordinator's trace — same model, one process, so the smoke scripts can
// diff the two by cell-name set.
func (r *Recorder) Trace(name string) []span.Span {
	if r == nil {
		return nil
	}
	trace := span.NewID()
	runID := span.NewID()
	base := r.start.UnixNano()
	out := []span.Span{{Trace: trace, ID: runID, Kind: span.KindRun,
		Name: name, StartNS: base, EndNS: base + r.sinceStart()}}
	r.mu.Lock()
	cells := append([]CellRecord(nil), r.cells...)
	r.mu.Unlock()
	for _, c := range cells {
		s := span.Span{Trace: trace, ID: span.NewID(), Parent: runID,
			Kind: span.KindCell, Name: c.Workload + "/" + c.Scheme,
			StartNS: base + c.TStartNS, EndNS: base + c.TEndNS}
		if c.Scheme == "" {
			s.Name = c.Workload + "/" + c.Setup
		}
		switch c.Status {
		case StatusOK:
			s.Outcome = span.OutcomeCompleted
		case StatusStoreHit:
			s.Outcome = span.OutcomeSeeded
		case StatusFailed:
			s.Outcome = span.OutcomeFailed
			s.Err = c.Error
		}
		out = append(out, s)
	}
	return out
}
