package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"tps/internal/telemetry/span"
)

// CellStatus is one cell's place in the lease lifecycle.
type CellStatus int

const (
	// CellPending: not yet granted, or re-queued after expiry/failure.
	CellPending CellStatus = iota
	// CellLeased: granted to a worker and not yet settled.
	CellLeased
	// CellDone: first valid completion accepted; immutable from here on.
	CellDone
	// CellFailed: failed MaxFailures times; settled with its last error.
	CellFailed
)

// String renders the status for timelines and /metrics.
func (s CellStatus) String() string {
	switch s {
	case CellPending:
		return "pending"
	case CellLeased:
		return "leased"
	case CellDone:
		return "done"
	case CellFailed:
		return "failed"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Lease-lifecycle event kinds, one per protocol transition the
// coordinator can observe. Delivered via Config.OnEvent.
const (
	EventGranted    = "granted"    // lease handed to a worker
	EventSpeculated = "speculated" // duplicate grant of a straggling cell
	EventExpired    = "expired"    // missed heartbeats; cell re-queued
	EventCompleted  = "completed"  // first valid completion settled the cell
	EventDuplicate  = "duplicate"  // completion for an already-settled cell
	EventFailed     = "failed"     // cell settled as failed (MaxFailures)
	EventRequeued   = "requeued"   // worker-side error; cell re-queued
	EventRejected   = "rejected"   // unknown key or payload failed validation
)

// LeaseEvent is one protocol transition, as delivered to Config.OnEvent.
type LeaseEvent struct {
	Kind   string
	Key    string
	Spec   CellSpec
	Worker string
	Gen    uint64
	Err    string
}

// Config tunes a Coordinator. The zero value is usable.
type Config struct {
	// TTL is the lease lifetime without a successful renewal; an expired
	// lease is re-queued for dispatch. Default 10 s.
	TTL time.Duration
	// SpeculateAfter is the lease age past which an idle worker is given
	// a duplicate grant of the oldest in-flight cell — straggler
	// re-dispatch. Default 3×TTL; negative disables speculation.
	SpeculateAfter time.Duration
	// MaxFailures settles a cell as failed after that many worker-side
	// errors; earlier failures re-queue it (a worker-local problem should
	// cost a re-dispatch, not the sweep). Default 3.
	MaxFailures int
	// Validate, when set, vets completion payloads before they settle a
	// cell: a payload it rejects (torn store read relayed by a worker,
	// truncated body that still parsed as JSON) is refused and the cell
	// re-queued. nil accepts any non-empty payload.
	Validate func(data []byte) error
	// OnComplete, when set, observes each first-completion exactly once —
	// the persistence hook (duplicates never reach it). Called outside
	// the coordinator lock.
	OnComplete func(key string, spec CellSpec, result []byte)
	// OnEvent, when set, observes every lease-lifecycle transition
	// (grants, expirations, completions, ...). It is called UNDER the
	// coordinator lock so events are totally ordered; the hook must be
	// cheap and non-blocking — hand off to a buffered channel or an
	// in-memory recorder, never do I/O inline.
	OnEvent func(LeaseEvent)
	// Logf receives protocol diagnostics (expirations, requeues,
	// speculation); nil discards them.
	Logf func(format string, args ...any)
	// Now is the clock, injectable for lease-lifecycle tests. Default
	// time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.TTL <= 0 {
		c.TTL = 10 * time.Second
	}
	if c.SpeculateAfter == 0 {
		c.SpeculateAfter = 3 * c.TTL
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// cell is one grid entry's coordinator-side state. gen is the monotonic
// grant counter: renewals must match it, so a lease that was re-issued
// (expiry, speculation) can never be extended by its previous holder.
type cell struct {
	spec   CellSpec
	key    string
	status CellStatus
	gen    uint64
	holder string
	expiry time.Time
	grant  time.Time // most recent grant, for straggler age
	fails  int

	result json.RawMessage
	errmsg string
	seeded bool          // settled from the store at startup (resume)
	done   chan struct{} // closed exactly once, when the cell settles

	// Tracing state. spanID names the cell span in the run trace; grants
	// is the full lease timeline (every grant, with how each one ended);
	// spans collects worker-returned attempt spans, capped so a retry
	// storm cannot grow coordinator memory unboundedly.
	spanID  string
	grants  []GrantRecord
	spans   []span.Span
	startNS int64 // first grant (work actually started)
	endNS   int64 // settlement (done or failed)
}

// maxCellSpans bounds worker-returned spans kept per cell. 64 covers
// MaxFailures × (1 + retries) attempts with slack; beyond it the earliest
// spans win (they are the straggler story).
const maxCellSpans = 64

type workerInfo struct {
	lastSeen  time.Time
	granted   uint64
	completed uint64
	stats     WorkerStats

	// Throughput histogram inputs: the previous stats push, differenced
	// against each new one to yield one refs/sec observation per
	// heartbeat interval.
	lastRefs uint64
	lastAt   time.Time
	hist     [RefsPerSecBuckets]uint64
}

// rpsBucket maps a refs/sec observation to its log2 histogram bucket:
// bucket i covers [2^(10+i), 2^(11+i)), tails clamped.
func rpsBucket(rate float64) int {
	b := 0
	for rate >= 2048 && b < RefsPerSecBuckets-1 {
		rate /= 2
		b++
	}
	return b
}

// Coordinator owns the lease table for one sweep: it hands out cells as
// expiring leases, re-dispatches what dies or straggles, and settles each
// cell exactly once however many completions arrive. All methods are safe
// for concurrent use; the HTTP surface is Handler.
type Coordinator struct {
	cfg   Config
	start time.Time

	trace   string // run-wide trace ID, stamped on every lease
	runSpan string // root span ID (the sweep itself)

	mu      sync.Mutex
	cells   map[string]*cell
	order   []string        // enumeration order, for deterministic scans
	pending []string        // FIFO dispatch queue (keys)
	leased  map[string]bool // keys currently leased, for O(leased) sweeps
	workers map[string]*workerInfo

	doneCells, failedCells, seeded             int
	completions, duplicates, rejected          uint64
	expirations, speculations, stale, requeues uint64
}

// New creates an empty coordinator; register the grid with Add/AddSettled
// before serving.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	return &Coordinator{
		cfg:     cfg,
		start:   cfg.Now(),
		trace:   span.NewID(),
		runSpan: span.NewID(),
		cells:   make(map[string]*cell),
		leased:  make(map[string]bool),
		workers: make(map[string]*workerInfo),
	}
}

// TraceID returns the run-wide trace ID every lease carries.
func (c *Coordinator) TraceID() string { return c.trace }

func (c *Coordinator) eventLocked(kind string, cl *cell, worker string, errmsg string) {
	if c.cfg.OnEvent == nil {
		return
	}
	c.cfg.OnEvent(LeaseEvent{Kind: kind, Key: cl.key, Spec: cl.spec,
		Worker: worker, Gen: cl.gen, Err: errmsg})
}

// Add registers one cell for dispatch. Duplicate keys are ignored (the
// grid enumerates each fingerprint once; a repeat is the same cell).
func (c *Coordinator) Add(key string, spec CellSpec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.cells[key]; ok {
		return
	}
	c.cells[key] = &cell{spec: spec, key: key, done: make(chan struct{}),
		spanID: span.NewID()}
	c.order = append(c.order, key)
	c.pending = append(c.pending, key)
}

// AddSettled registers one cell already settled with the given result —
// the resume path: a restarted coordinator seeds these from store
// contents and only the remainder is dispatched.
func (c *Coordinator) AddSettled(key string, spec CellSpec, result []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.cells[key]; ok {
		return
	}
	now := c.cfg.Now().UnixNano()
	cl := &cell{spec: spec, key: key, status: CellDone,
		result: result, seeded: true, done: make(chan struct{}),
		spanID: span.NewID(), startNS: now, endNS: now}
	close(cl.done)
	c.cells[key] = cl
	c.order = append(c.order, key)
	c.doneCells++
	c.seeded++
}

// sweepLocked expires overdue leases back onto the pending queue. It
// scans only currently leased cells, so its cost tracks fleet width, not
// grid size.
func (c *Coordinator) sweepLocked(now time.Time) {
	for key := range c.leased {
		cl := c.cells[key]
		if cl.status == CellLeased && now.After(cl.expiry) {
			c.expirations++
			cl.status = CellPending
			delete(c.leased, key)
			c.pending = append(c.pending, key)
			c.closeGrantsLocked(cl, span.OutcomeExpired, now)
			c.eventLocked(EventExpired, cl, cl.holder, "")
			c.cfg.Logf("fabric: lease %s/%s gen %d held by %s expired, re-queued",
				cl.spec.Workload, cl.spec.Scheme, cl.gen, cl.holder)
		}
	}
}

// closeGrantsLocked ends every still-open grant record of a cell with the
// given outcome. Grants are closed on expiry, on re-grant (the previous
// holder is superseded), and on settlement.
func (c *Coordinator) closeGrantsLocked(cl *cell, outcome string, now time.Time) {
	for i := range cl.grants {
		if cl.grants[i].EndNS == 0 {
			cl.grants[i].EndNS = now.UnixNano()
			cl.grants[i].Outcome = outcome
		}
	}
}

func (c *Coordinator) touchWorkerLocked(name string, stats WorkerStats, now time.Time) *workerInfo {
	w := c.workers[name]
	if w == nil {
		w = &workerInfo{}
		c.workers[name] = w
	}
	w.lastSeen = now
	// One refs/sec observation per stats push: the delta against the
	// previous push over the elapsed wall time. A counter reset (worker
	// restart under the same name) or a zero-elapsed duplicate push is
	// skipped rather than recorded as a wild rate.
	if !w.lastAt.IsZero() && now.After(w.lastAt) && stats.RefsTotal >= w.lastRefs {
		rate := float64(stats.RefsTotal-w.lastRefs) / now.Sub(w.lastAt).Seconds()
		w.hist[rpsBucket(rate)]++
	}
	w.lastRefs = stats.RefsTotal
	w.lastAt = now
	w.stats = stats
	return w
}

func (c *Coordinator) grantLocked(cl *cell, worker string, now time.Time) *Lease {
	// A re-grant (speculation, or dispatch after requeue) supersedes any
	// grant still open; the previous holder keeps computing, but this
	// lease timeline no longer counts on it.
	c.closeGrantsLocked(cl, span.OutcomeSuperseded, now)
	cl.gen++
	cl.status = CellLeased
	cl.holder = worker
	cl.grant = now
	cl.expiry = now.Add(c.cfg.TTL)
	if cl.startNS == 0 {
		cl.startNS = now.UnixNano()
	}
	cl.grants = append(cl.grants, GrantRecord{Gen: cl.gen, Worker: worker,
		StartNS: now.UnixNano()})
	c.leased[cl.key] = true
	c.workers[worker].granted++
	c.eventLocked(EventGranted, cl, worker, "")
	return &Lease{Key: cl.key, Spec: cl.spec, Generation: cl.gen,
		TTLMS: c.cfg.TTL.Milliseconds(),
		Trace: c.trace, Span: cl.spanID}
}

// Grant hands the worker one lease: the next pending cell, or — when the
// queue is drained — a speculative duplicate grant of the oldest
// in-flight cell held by someone else. Returns (nil, true) when every
// cell has settled and (nil, false) when the worker should poll again.
func (c *Coordinator) Grant(worker string, stats WorkerStats) (*Lease, bool) {
	c.mu.Lock()
	now := c.cfg.Now()
	c.touchWorkerLocked(worker, stats, now)
	c.sweepLocked(now)
	for len(c.pending) > 0 {
		key := c.pending[0]
		c.pending = c.pending[1:]
		cl := c.cells[key]
		if cl.status != CellPending {
			continue // settled or re-leased while queued
		}
		lease := c.grantLocked(cl, worker, now)
		c.mu.Unlock()
		return lease, false
	}
	if c.cfg.SpeculateAfter >= 0 {
		var oldest *cell
		for key := range c.leased {
			cl := c.cells[key]
			if cl.status != CellLeased || cl.holder == worker {
				continue
			}
			if now.Sub(cl.grant) < c.cfg.SpeculateAfter {
				continue
			}
			if oldest == nil || cl.grant.Before(oldest.grant) {
				oldest = cl
			}
		}
		if oldest != nil {
			c.speculations++
			c.cfg.Logf("fabric: straggler %s/%s (held by %s for %s) speculatively re-issued to %s",
				oldest.spec.Workload, oldest.spec.Scheme, oldest.holder,
				now.Sub(oldest.grant).Round(time.Millisecond), worker)
			c.eventLocked(EventSpeculated, oldest, worker, "")
			lease := c.grantLocked(oldest, worker, now)
			c.mu.Unlock()
			return lease, false
		}
	}
	done := c.doneCells+c.failedCells == len(c.cells)
	c.mu.Unlock()
	return nil, done
}

// Renew extends a held lease. It succeeds only for the current holder
// presenting the current generation on an unexpired lease: a heartbeat
// that arrives after expiry (worker clock skew, network delay) finds its
// cell re-queued or re-granted and is refused — the worker should stop
// renewing but still complete.
func (c *Coordinator) Renew(worker, key string, gen uint64, stats WorkerStats) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.touchWorkerLocked(worker, stats, now)
	c.sweepLocked(now)
	cl, ok := c.cells[key]
	if !ok || cl.status != CellLeased || cl.holder != worker || cl.gen != gen {
		c.stale++
		return false
	}
	cl.expiry = now.Add(c.cfg.TTL)
	return true
}

// Complete settles a cell. Idempotency is keyed by the cell fingerprint
// alone — generation and holder are not checked — so a late original
// whose lease was re-issued still lands its (identical, deterministic)
// result; whoever is second is acknowledged as a duplicate and changes
// nothing. Worker-side errors re-queue the cell until MaxFailures.
func (c *Coordinator) Complete(worker, key string, gen uint64, result []byte, errmsg string) CompleteResponse {
	return c.CompleteFull(CompleteRequest{Worker: worker, Key: key,
		Generation: gen, Result: result, Error: errmsg})
}

// CompleteFull is Complete plus trace collection: worker-returned spans
// ride the request and are attached to the cell's trace — even from
// duplicate completions, because the late original's spans are exactly
// the straggler evidence the timeline view wants.
func (c *Coordinator) CompleteFull(req CompleteRequest) CompleteResponse {
	worker, key := req.Worker, req.Key
	result, errmsg := []byte(req.Result), req.Error
	c.mu.Lock()
	now := c.cfg.Now()
	if w := c.workers[worker]; w != nil {
		w.lastSeen = now
	} else {
		c.touchWorkerLocked(worker, WorkerStats{}, now)
	}
	cl, ok := c.cells[key]
	if !ok {
		c.rejected++
		if c.cfg.OnEvent != nil {
			c.cfg.OnEvent(LeaseEvent{Kind: EventRejected, Key: key,
				Worker: worker, Gen: req.Generation, Err: "unknown cell"})
		}
		c.mu.Unlock()
		return CompleteResponse{}
	}
	if n := maxCellSpans - len(cl.spans); n > 0 && len(req.Spans) > 0 {
		add := req.Spans
		if len(add) > n {
			add = add[:n]
		}
		cl.spans = append(cl.spans, add...)
	}
	if cl.status == CellDone || cl.status == CellFailed {
		c.duplicates++
		c.eventLocked(EventDuplicate, cl, worker, "")
		c.mu.Unlock()
		return CompleteResponse{Accepted: true, Duplicate: true}
	}
	if errmsg == "" && len(result) > 0 && c.cfg.Validate != nil {
		if err := c.cfg.Validate(result); err != nil {
			c.cfg.Logf("fabric: completion for %s/%s from %s rejected (%v)",
				cl.spec.Workload, cl.spec.Scheme, worker, err)
			result = nil // treat as a lost attempt, not a cell failure
			c.rejected++
			c.eventLocked(EventRejected, cl, worker, err.Error())
		}
	}
	// A non-holder whose lease was re-issued reports garbage or an error:
	// the active copy is the retry; don't disturb its lease.
	staleCopy := cl.status == CellLeased && cl.holder != worker
	if len(result) == 0 && errmsg == "" {
		if !staleCopy {
			c.closeGrantsLocked(cl, span.OutcomeFailed, now)
			c.requeueLocked(cl)
		}
		c.mu.Unlock()
		return CompleteResponse{}
	}
	if errmsg != "" {
		cl.fails++
		cl.errmsg = errmsg
		switch {
		case cl.fails >= c.cfg.MaxFailures && !staleCopy:
			cl.status = CellFailed
			delete(c.leased, key)
			c.failedCells++
			c.closeGrantsLocked(cl, span.OutcomeFailed, now)
			cl.endNS = now.UnixNano()
			close(cl.done)
			c.eventLocked(EventFailed, cl, worker, errmsg)
			c.cfg.Logf("fabric: cell %s/%s failed %d times, settling as failed: %s",
				cl.spec.Workload, cl.spec.Scheme, cl.fails, errmsg)
		case !staleCopy:
			c.requeues++
			c.closeGrantsLocked(cl, span.OutcomeFailed, now)
			c.requeueLocked(cl)
			c.eventLocked(EventRequeued, cl, worker, errmsg)
			c.cfg.Logf("fabric: cell %s/%s failed on %s (attempt %d/%d), re-queued: %s",
				cl.spec.Workload, cl.spec.Scheme, worker, cl.fails, c.cfg.MaxFailures, errmsg)
		}
		c.mu.Unlock()
		return CompleteResponse{Accepted: true}
	}
	cl.status = CellDone
	cl.result = result
	delete(c.leased, key)
	c.doneCells++
	c.completions++
	c.workers[worker].completed++
	// The completer's open grant (if any) ends as completed, any other
	// still-open grant as superseded — its holder lost the race.
	for i := range cl.grants {
		if cl.grants[i].EndNS != 0 {
			continue
		}
		cl.grants[i].EndNS = now.UnixNano()
		if cl.grants[i].Worker == worker {
			cl.grants[i].Outcome = span.OutcomeCompleted
		} else {
			cl.grants[i].Outcome = span.OutcomeSuperseded
		}
	}
	cl.endNS = now.UnixNano()
	spec := cl.spec
	close(cl.done)
	c.eventLocked(EventCompleted, cl, worker, "")
	c.mu.Unlock()
	if c.cfg.OnComplete != nil {
		c.cfg.OnComplete(key, spec, result)
	}
	return CompleteResponse{Accepted: true}
}

func (c *Coordinator) requeueLocked(cl *cell) {
	if cl.status == CellDone || cl.status == CellFailed {
		return
	}
	cl.status = CellPending
	delete(c.leased, cl.key)
	c.pending = append(c.pending, cl.key)
}

// WaitResult blocks until the cell settles and returns its payload, or
// the error it failed with, or the context error. The streaming-assembly
// primitive: callers wait per cell in output order while the fleet lands
// cells in any order.
func (c *Coordinator) WaitResult(ctx context.Context, key string) ([]byte, error) {
	c.mu.Lock()
	cl, ok := c.cells[key]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fabric: unknown cell %s", key)
	}
	select {
	case <-cl.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// Settled cells are immutable; reading without the lock is safe after
	// the done channel closed (the close happens-after the final write).
	if cl.status == CellFailed {
		return nil, fmt.Errorf("fabric: cell %s/%s failed on %d workers: %s",
			cl.spec.Workload, cl.spec.Scheme, cl.fails, cl.errmsg)
	}
	return cl.result, nil
}

// Done reports whether every cell has settled (done or failed).
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doneCells+c.failedCells == len(c.cells)
}

// Snapshot assembles the fleet /metrics view.
func (c *Coordinator) Snapshot() FleetSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	s := FleetSnapshot{
		Trace:         c.trace,
		UptimeS:       now.Sub(c.start).Seconds(),
		CellsTotal:    len(c.cells),
		CellsDone:     c.doneCells,
		CellsFailed:   c.failedCells,
		CellsLeased:   len(c.leased),
		StoreSeeded:   c.seeded,
		Completions:   c.completions,
		Duplicates:    c.duplicates,
		Rejected:      c.rejected,
		Expirations:   c.expirations,
		Speculations:  c.speculations,
		StaleRenewals: c.stale,
		Requeues:      c.requeues,
	}
	s.CellsPending = s.CellsTotal - s.CellsDone - s.CellsFailed - s.CellsLeased
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	// Deterministic order for jq assertions and eyeballs.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		w := c.workers[name]
		s.RefsTotal += w.stats.RefsTotal
		s.Workers = append(s.Workers, FleetWorker{
			Name: name, LastSeenS: now.Sub(w.lastSeen).Seconds(),
			Granted: w.granted, Completed: w.completed, Stats: w.stats,
			RefsPerSecHist: w.hist,
		})
	}
	for _, key := range c.order {
		cl := c.cells[key]
		tl := LeaseTimeline{Key: cl.key, Workload: cl.spec.Workload,
			Scheme: cl.spec.Scheme, Status: cl.status.String(), Seeded: cl.seeded}
		tl.Grants = append(tl.Grants, cl.grants...)
		s.Leases = append(s.Leases, tl)
	}
	return s
}

// Trace assembles the run-wide distributed trace: the sweep's run span,
// one cell span per grid entry, one lease span per grant — the
// coordinator-side view, which is the ONLY evidence left by a worker that
// died without completing — and every worker-returned attempt span.
// Callable at any point in the sweep; open work is rendered as live spans
// ending now.
func (c *Coordinator) Trace() []span.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now().UnixNano()
	out := make([]span.Span, 0, 1+2*len(c.order))
	out = append(out, span.Span{Trace: c.trace, ID: c.runSpan,
		Kind: span.KindRun, Name: "sweep",
		StartNS: c.start.UnixNano(), EndNS: now})
	for _, key := range c.order {
		cl := c.cells[key]
		name := cl.spec.Workload + "/" + cl.spec.Scheme
		cs := span.Span{Trace: c.trace, ID: cl.spanID, Parent: c.runSpan,
			Kind: span.KindCell, Name: name,
			StartNS: cl.startNS, EndNS: cl.endNS}
		if cs.StartNS == 0 {
			cs.StartNS = c.start.UnixNano() // never granted yet
		}
		switch {
		case cl.seeded:
			cs.Outcome = span.OutcomeSeeded // zero-duration: replay is free
		case cl.status == CellDone:
			cs.Outcome = span.OutcomeCompleted
		case cl.status == CellFailed:
			cs.Outcome = span.OutcomeFailed
			cs.Err = cl.errmsg
		default:
			cs.Outcome = span.OutcomeLive
			cs.EndNS = now
		}
		out = append(out, cs)
		for _, g := range cl.grants {
			ls := span.Span{Trace: c.trace,
				ID:     fmt.Sprintf("%s.g%d", cl.spanID, g.Gen),
				Parent: cl.spanID, Kind: span.KindLease, Name: name,
				Worker: g.Worker, Gen: g.Gen,
				StartNS: g.StartNS, EndNS: g.EndNS, Outcome: g.Outcome}
			if ls.EndNS == 0 {
				ls.EndNS = now
				ls.Outcome = span.OutcomeLive
			}
			out = append(out, ls)
		}
		out = append(out, cl.spans...)
	}
	return out
}

// Handler serves the lease protocol plus the fleet metrics snapshot:
//
//	POST /fabric/lease      GrantRequest    → GrantResponse
//	POST /fabric/renew      RenewRequest    → RenewResponse
//	POST /fabric/complete   CompleteRequest → CompleteResponse
//	GET  /metrics           FleetSnapshot (JSON)
//
// Request bodies are decoded strictly (unknown fields are a schema
// violation) so protocol drift between fleet binaries fails loudly
// instead of silently dropping fields.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/lease", func(w http.ResponseWriter, r *http.Request) {
		var req GrantRequest
		if !decodeReq(w, r, &req) {
			return
		}
		lease, done := c.Grant(req.Worker, req.Stats)
		resp := GrantResponse{Lease: lease, Done: done}
		if lease == nil && !done {
			resp.WaitMS = (c.cfg.TTL / 4).Milliseconds()
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /fabric/renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !decodeReq(w, r, &req) {
			return
		}
		writeJSON(w, RenewResponse{OK: c.Renew(req.Worker, req.Key, req.Generation, req.Stats)})
	})
	mux.HandleFunc("POST /fabric/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeReq(w, r, &req) {
			return
		}
		writeJSON(w, c.CompleteFull(req))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Snapshot())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("tps sweep fabric\n  POST /fabric/lease /fabric/renew /fabric/complete\n  GET  /metrics\n"))
	})
	return mux
}

func decodeReq(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := decodeBody(r.Body, dst); err != nil {
		http.Error(w, fmt.Sprintf("fabric: bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
