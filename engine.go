package tps

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tps/internal/fabric"
	"tps/internal/fragstate"
	"tps/internal/pagetable"
	"tps/internal/store"
	"tps/internal/telemetry"
	"tps/internal/vmm"
)

// engine is the concurrency-safe heart of the Runner: a
// singleflight-deduplicating result cache plus a worker pool bounding how
// many simulations execute at once. Two figures wanting the same runKey
// cell share one in-flight run instead of racing or recomputing, and a
// completed cell (result or error) is served from the cache forever after.
//
// The engine is also the robustness boundary. A panic inside a cell
// function is recovered into a CellError and memoized like any other
// failure — one bad cell fails its figure, never the process, and never
// deadlocks sibling waiters (the semaphore token and the flight's done
// channel are released by defers, not by straight-line code). With a
// result store attached, every settled cell is persisted content-addressed
// and consulted before running, so a killed run resumes with only its
// unsettled cells recomputed.
type engine struct {
	cfg FigureConfig
	// sem holds worker-slot IDs: acquiring a token tells the holder which
	// slot it occupies, which is what per-worker telemetry (current cell,
	// refs/sec) keys on. With telemetry off the IDs are inert tokens.
	sem     chan int
	mu      sync.Mutex // guards flights
	flights map[runKey]*flight

	tel *telemetry.Recorder // nil: telemetry off, zero overhead

	warned atomic.Bool // one store warning per engine, never a failed run
}

// flight is one cell's lifecycle: created exactly once per key, its done
// channel closes when the run finishes, after which res/err are immutable.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// CellError reports a panic inside one simulation cell, contained by the
// engine and memoized like any other failure: the cell's figure returns a
// diagnosable error while sibling cells — and the process — keep running.
type CellError struct {
	Key      string // content address of the cell in the result store
	Workload string
	Setup    Setup
	Panic    any    // the recovered panic value
	Stack    []byte // stack of the panicking goroutine
}

// Error summarizes the contained panic; the full stack is in Stack.
func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s/%v panicked: %v", e.Workload, e.Setup, e.Panic)
}

// SimVersion fingerprints the simulator revision into every store key
// and into run manifests. Bump it whenever a change intentionally alters
// modeled statistics or the key schema, so stale persisted cells miss
// (and recompute) instead of resurrecting old numbers into new runs.
// v2: cells are keyed by stable scheme name instead of Setup ordinal
// (ordinal keys silently remapped across enum edits), and Result gained
// the Scheme field.
const SimVersion = "tps-sim-v2"

// newEngine sizes the worker pool; cfg.Parallelism <= 0 means GOMAXPROCS.
// cfg must already carry its defaults (NewRunner applies them).
func newEngine(cfg FigureConfig) *engine {
	parallelism := cfg.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	e := &engine{
		cfg:     cfg,
		sem:     make(chan int, parallelism),
		flights: make(map[runKey]*flight),
		tel:     cfg.Telemetry,
	}
	for slot := 0; slot < parallelism; slot++ {
		e.sem <- slot
	}
	e.tel.ConfigureWorkers(parallelism)
	return e
}

// runFunc executes one cell. onRefs, when non-nil, is the telemetry
// per-batch reference hook bound to the worker slot running the cell; the
// simulation loop calls it once per delivered batch.
type runFunc func(ctx context.Context, onRefs func(uint64)) (Result, error)

// cellInfo labels a cell for telemetry. Only called with telemetry on:
// the content address costs a SHA-256 of the fingerprint.
func (e *engine) cellInfo(k runKey) telemetry.CellInfo {
	return telemetry.CellInfo{
		Key:      e.cellKey(k),
		Workload: k.name,
		Setup:    k.setup.String(),
		Scheme:   k.setup.SchemeName(),
	}
}

// do returns the cached or in-flight result for key, or executes fn under
// the worker-pool limit. Exactly one caller per key runs fn; everyone else
// blocks until that flight lands and shares its result. A canceled ctx
// releases waiters immediately and aborts queued work before it starts;
// the flight then memoizes the cancellation so later callers fail fast.
func (e *engine) do(ctx context.Context, key runKey, fn runFunc) (Result, error) {
	e.mu.Lock()
	if f, ok := e.flights[key]; ok {
		e.mu.Unlock()
		if e.tel != nil {
			e.tel.CellDedupJoined(e.cellInfo(key))
		}
		select {
		case <-f.done:
			return f.res, f.err
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	e.flights[key] = f
	e.mu.Unlock()

	// ci is computed once per cell, only with telemetry on (the content
	// address hashes the full fingerprint).
	var ci telemetry.CellInfo
	if e.tel != nil {
		ci = e.cellInfo(key)
		e.tel.CellQueued(ci)
	}

	// The flight must land no matter how fn exits — error, panic, or
	// cancellation — or every sibling waiter deadlocks forever.
	defer close(f.done)

	var slot int
	select {
	case slot = <-e.sem:
	case <-ctx.Done():
		f.err = ctx.Err()
		return f.res, f.err
	}
	defer func() { e.sem <- slot }()

	if res, ok := e.replay(key); ok {
		e.tel.CellStoreHit(ci, slot)
		f.res = res
		return f.res, nil
	}
	e.tel.CellStarted(ci, slot)
	var start time.Time
	if e.tel != nil {
		start = time.Now()
	}
	f.res, f.err = e.runCell(ctx, ci, key, slot, fn)
	if e.tel != nil {
		d := time.Since(start)
		if f.err != nil {
			e.tel.CellFailed(ci, slot, d, f.err)
		} else {
			e.tel.CellFinished(ci, slot, d, cellCounters(f.res))
		}
	}
	if f.err == nil {
		e.persist(key, f.res)
	}
	return f.res, f.err
}

// cellCounters snapshots the modeled statistics a finished event carries:
// the figure-level numbers a diverging cell is debugged against.
func cellCounters(res Result) telemetry.Counters {
	return telemetry.Counters{
		Refs:        res.Refs,
		L1Hits:      res.MMU.L1Hits,
		L1Misses:    res.MMU.L1Misses,
		L2Hits:      res.MMU.STLBHits,
		L2Misses:    res.MMU.STLBMisses,
		WalkMemRefs: res.WalkMemRefs,
		AliasExtras: res.MMU.AliasExtras,
	}
}

// runCell executes one attempt plus up to cfg.Retries re-runs under a
// capped exponential backoff with jitter (fabric.Backoff — the same
// policy fleet workers pace their lease renewals with; the jitter keeps a
// fleet of retrying workers from thundering back at the same wall-clock
// instant after a shared transient). Panics (CellError) are deterministic
// and never retried; cancellation is final.
func (e *engine) runCell(ctx context.Context, ci telemetry.CellInfo, key runKey, slot int, fn runFunc) (Result, error) {
	bo := fabric.Backoff{Base: e.cfg.RetryBackoff}
	onRefs := e.tel.WorkerRefs(slot) // nil with telemetry off
	for attempt := 0; ; attempt++ {
		res, err := e.attempt(ctx, key, fn, onRefs)
		if err == nil || attempt >= e.cfg.Retries {
			return res, err
		}
		var cerr *CellError
		if errors.As(err, &cerr) || ctx.Err() != nil {
			return res, err
		}
		if err := bo.Sleep(ctx, attempt); err != nil {
			return Result{}, err
		}
		e.tel.CellRetried(ci, slot, attempt+1)
	}
}

// attempt runs fn once with the per-cell deadline applied, converting a
// panic into a structured, memoizable CellError.
func (e *engine) attempt(ctx context.Context, key runKey, fn runFunc, onRefs func(uint64)) (res Result, err error) {
	if e.cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.CellTimeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			err = &CellError{
				Key:      e.cellKey(key),
				Workload: key.name,
				Setup:    key.setup,
				Panic:    p,
				Stack:    debug.Stack(),
			}
		}
	}()
	return fn(ctx, onRefs)
}

// runKey identifies one simulation cell. It holds every Options field the
// figures, ablations, extensions, and fleet vary, so the cache can share
// cells across all of them (e.g. the plain TPS run appears in Figs.
// 10/11/18 and several ablations, and executes once). It is also the only
// source of a cell's Options (see options), so a knob that changes results
// reaches the simulator only by being a key field.
type runKey struct {
	name                 string
	setup                Setup
	smt, virt, frag, cyc bool

	// Ablation/extension knobs (zero for the standard figure cells).
	threshold    float64
	sizing       vmm.Sizing
	alias        pagetable.AliasStrategy
	compactFail  bool
	levels       int
	tlbEntries   int
	skewed       bool
	compactEvery uint64
}

// options converts the cell to the simulator's Options under the run-wide
// budget. frag selects the standard fragmented initial state
// (Options.PreFragment is a function and cannot itself be keyed).
func (k runKey) options(refs uint64, seed int64, mem uint64) Options {
	opts := Options{
		Setup:              k.setup,
		Refs:               refs,
		Seed:               seed,
		MemoryPages:        mem,
		SMT:                k.smt,
		Virtualized:        k.virt,
		CycleModel:         k.cyc,
		PromotionThreshold: k.threshold,
		Sizing:             k.sizing,
		AliasStrategy:      k.alias,
		CompactOnFailure:   k.compactFail,
		Levels:             k.levels,
		TPSTLBEntries:      k.tlbEntries,
		TPSTLBSkewed:       k.skewed,
		CompactEvery:       k.compactEvery,
	}
	if k.frag {
		opts.PreFragment = fragstate.PreFragment(fragstate.DefaultParams())
	}
	return opts
}

// cellFingerprint renders a cell's complete identity — every runKey field
// plus the run-wide knobs (refs, seed, memory) and the simulator
// version salt — as the stable string the store key hashes. Two cells
// share a fingerprint exactly when their Results must be identical.
// The setup is identified by its stable scheme-registry name, never its
// enum ordinal: ordinals shift when the Setup list is reordered or grows
// mid-list, which would silently remap persisted results across schemes.
//
// This is a package-level function (not an engine method) because it is
// the fleet's dedup key too: SpecKey derives the identical fingerprint
// from a wire-serialized fabric.CellSpec, so a cell computed by any
// worker lands in the same store slot a local run would use.
func cellFingerprint(refs uint64, seed int64, mem uint64, k runKey) string {
	return fmt.Sprintf("%s|refs=%d|seed=%d|mem=%d|w=%s|scheme=%s|smt=%t|virt=%t|frag=%t|cyc=%t|thr=%g|sizing=%d|alias=%d|cfail=%t|lvl=%d|tlbe=%d|skew=%t|ce=%d",
		SimVersion, refs, seed, mem,
		k.name, k.setup.SchemeName(), k.smt, k.virt, k.frag, k.cyc,
		k.threshold, k.sizing, k.alias, k.compactFail,
		k.levels, k.tlbEntries, k.skewed, k.compactEvery)
}

func (e *engine) fingerprint(k runKey) string {
	return cellFingerprint(e.cfg.Refs, e.cfg.Seed, e.cfg.MemoryPages, k)
}

// cellKey is the cell's content address in the result store.
func (e *engine) cellKey(k runKey) string { return store.KeyOf(e.fingerprint(k)) }

// replay consults the result store before running a cell. Store failures
// and undecodable entries degrade to a miss — the cell recomputes — with
// at most one warning for the whole run; durability problems never fail
// or corrupt a run.
func (e *engine) replay(k runKey) (Result, bool) {
	if e.cfg.Store == nil {
		return Result{}, false
	}
	data, ok, err := e.cfg.Store.Get(e.cellKey(k))
	if err != nil {
		e.warnOnce("result store read failed, recomputing (%v)", err)
		e.tel.CellStoreMiss()
		return Result{}, false
	}
	if !ok {
		e.tel.CellStoreMiss()
		return Result{}, false
	}
	res, err := decodeResult(data)
	if err != nil {
		e.warnOnce("result store entry for %s/%v undecodable, recomputing (%v)", k.name, k.setup, err)
		e.tel.CellStoreMiss()
		return Result{}, false
	}
	return res, true
}

// persist records a settled cell. Failures degrade to in-memory-only
// operation with a single warning.
func (e *engine) persist(k runKey, res Result) {
	if e.cfg.Store == nil {
		return
	}
	data, err := encodeResult(res)
	if err != nil {
		e.warnOnce("result not encodable, staying in-memory only (%v)", err)
		return
	}
	if err := e.cfg.Store.Put(e.cellKey(k), data); err != nil {
		e.warnOnce("result store write failed, results stay in-memory (%v)", err)
	}
}

// warnOnce surfaces the first store degradation and suppresses the rest:
// a flaky disk should cost one diagnostic line, not a flood.
func (e *engine) warnOnce(format string, args ...any) {
	if e.warned.CompareAndSwap(false, true) {
		e.cfg.Warnf("tps: "+format, args...)
	}
}

// encodeResult serializes a Result for the store. JSON round-trips every
// field exactly (uint64s decode from their integer literals; float64s use
// shortest-round-trip formatting), which the resume golden tests depend
// on: a replayed cell must render byte-identically to a fresh one.
func encodeResult(res Result) ([]byte, error) { return json.Marshal(res) }

// decodeResult is strict about shape: unknown fields mean the entry
// predates a schema change that forgot to bump SimVersion, and the
// safe response is a miss, not a partial fill.
func decodeResult(data []byte) (Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var res Result
	if err := dec.Decode(&res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// size reports how many cells have been started (in flight or settled).
func (e *engine) size() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.flights)
}

// parallelism reports the worker-pool width.
func (e *engine) parallelism() int { return cap(e.sem) }

// warm fans the given run thunks out across the worker pool and waits for
// all of them, so the serial assembly pass that follows hits only settled
// cache entries. Errors stay memoized in their flights and are re-surfaced,
// deterministically, by the first assembly-order run that needs the failed
// cell. With Parallelism 1 warm is a no-op: cells run on demand, in order,
// exactly as the serial runner did.
//
// Streaming mode (FigureConfig.Progress set) fires the thunks and returns
// without waiting: the serial assembly then blocks per cell in row order
// and flushes each row to the progress writer as its cells land, instead
// of going silent until the whole grid settles. The rendered output is
// identical either way — only who waits changes. Cancellation drains the
// fired goroutines promptly: each thunk's cell observes the Runner context
// inside its reference loop and returns.
func (r *Runner) warm(runs ...func()) {
	if r.eng.parallelism() <= 1 || len(runs) <= 1 {
		return
	}
	if r.cfg.Progress != nil {
		for _, f := range runs {
			go f()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(runs))
	for _, f := range runs {
		go func(f func()) {
			defer wg.Done()
			f()
		}(f)
	}
	wg.Wait()
}

// warmSuite prefetches the workload×setup×flags grid of an upcoming figure.
func (r *Runner) warmSuite(suite []Workload, setups []Setup, flags ...runFlags) {
	if len(flags) == 0 {
		flags = []runFlags{{}}
	}
	var runs []func()
	for _, w := range suite {
		for _, s := range setups {
			for _, f := range flags {
				w, s, f := w, s, f
				runs = append(runs, func() { r.run(w, s, f) })
			}
		}
	}
	r.warm(runs...)
}

// warmAblation prefetches the suite×mutator grid of an upcoming ablation.
func (r *Runner) warmAblation(suite []Workload, mutators ...func(*runKey)) {
	var runs []func()
	for _, w := range suite {
		for _, m := range mutators {
			w, m := w, m
			runs = append(runs, func() { r.ablationRun(w, m) })
		}
	}
	r.warm(runs...)
}
