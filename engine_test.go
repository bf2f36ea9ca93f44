package tps

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tps/internal/store"
)

// TestEngineSingleflight: concurrent callers of the same key share one
// execution and one result.
func TestEngineSingleflight(t *testing.T) {
	e := newEngine(FigureConfig{Parallelism: 4})
	var calls int32
	key := runKey{name: "x", setup: SetupTPS}
	var wg sync.WaitGroup
	results := make([]Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.do(context.Background(), key, func(context.Context, func(uint64)) (Result, error) {
				atomic.AddInt32(&calls, 1)
				time.Sleep(20 * time.Millisecond) // widen the dedup window
				return Result{Refs: 42}, nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("fn executed %d times, want 1", calls)
	}
	for i, res := range results {
		if res.Refs != 42 {
			t.Errorf("caller %d got %+v", i, res)
		}
	}
	if e.size() != 1 {
		t.Errorf("cache size=%d", e.size())
	}
}

// TestEngineWorkerPoolBound: no more than `parallelism` fns run at once,
// and queued cells still all complete.
func TestEngineWorkerPoolBound(t *testing.T) {
	const width = 3
	e := newEngine(FigureConfig{Parallelism: width})
	var running, peak int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.do(context.Background(), runKey{name: "k", tlbEntries: i}, func(context.Context, func(uint64)) (Result, error) {
				n := atomic.AddInt32(&running, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				atomic.AddInt32(&running, -1)
				return Result{}, nil
			})
		}(i)
	}
	wg.Wait()
	if peak > width {
		t.Errorf("peak concurrency %d exceeds pool width %d", peak, width)
	}
	if e.size() != 16 {
		t.Errorf("cache size=%d, want 16", e.size())
	}
}

// TestEnginePanicContained is the regression test for the panic deadlock:
// before the defers in engine.do, a panicking cell leaked its worker-pool
// token and never closed its flight, hanging every sibling waiter forever.
// Now the panic becomes a structured, memoized CellError; sibling cells
// complete; and the pool still hands out its full width afterwards.
func TestEnginePanicContained(t *testing.T) {
	const width = 2
	e := newEngine(FigureConfig{Parallelism: width})
	ctx := context.Background()
	bad := runKey{name: "boom", setup: SetupTPS}

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.do(ctx, bad, func(context.Context, func(uint64)) (Result, error) {
				panic("kaboom")
			})
		}(i)
	}
	// Sibling cells, launched while the panicking flight is live, must
	// still complete with their own results.
	sib := make([]Result, 6)
	for i := range sib {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.do(ctx, runKey{name: "ok", tlbEntries: i}, func(context.Context, func(uint64)) (Result, error) {
				return Result{Refs: uint64(i)}, nil
			})
			if err != nil {
				t.Errorf("sibling %d: %v", i, err)
			}
			sib[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range sib {
		if res.Refs != uint64(i) {
			t.Errorf("sibling %d got %+v", i, res)
		}
	}
	for i, err := range errs {
		var cerr *CellError
		if !errors.As(err, &cerr) {
			t.Fatalf("caller %d: err=%v, want CellError", i, err)
		}
		if cerr.Workload != "boom" || cerr.Setup != SetupTPS {
			t.Errorf("CellError identity: %+v", cerr)
		}
		if cerr.Panic != "kaboom" || len(cerr.Stack) == 0 {
			t.Errorf("CellError payload: panic=%v stack=%dB", cerr.Panic, len(cerr.Stack))
		}
		if len(cerr.Key) != 64 {
			t.Errorf("CellError.Key=%q, want a 64-char content address", cerr.Key)
		}
	}

	// The error is memoized: a later caller gets it without re-running.
	ran := false
	_, err := e.do(ctx, bad, func(context.Context, func(uint64)) (Result, error) { ran = true; return Result{}, nil })
	var cerr *CellError
	if !errors.As(err, &cerr) || ran {
		t.Errorf("memoized panic: err=%v reran=%v", err, ran)
	}

	// The semaphore token was released: `width` cells can still hold the
	// pool simultaneously. A leaked token would deadlock the rendezvous.
	arrive := make(chan struct{}, width)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var rw sync.WaitGroup
		for i := 0; i < width; i++ {
			rw.Add(1)
			go func(i int) {
				defer rw.Done()
				e.do(ctx, runKey{name: "post", tlbEntries: i}, func(context.Context, func(uint64)) (Result, error) {
					arrive <- struct{}{}
					<-release
					return Result{}, nil
				})
			}(i)
		}
		rw.Wait()
	}()
	for i := 0; i < width; i++ {
		select {
		case <-arrive:
		case <-time.After(5 * time.Second):
			t.Fatal("worker-pool token leaked by the panicking cell")
		}
	}
	close(release)
	<-done
}

// TestEngineRetryBackoff: with Retries opted in, transient errors re-run
// under backoff until success; panics are deterministic and never retry.
func TestEngineRetryBackoff(t *testing.T) {
	e := newEngine(FigureConfig{Parallelism: 1, Retries: 2, RetryBackoff: time.Millisecond})
	attempts := 0
	res, err := e.do(context.Background(), runKey{name: "flaky"}, func(context.Context, func(uint64)) (Result, error) {
		attempts++
		if attempts < 3 {
			return Result{}, errors.New("transient")
		}
		return Result{Refs: 9}, nil
	})
	if err != nil || res.Refs != 9 || attempts != 3 {
		t.Errorf("retry: err=%v refs=%d attempts=%d", err, res.Refs, attempts)
	}

	panics := 0
	_, err = e.do(context.Background(), runKey{name: "panicky"}, func(context.Context, func(uint64)) (Result, error) {
		panics++
		panic("deterministic")
	})
	var cerr *CellError
	if !errors.As(err, &cerr) || panics != 1 {
		t.Errorf("panic retried: err=%v attempts=%d", err, panics)
	}

	// Default configuration never retries.
	e0 := newEngine(FigureConfig{Parallelism: 1})
	tries := 0
	_, err = e0.do(context.Background(), runKey{name: "once"}, func(context.Context, func(uint64)) (Result, error) {
		tries++
		return Result{}, errors.New("nope")
	})
	if err == nil || tries != 1 {
		t.Errorf("default retried: err=%v attempts=%d", err, tries)
	}
}

// TestEngineCellTimeout: a cell that overruns its deadline fails with
// DeadlineExceeded instead of wedging the run.
func TestEngineCellTimeout(t *testing.T) {
	e := newEngine(FigureConfig{Parallelism: 1, CellTimeout: 10 * time.Millisecond})
	_, err := e.do(context.Background(), runKey{name: "slow"}, func(ctx context.Context, _ func(uint64)) (Result, error) {
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-time.After(10 * time.Second):
			return Result{}, nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err=%v, want DeadlineExceeded", err)
	}
}

// TestParallelMatchesSerial is the engine-determinism contract: the same
// figure set at the same seed produces identical Result values and
// byte-identical rendered tables with Parallelism 1 and > 1.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := FigureConfig{Refs: 20_000, Suite: smallSuite(t)}
	serialCfg, parCfg := cfg, cfg
	serialCfg.Parallelism = 1
	parCfg.Parallelism = 4
	serial := NewRunner(serialCfg)
	par := NewRunner(parCfg)

	figs := []struct {
		name string
		s, p func() (*Table, error)
	}{
		{"fig9", serial.Fig9, par.Fig9},
		{"fig10", serial.Fig10, par.Fig10},
		{"fig13", serial.Fig13, par.Fig13},
		{"fig18", serial.Fig18, par.Fig18},
	}
	for _, f := range figs {
		a, err := f.s()
		if err != nil {
			t.Fatalf("%s serial: %v", f.name, err)
		}
		b, err := f.p()
		if err != nil {
			t.Fatalf("%s parallel: %v", f.name, err)
		}
		if a.Render() != b.Render() {
			t.Errorf("%s rendered output differs between serial and parallel:\n--- serial ---\n%s--- parallel ---\n%s",
				f.name, a.Render(), b.Render())
		}
	}
	// Cell-level Result values are identical too, not just formatting.
	for _, w := range cfg.Suite {
		for _, setup := range []Setup{SetupTHP, SetupTPS} {
			sres, err := serial.run(w, setup, runFlags{})
			if err != nil {
				t.Fatal(err)
			}
			pres, err := par.run(w, setup, runFlags{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sres, pres) {
				t.Errorf("%s/%v: Result differs between serial and parallel", w.Name, setup)
			}
		}
	}
}

// TestStreamingMatchesSerial: with a progress writer configured, warm is
// fire-and-forget and rows flush to the writer as cells land — but the
// rendered table must still be byte-identical to the non-streaming serial
// run, and the stream must carry the title plus every row in order.
func TestStreamingMatchesSerial(t *testing.T) {
	cfg := FigureConfig{Refs: 20_000, Suite: smallSuite(t)}
	serialCfg := cfg
	serialCfg.Parallelism = 1
	serial, err := NewRunner(serialCfg).Fig10()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	streamCfg := cfg
	streamCfg.Parallelism = 4
	streamCfg.Progress = &buf
	streamed, err := NewRunner(streamCfg).Fig10()
	if err != nil {
		t.Fatal(err)
	}

	if serial.Render() != streamed.Render() {
		t.Errorf("streaming changed rendered output:\n--- serial ---\n%s--- streamed ---\n%s",
			serial.Render(), streamed.Render())
	}
	got := buf.String()
	if !strings.HasPrefix(got, streamed.Title+"\n") {
		t.Errorf("stream missing leading title %q:\n%s", streamed.Title, got)
	}
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if want := 1 + len(streamed.Rows); len(lines) != want {
		t.Errorf("stream has %d lines, want %d (title + one per row):\n%s", len(lines), want, got)
	}
	for i, row := range streamed.Rows {
		if want := "  " + strings.Join(row, "\t"); lines[i+1] != want {
			t.Errorf("stream line %d = %q, want %q", i+1, lines[i+1], want)
		}
	}
}

// TestRunErrorPropagates: a failing cell surfaces as a returned error from
// the figure method — no panic — and the error is memoized like a result.
func TestRunErrorPropagates(t *testing.T) {
	// 256 base pages = 1 MB of physical memory: every suite workload's
	// initialization sweep exhausts it.
	r := NewRunner(FigureConfig{Refs: 50_000, MemoryPages: 256, Suite: smallSuite(t), Parallelism: 2})
	if _, err := r.Fig10(); err == nil {
		t.Fatal("Fig10 on a 1 MB machine should fail with out-of-memory")
	}
	before := r.eng.size()
	if _, err := r.Fig10(); err == nil {
		t.Fatal("second Fig10 call should re-surface the memoized error")
	}
	if r.eng.size() != before {
		t.Errorf("failed cells re-executed: %d -> %d", before, r.eng.size())
	}
	if _, err := r.AblationSkewedTLB(); err == nil {
		t.Fatal("ablation on a 1 MB machine should fail with out-of-memory")
	}
}

// waitGoroutines is the shared leak check (PR 1's pattern): give the
// runtime a moment to retire exiting goroutines before judging.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked: before=%d after=%d", before, n)
	}
}

// TestCancelMidFlight: canceling a multi-cell run mid-flight returns
// context.Canceled promptly, leaks no goroutines, and leaves the result
// store in a partial state a fresh Runner resumes into byte-identical
// output.
func TestCancelMidFlight(t *testing.T) {
	suite := smallSuite(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const refs = 1_000_000

	// Settle one cell up front so the canceled run is guaranteed to
	// leave partial — not empty — store state behind.
	seed := NewRunner(FigureConfig{Refs: refs, Suite: suite, Parallelism: 1, Store: st})
	if _, err := seed.run(suite[0], SetupTHP, runFlags{}); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(FigureConfig{Refs: refs, Suite: suite, Parallelism: 2, Context: ctx, Store: st})
	errCh := make(chan error, 1)
	go func() {
		_, err := r.Fig10()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Fig10 returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled Fig10 never returned")
	}
	waitGoroutines(t, before)

	n, err := st.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("store settled cells=%d, want at least the seeded cell", n)
	}

	// Resume from the partial store: byte-identical to a fresh run.
	fresh, err := NewRunner(FigureConfig{Refs: refs, Suite: suite, Parallelism: 2}).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewRunner(FigureConfig{Refs: refs, Suite: suite, Parallelism: 2, Store: st}).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Render() != resumed.Render() {
		t.Errorf("resume changed output:\n--- fresh ---\n%s--- resumed ---\n%s",
			fresh.Render(), resumed.Render())
	}
}

// TestFaultyStoreStillCorrect: under injected write failures, torn writes
// and bit flips, runs complete with byte-identical output — corrupt
// entries quarantine and recompute, failed writes degrade to in-memory
// results with a single warning.
func TestFaultyStoreStillCorrect(t *testing.T) {
	suite := smallSuite(t)
	base, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := store.NewFaulty(base, 3, store.FaultRates{WriteFail: 0.3, TornWrite: 0.25, BitFlip: 0.25})
	var warns atomic.Int32
	cfg := FigureConfig{
		Refs: 20_000, Suite: suite, Parallelism: 1,
		Store: faulty,
		Warnf: func(string, ...any) { warns.Add(1) },
	}

	want, err := NewRunner(FigureConfig{Refs: 20_000, Suite: suite, Parallelism: 1}).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	first, err := NewRunner(cfg).Fig10()
	if err != nil {
		t.Fatalf("run over faulty store failed: %v", err)
	}
	if first.Render() != want.Render() {
		t.Errorf("write faults changed output:\n%s\nvs\n%s", first.Render(), want.Render())
	}
	// Second runner replays the surviving entries, quarantines the
	// corrupt ones, recomputes — and must render identically.
	second, err := NewRunner(cfg).Fig10()
	if err != nil {
		t.Fatalf("resume over faulty store failed: %v", err)
	}
	if second.Render() != want.Render() {
		t.Errorf("faulty resume changed output:\n%s\nvs\n%s", second.Render(), want.Render())
	}

	if faulty.Fails.Load() == 0 && faulty.Torn.Load() == 0 && faulty.Flips.Load() == 0 {
		t.Fatal("fault injection never fired; test proves nothing")
	}
	if faulty.Torn.Load()+faulty.Flips.Load() > 0 && base.Quarantined() == 0 {
		t.Error("corrupt entries were written but never quarantined")
	}
	if faulty.Fails.Load() > 0 && warns.Load() == 0 {
		t.Error("write failures never warned")
	}
	if warns.Load() > 2 {
		t.Errorf("warning flood: %d warnings across two engines, want at most one each", warns.Load())
	}
}

// TestResultCodecRoundTrip: a real cell's Result survives the store codec
// exactly — resume byte-identity depends on it.
func TestResultCodecRoundTrip(t *testing.T) {
	w := smallSuite(t)[0]
	for _, setup := range []Setup{SetupTPS, SetupRMM, SetupCoLT} {
		res, err := Run(w, Options{Setup: setup, Refs: 20_000, Seed: 42, CycleModel: true})
		if err != nil {
			t.Fatal(err)
		}
		data, err := encodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeResult(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Errorf("%v: Result did not round-trip:\n%+v\nvs\n%+v", setup, res, back)
		}
	}
	// Schema drift is a miss, not a partial fill.
	if _, err := decodeResult([]byte(`{"NotAField":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestStoreReplayShortCircuits: a second Runner over the same store
// replays every cell without re-simulating.
func TestStoreReplayShortCircuits(t *testing.T) {
	suite := smallSuite(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := FigureConfig{Refs: 20_000, Suite: suite, Parallelism: 2, Store: st}
	first, err := NewRunner(cfg).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	n, err := st.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cells persisted")
	}
	start := time.Now()
	replayed, err := NewRunner(cfg).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if first.Render() != replayed.Render() {
		t.Error("replayed output differs from computed output")
	}
	// Replay reads a handful of small files; even a slow CI disk does
	// that orders of magnitude faster than re-simulating the cells.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("replay took %v; store reads are not short-circuiting", d)
	}
}

// TestCellFingerprintPinned pins the literal store identity of three
// representative cells — functional, cycle-model and SMT — at the
// FigureConfig defaults. Every existing -store directory is keyed by
// these strings; a change here orphans it, and must come with a
// SimVersion bump instead.
func TestCellFingerprintPinned(t *testing.T) {
	r := NewRunner(FigureConfig{Seed: 42})
	cases := []struct {
		key     runKey
		fp, hex string
	}{
		{
			runKey{name: "gcc", setup: SetupTPS, frag: true},
			"tps-sim-v2|refs=1048576|seed=42|mem=4194304|w=gcc|scheme=tps|smt=false|virt=false|frag=true|cyc=false|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0",
			"39bd28bda212b90b3462c4f1b2142115e6469d0ff2bef5840654dd32f1ad231d",
		},
		{
			runKey{name: "mcf", setup: SetupTHP, cyc: true},
			"tps-sim-v2|refs=1048576|seed=42|mem=4194304|w=mcf|scheme=thp|smt=false|virt=false|frag=false|cyc=true|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0",
			"5c031d94a4b6c047d711177267419fe57e932b7e3e229be1c3a436c59d8f28ca",
		},
		{
			runKey{name: "gups", setup: SetupBase4K, smt: true, cyc: true},
			"tps-sim-v2|refs=1048576|seed=42|mem=4194304|w=gups|scheme=base4k|smt=true|virt=false|frag=false|cyc=true|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0",
			"61b746f314b5e878dda6bc813b7a66cc10ea6f6d4ed737e325e2dcb7fed5ad4c",
		},
	}
	for _, c := range cases {
		if got := r.eng.fingerprint(c.key); got != c.fp {
			t.Errorf("%s/%s fingerprint:\n got %s\nwant %s", c.key.name, c.key.setup, got, c.fp)
		}
		if got := r.eng.cellKey(c.key); got != c.hex {
			t.Errorf("%s/%s store key = %s, want %s", c.key.name, c.key.setup, got, c.hex)
		}
	}
}

// FuzzDecodeResult holds the store's Result decoder to its contract: it
// never panics on arbitrary bytes, and any payload it accepts re-encodes
// and decodes to an equal Result, so a replayed cell renders the same as
// the entry it came from.
func FuzzDecodeResult(f *testing.F) {
	w, ok := WorkloadByName("leela")
	if !ok {
		f.Fatal("leela missing")
	}
	for _, opts := range []Options{
		{Setup: SetupTPS, Refs: 2000, Seed: 1},
		{Setup: SetupRMM, Refs: 2000, Seed: 1, CycleModel: true},
	} {
		res, err := Run(w, opts)
		if err != nil {
			f.Fatal(err)
		}
		data, err := encodeResult(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"Workload":"gcc","Unknown":1}`))
	f.Add([]byte(`{"Census":{"300":1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeResult(data)
		if err != nil {
			return
		}
		re, err := encodeResult(res)
		if err != nil {
			t.Fatalf("accepted payload %q does not re-encode: %v", data, err)
		}
		again, err := decodeResult(re)
		if err != nil {
			t.Fatalf("re-encoded payload %q does not decode: %v", re, err)
		}
		if !reflect.DeepEqual(again, res) {
			t.Fatalf("round trip changed the Result:\nfirst:  %+v\nsecond: %+v", res, again)
		}
	})
}
