package sim

// runSMT hands each sibling's references to the scheduler in chunks and
// runs a quantum of them as one sub-slice. The tests here hold it to
// runSMTReference, the scheduler it replaced (one unbuffered channel send
// per reference), and check its teardown and its allocations.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tps/internal/addr"
	"tps/internal/fragstate"
	"tps/internal/telemetry/series"
	"tps/internal/trace"
	"tps/internal/workload"
)

// runSMTReference is the per-reference SMT scheduler: producers block on
// unbuffered channels, and the scheduler takes each sibling's next event
// with a select. It defines the interleave runSMT must reproduce.
func runSMTReference(w workload.Workload, m *machine, counter *trace.CountingSink, opts Options) error {
	const quantum = 8
	quit := make(chan struct{})
	threads := [2]*refSMTThread{
		startRefSMTThread(w, opts.Seed, opts.Refs/2, quit),
		startRefSMTThread(w, opts.Seed+1000, opts.Refs/2, quit),
	}
	join := func() error {
		var first error
		for _, t := range threads {
			for range t.refs { // discard an in-flight send, then the close
			}
			if err := <-t.done; err != nil && !errors.Is(err, errSMTAborted) && first == nil {
				first = err
			}
		}
		return first
	}
	fail := func(err error) error {
		close(quit)
		join()
		return err
	}
	live := 2
	alive := [2]bool{true, true}
	mainAnnounced := 0
	var batched uint64 // refs delivered this round, for the telemetry hook
	for live > 0 {
		if err := m.ctxErr(); err != nil {
			return fail(err)
		}
		if batched > 0 {
			if opts.OnRefs != nil {
				opts.OnRefs(batched)
			}
			m.sampler.advance(batched)
			batched = 0
		}
		for i, t := range threads {
			if !alive[i] {
				continue
			}
			for q := 0; q < quantum; {
				select {
				case r, ok := <-t.refs:
					if !ok {
						alive[i] = false
						live--
						q = quantum
						continue
					}
					counter.Refs++
					counter.Instructions += uint64(r.Gap) + 1
					if r.Write {
						counter.Writes++
					}
					batched++
					if err := m.refAs(i, r); err != nil {
						return fail(err)
					}
					q++
				case req := <-t.mmaps:
					base, err := m.mmapAs(i, req.size)
					if err != nil {
						return fail(err)
					}
					req.reply <- base
				case name := <-t.phases:
					if name == trace.MainPhase {
						mainAnnounced++
						if mainAnnounced == 2 {
							trace.AnnouncePhase(counter, name)
						}
					}
				}
			}
		}
	}
	if batched > 0 {
		if opts.OnRefs != nil {
			opts.OnRefs(batched)
		}
		m.sampler.advance(batched)
	}
	return join()
}

// refSMTThread is one sibling's channels under runSMTReference.
type refSMTThread struct {
	refs   chan trace.Ref
	mmaps  chan refMmapReq
	phases chan string
	done   chan error
	quit   chan struct{}
}

type refMmapReq struct {
	size  uint64
	reply chan addr.Virt
}

func startRefSMTThread(w workload.Workload, seed int64, refs uint64, quit chan struct{}) *refSMTThread {
	t := &refSMTThread{
		refs:   make(chan trace.Ref),
		mmaps:  make(chan refMmapReq),
		phases: make(chan string),
		done:   make(chan error, 1),
		quit:   quit,
	}
	go func() {
		err := w.Run(&refSMTSink{t: t}, refs, seed)
		close(t.refs)
		t.done <- err
	}()
	return t
}

type refSMTSink struct{ t *refSMTThread }

func (s *refSMTSink) Mmap(size uint64) (addr.Virt, error) {
	req := refMmapReq{size: size, reply: make(chan addr.Virt, 1)}
	select {
	case s.t.mmaps <- req:
	case <-s.t.quit:
		return 0, errSMTAborted
	}
	select {
	case base := <-req.reply:
		return base, nil
	case <-s.t.quit:
		return 0, errSMTAborted
	}
}

func (s *refSMTSink) Munmap(addr.Virt) error {
	return fmt.Errorf("sim: munmap unsupported under SMT")
}

func (s *refSMTSink) Ref(r trace.Ref) error {
	select {
	case <-s.t.quit:
		return errSMTAborted
	default:
	}
	select {
	case s.t.refs <- r:
		return nil
	case <-s.t.quit:
		return errSMTAborted
	}
}

func (s *refSMTSink) Phase(name string) {
	select {
	case s.t.phases <- name:
	case <-s.t.quit:
	}
}

// scripted is an SMT edge-case workload. Each sibling maps one region,
// then emits refs+seed%7 references (so the two siblings' streams end at
// different points), mapping a new region before each reference index in
// mmaps and announcing the main phase before index phase. A warm-up
// phase marker (which the scheduler ignores) precedes the main one.
func scripted(name string, mmaps []uint64, phase uint64) workload.Workload {
	return workload.Workload{
		Name: name,
		Run: func(s trace.Sink, refs uint64, seed int64) error {
			r := rand.New(rand.NewSource(seed))
			const region = 64 * addr.BasePageSize
			base, err := s.Mmap(region)
			if err != nil {
				return err
			}
			live := []addr.Virt{base}
			n := refs + uint64(seed%7)
			for i := uint64(0); i <= n; i++ {
				for _, at := range mmaps {
					if at == i {
						base, err := s.Mmap(region)
						if err != nil {
							return err
						}
						live = append(live, base)
					}
				}
				if i == phase {
					trace.AnnouncePhase(s, "warmup")
					trace.AnnouncePhase(s, trace.MainPhase)
				}
				if i == n {
					break
				}
				ref := trace.Ref{
					Addr:  live[r.Intn(len(live))] + addr.Virt(r.Int63n(region)&^7),
					Write: r.Intn(3) == 0, Dep: r.Intn(4) == 0, Gap: uint32(r.Intn(9)),
				}
				if err := s.Ref(ref); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// smtRun is the observable record of one SMT run: its Result, the size
// of every OnRefs call, and its series points.
type smtRun struct {
	res    Result
	onRefs []uint64
	points []series.Point
	every  uint64
}

func runSMTWith(w workload.Workload, opts Options, smt smtScheduler) (smtRun, error) {
	var out smtRun
	opts.SMT = true
	opts.OnRefs = func(n uint64) { out.onRefs = append(out.onRefs, n) }
	opts.OnSeries = func(p []series.Point, every uint64) {
		out.points, out.every = slices.Clone(p), every
	}
	res, err := run(w, opts, smt)
	out.res = res
	return out, err
}

// TestSMTSchedulerMatchesReference runs every registered scheme under
// SMT through runSMT and through runSMTReference, in functional mode, with
// the cycle model, virtualized with the cycle model, on fragmented memory,
// without the translation cache and at promotion threshold 0.5. The
// Results, the OnRefs call sizes and the series points must be equal.
// The workloads are gcc, xz, touch-churn (which maps regions in its main
// phase) and scripted streams that put an mmap or the main phase on a
// chunk boundary or inside a quantum, end inside a quantum, or stay below
// one chunk.
func TestSMTSchedulerMatchesReference(t *testing.T) {
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"functional", func(*Options) {}},
		{"cycle-model", func(o *Options) { o.CycleModel = true }},
		{"virtualized+cycle-model", func(o *Options) { o.Virtualized, o.CycleModel = true, true }},
		{"prefragment", func(o *Options) { o.PreFragment = fragstate.PreFragment(fragstate.DefaultParams()) }},
		{"no-transcache", func(o *Options) { o.TransCache = -1 }},
		{"threshold=0.5", func(o *Options) { o.PromotionThreshold = 0.5 }},
	}
	type cell struct {
		w    workload.Workload
		refs uint64
	}
	cells := []cell{
		{touchChurn(), 20001},
		{scripted("mmap-and-phase-on-chunk-boundary", []uint64{smtChunk, 2 * smtChunk}, smtChunk), 3 * smtChunk},
		// The flush at mmap 3 moves the chunk boundaries to 3+512k: the
		// phase lands on one inside a quantum, the second mmap inside a
		// chunk and a quantum, the third on a boundary inside a quantum.
		{scripted("mmap-and-phase-mid-quantum", []uint64{3, smtChunk + 5, 2*smtChunk + 5}, smtChunk+3), 3*smtChunk + 5},
		{scripted("mmap-then-phase-at-start", []uint64{0, 1}, 0), 2 * 1001},
		{scripted("below-one-chunk", []uint64{7}, 100), 2 * 150},
		{scripted("empty", nil, 0), 0},
	}
	if !raceEnabled {
		for _, name := range []string{"gcc", "xz"} {
			w, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("%s missing from the catalog", name)
			}
			cells = append(cells, cell{w, 20001})
		}
	}
	for _, setup := range Setups() {
		for _, variant := range variants {
			t.Run(setup.SchemeName()+"/"+variant.name, func(t *testing.T) {
				t.Parallel()
				for _, c := range cells {
					opts := Options{Setup: setup, Refs: c.refs, Seed: 42, MemoryPages: 1 << 20, SeriesEvery: 1000}
					variant.set(&opts)
					if c.refs == 0 {
						opts.Refs = 1 // Run's default would be 1<<20
					}
					got, err := runSMTWith(c.w, opts, runSMT)
					if err != nil {
						t.Fatalf("%s: %v", c.w.Name, err)
					}
					want, err := runSMTWith(c.w, opts, runSMTReference)
					if err != nil {
						t.Fatalf("%s reference: %v", c.w.Name, err)
					}
					if !reflect.DeepEqual(got.res, want.res) {
						t.Errorf("%s: Result diverged from the reference scheduler\ngot:  %+v\nwant: %+v", c.w.Name, got.res, want.res)
					}
					if !slices.Equal(got.onRefs, want.onRefs) {
						t.Errorf("%s: OnRefs sizes diverged: %d calls, reference %d", c.w.Name, len(got.onRefs), len(want.onRefs))
					}
					if !reflect.DeepEqual(got.points, want.points) || got.every != want.every {
						t.Errorf("%s: series diverged: %d points every %d, reference %d every %d",
							c.w.Name, len(got.points), got.every, len(want.points), want.every)
					}
				}
			})
		}
	}
}

// counted wraps a workload's sink to count, per seed, the references the
// generator has emitted so far.
func counted(w workload.Workload, emitted map[int64]*atomic.Uint64) workload.Workload {
	run := w.Run
	w.Run = func(s trace.Sink, refs uint64, seed int64) error {
		return run(countingProducer{s, emitted[seed]}, refs, seed)
	}
	return w
}

type countingProducer struct {
	trace.Sink
	n *atomic.Uint64
}

func (c countingProducer) Ref(r trace.Ref) error {
	c.n.Add(1)
	return c.Sink.Ref(r)
}

func (c countingProducer) Phase(name string) { trace.AnnouncePhase(c.Sink, name) }

// endless maps one region and references it until the sink fails.
var endless = workload.Workload{Name: "endless", Run: func(s trace.Sink, _ uint64, seed int64) error {
	const region = 256 * addr.BasePageSize
	base, err := s.Mmap(region)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	for {
		if err := s.Ref(trace.Ref{Addr: base + addr.Virt(r.Int63n(region)&^7), Gap: 1}); err != nil {
			return err
		}
	}
}}

// TestSMTCancelWhileProducersRunAhead cancels an SMT run from its first
// OnRefs call, once both producers have filled every chunk buffer and
// wait on a full event channel. Run must return context.Canceled, no
// producer may run further ahead than its buffers allow, and no goroutine
// may outlive the run.
func TestSMTCancelWhileProducersRunAhead(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	// A producer fills its smtBuffers buffers; the scheduler has run one
	// quantum of the first, so the last buffer's final reference blocks
	// on the full channel.
	const ahead = smtBuffers * smtChunk
	for i := 0; i < 5; i++ {
		emitted := map[int64]*atomic.Uint64{42: {}, 1042: {}}
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		_, err := Run(counted(endless, emitted), Options{
			Setup: SetupTPS, SMT: true, Seed: 42, Refs: 1 << 30, Context: ctx,
			OnRefs: func(uint64) {
				calls++
				deadline := time.Now().Add(10 * time.Second)
				for (emitted[42].Load() < ahead || emitted[1042].Load() < ahead) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				cancel()
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		if calls != 1 {
			t.Errorf("OnRefs called %d times after cancellation in the first round, want 1", calls)
		}
		for seed, n := range emitted {
			if got := n.Load(); got != ahead {
				t.Errorf("sibling seed %d emitted %d references, want exactly %d (every buffer full)", seed, got, ahead)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked across canceled SMT runs: before=%d after=%d", before, n)
	}
}

// TestSMTGeneratorErrorSurfaces: a generator that fails after a few
// chunks fails the run at once with its own error, not errSMTAborted,
// while its sibling still has most of its stream to go.
func TestSMTGeneratorErrorSurfaces(t *testing.T) {
	boom := errors.New("generator failed")
	const region = 64 * addr.BasePageSize
	w := workload.Workload{Name: "failing", Run: func(s trace.Sink, refs uint64, seed int64) error {
		base, err := s.Mmap(region)
		if err != nil {
			return err
		}
		n := refs
		if seed == 1042 {
			n = 3*smtChunk + 5
		}
		for i := uint64(0); i < n; i++ {
			if err := s.Ref(trace.Ref{Addr: base + addr.Virt(i*64%region)}); err != nil {
				return err
			}
		}
		if seed == 1042 {
			return boom
		}
		return nil
	}}
	var reported uint64
	_, err := Run(w, Options{Setup: SetupTHP, SMT: true, Refs: 1 << 20, Seed: 42, OnRefs: func(n uint64) { reported += n }})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the generator's error", err)
	}
	if reported > 8*smtChunk {
		t.Errorf("the run went on for %d references after its generator failed", reported)
	}
}

// TestSMTAllocsIndependentOfRefs pins the chunk-buffer recycling: a run
// ten times longer allocates at most a few more objects.
func TestSMTAllocsIndependentOfRefs(t *testing.T) {
	w := miniRandom(4 * miniMB)
	allocs := func(refs uint64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(w, Options{Setup: SetupTPS, SMT: true, Refs: refs, Seed: 1, MemoryPages: 1 << 14}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(20_000), allocs(200_000)
	if long > short+8 {
		t.Errorf("an SMT run allocates %.0f objects at 200k refs and %.0f at 20k: allocation grows with the stream", long, short)
	}
}
