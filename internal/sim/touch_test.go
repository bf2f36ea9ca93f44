package sim

// Generators deliver each warm-up sweep as one trace.Touch event, and the
// machine runs it as vmm.Kernel.TouchPages, a page loop that faults
// never-touched pages without probing any TLB; the cycle model prices
// each page from the Result the loop reports, and an SMT sibling's sweep
// runs a quantum at a time. The tests here hold that path to the
// per-reference path it replaces, and check that a canceled run stops
// within one chunk of a sweep.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tps/internal/addr"
	"tps/internal/fragstate"
	"tps/internal/trace"
	"tps/internal/workload"
)

// perRefSink hides every optional interface of the sink it wraps except
// PhaseSink, so a sweep reaches it as per-page references through Ref.
type perRefSink struct{ trace.Sink }

func (s perRefSink) Phase(name string) { trace.AnnouncePhase(s.Sink, name) }

// perRef returns w with every sweep expanded into per-page references
// before they reach the machine: the path runs took before trace.Touch.
func perRef(w workload.Workload) workload.Workload {
	run := w.Run
	w.Run = func(s trace.Sink, refs uint64, seed int64) error {
		return run(perRefSink{s}, refs, seed)
	}
	return w
}

// touchChurn sweeps regions of odd sizes (the last page partial in some),
// at four gaps, after scattered reads have faulted a few of their pages,
// then sweeps sub-ranges again over pages already touched, and in the
// measured phase mixes random references with new regions swept in
// halves.
func touchChurn() workload.Workload {
	return workload.Workload{
		Name: "touch-churn",
		Run: func(s trace.Sink, refs uint64, seed int64) error {
			r := rand.New(rand.NewSource(seed))
			type region struct {
				base addr.Virt
				size uint64
			}
			var live []region
			mmap := func() (region, error) {
				size := uint64(1+r.Intn(3000))*addr.BasePageSize - uint64(r.Intn(2))*100
				base, err := s.Mmap(size)
				g := region{base, size}
				live = append(live, g)
				return g, err
			}
			at := func(g region) addr.Virt { return g.base + addr.Virt(uint64(r.Int63n(int64(g.size)))&^7) }
			for i := 0; i < 4; i++ {
				g, err := mmap()
				if err != nil {
					return err
				}
				for j := 0; j < 8; j++ {
					if err := s.Ref(trace.Ref{Addr: at(g), Gap: 2}); err != nil {
						return err
					}
				}
				// The cycle model's 256-entry ROB holds the writes of the
				// last 256 instructions, and a sweep write comes every
				// gap+1. At gap 50 five earlier writes stay in flight, at
				// 51 four; at 63 three, at 62 four. So pricing a page at
				// gap+1 or gap-1 moves the cycle counts.
				if err := trace.Touch(s, g.base, g.size, []uint32{256, 16, 50, 63}[i]); err != nil {
					return err
				}
			}
			for i := 0; i < 8; i++ {
				g := live[r.Intn(len(live))]
				off := uint64(r.Int63n(int64(g.size))) &^ (addr.BasePageSize - 1)
				if err := trace.Touch(s, g.base+addr.Virt(off), uint64(r.Int63n(int64(g.size-off)))+1, 64); err != nil {
					return err
				}
			}
			trace.AnnouncePhase(s, trace.MainPhase)
			for n := uint64(0); n < refs; n++ {
				if r.Intn(4096) == 0 && len(live) < 8 {
					g, err := mmap()
					if err != nil {
						return err
					}
					half := g.size / 2 &^ (addr.BasePageSize - 1)
					if err := trace.Touch(s, g.base, half, 16); err != nil {
						return err
					}
					if err := trace.Touch(s, g.base+addr.Virt(half), g.size-half, 16); err != nil {
						return err
					}
					continue
				}
				ref := trace.Ref{Addr: at(live[r.Intn(len(live))]), Write: r.Intn(3) == 0, Dep: r.Intn(5) == 0, Gap: 4}
				if err := s.Ref(ref); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// TestTouchMatchesPerPageRefs runs workloads whose sweeps reach the
// machine as Touch events and, through perRef, as per-page references,
// under every registered scheme on fresh and fragmented memory, at
// promotion threshold 0.5, without the translation cache, virtualized,
// with the compaction daemon (native and under SMT), with the cycle model
// (native and virtualized), and under SMT with and without the cycle
// model. The Results and the references reported through OnRefs must be
// equal.
func TestTouchMatchesPerPageRefs(t *testing.T) {
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"fresh", func(*Options) {}},
		{"prefragment", func(o *Options) { o.PreFragment = fragstate.PreFragment(fragstate.DefaultParams()) }},
		{"threshold=0.5", func(o *Options) { o.PromotionThreshold = 0.5 }},
		{"no-transcache", func(o *Options) { o.TransCache = -1 }},
		{"virtualized", func(o *Options) { o.Virtualized = true }},
		{"compact-every", func(o *Options) { o.CompactEvery = 5000 }},
		{"smt+compact-every", func(o *Options) { o.SMT, o.CompactEvery = true, 5000 }},
		{"cycle-model", func(o *Options) { o.CycleModel = true }},
		{"smt", func(o *Options) { o.SMT = true }},
		{"smt+cycle-model", func(o *Options) { o.SMT, o.CycleModel = true, true }},
		{"virtualized+cycle-model", func(o *Options) { o.Virtualized, o.CycleModel = true, true }},
	}
	leela, ok := workload.ByName("leela")
	if !ok {
		t.Fatal("leela missing from the catalog")
	}
	gcc, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("gcc missing from the catalog")
	}
	// gcc adds a 208 MB footprint over many regions; the race detector
	// makes its sweeps slow on the same code path, so a race build runs
	// the other two.
	workloads := []workload.Workload{touchChurn(), leela, gcc}
	if raceEnabled {
		workloads = workloads[:2]
	}
	for _, setup := range Setups() {
		for _, variant := range variants {
			t.Run(setup.SchemeName()+"/"+variant.name, func(t *testing.T) {
				t.Parallel()
				for _, w := range workloads {
					var touchRefs, perRefRefs uint64
					opts := Options{Setup: setup, Refs: 20000, Seed: 42, MemoryPages: 1 << 19}
					variant.set(&opts)
					opts.OnRefs = func(n uint64) { touchRefs += n }
					got, err := Run(w, opts)
					if err != nil {
						t.Fatalf("%s: %v", w.Name, err)
					}
					opts.OnRefs = func(n uint64) { perRefRefs += n }
					want, err := Run(perRef(w), opts)
					if err != nil {
						t.Fatalf("%s per-page refs: %v", w.Name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: Touch diverged from per-page refs\ntouch:   %+v\nper-ref: %+v", w.Name, got, want)
					}
					if touchRefs != perRefRefs || touchRefs == 0 {
						t.Errorf("%s: OnRefs reported %d references, per-page refs %d", w.Name, touchRefs, perRefRefs)
					}
				}
			})
		}
	}
}

// oneRefSink is perRefSink that also flushes the trace.Batcher behind it
// after every reference, so the machine takes each reference, sweep pages
// included, as a batch of its own.
type oneRefSink struct{ perRefSink }

func (s oneRefSink) Ref(r trace.Ref) error {
	if err := s.Sink.Ref(r); err != nil {
		return err
	}
	return s.Sink.(interface{ Flush() error }).Flush()
}

// oneRefBatches returns w with every sweep expanded into per-page
// references and every reference delivered as a batch of one.
func oneRefBatches(w workload.Workload) workload.Workload {
	run := w.Run
	w.Run = func(s trace.Sink, refs uint64, seed int64) error {
		return run(oneRefSink{perRefSink{s}}, refs, seed)
	}
	return w
}

// TestCompactionDaemonMatchesOneRefBatches holds the compaction daemon's
// tick, taken once per chunk of references or sweep pages, to the same
// runs delivered one reference per batch, where the tick is tested before
// every reference. The intervals sit around the 512-reference chunk and
// far from it; each runs functional, with the cycle model and under SMT,
// on fragmented memory. Every run must also compact exactly once per
// CompactEvery references it ran, warm-up and both SMT siblings included.
func TestCompactionDaemonMatchesOneRefBatches(t *testing.T) {
	modes := []struct {
		name string
		set  func(*Options)
	}{
		{"functional", func(*Options) {}},
		{"cycle-model", func(o *Options) { o.CycleModel = true }},
		{"smt", func(o *Options) { o.SMT = true }},
	}
	for _, every := range []uint64{511, 512, 513, 3001} {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("every=%d/%s", every, mode.name), func(t *testing.T) {
				t.Parallel()
				var chunked, oneRef uint64
				opts := Options{Setup: SetupTPS, Refs: 20000, Seed: 7, MemoryPages: 1 << 16, CompactEvery: every,
					PreFragment: fragstate.PreFragment(fragstate.DefaultParams())}
				mode.set(&opts)
				opts.OnRefs = func(n uint64) { chunked += n }
				got, err := Run(touchChurn(), opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.OnRefs = func(n uint64) { oneRef += n }
				want, err := Run(oneRefBatches(touchChurn()), opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("chunked ticks diverged from per-reference ticks\nchunked: %+v\none-ref: %+v", got, want)
				}
				procs := uint64(1)
				if opts.SMT {
					procs = 2
				}
				if chunked != oneRef || got.OS.Compactions != chunked/every*procs {
					t.Errorf("%d references (%d one at a time) ran %d compactions, want %d per process",
						chunked, oneRef, got.OS.Compactions, chunked/every)
				}
			})
		}
	}
}

// TestTouchCancelStopsWithinChunk cancels a run from its telemetry hook
// at the first chunk of a 16384-page sweep: the machine polls the context
// before each chunk, so exactly one chunk is faulted in.
func TestTouchCancelStopsWithinChunk(t *testing.T) {
	const pages = 16384
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reported uint64
	m := newMachine(Options{Setup: SetupTPS, Context: ctx, OnRefs: func(n uint64) {
		reported += n
		cancel()
	}})
	base, err := m.Mmap(pages * addr.BasePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Touch(base, pages*addr.BasePageSize, 256); !errors.Is(err, context.Canceled) {
		t.Fatalf("Touch returned %v, want context.Canceled", err)
	}
	if faults := m.procs[0].kernel.Stats().Faults; reported != trace.BatchSize || faults != trace.BatchSize {
		t.Errorf("a sweep canceled in its first chunk reported %d references and faulted %d pages, want %d of each",
			reported, faults, trace.BatchSize)
	}

	// The same through Run: the canceled sweep fails the run.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	reported = 0
	sweep := workload.Workload{Name: "sweep", Run: func(s trace.Sink, _ uint64, _ int64) error {
		base, err := s.Mmap(pages * addr.BasePageSize)
		if err != nil {
			return err
		}
		return trace.Touch(s, base, pages*addr.BasePageSize, 256)
	}}
	_, err = Run(sweep, Options{Setup: SetupTPS, Context: ctx, OnRefs: func(n uint64) {
		reported += n
		cancel()
	}})
	if !errors.Is(err, context.Canceled) || reported != trace.BatchSize {
		t.Errorf("Run returned %v after %d references, want context.Canceled after %d", err, reported, trace.BatchSize)
	}
}
