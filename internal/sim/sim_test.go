package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tps/internal/addr"
	"tps/internal/buddy"
	"tps/internal/trace"
	"tps/internal/workload"
)

// ---- fast synthetic mini-workloads for shape tests ----
// (The catalog workloads carry multi-GB footprints for the benchmark
// harness; these minis exercise the same mechanisms at test speed.)

// miniInit sweeps a region page by page, then announces the main phase.
func miniInit(s trace.Sink, base addr.Virt, size uint64) error {
	for off := uint64(0); off < size; off += addr.BasePageSize {
		if err := s.Ref(trace.Ref{Addr: base + addr.Virt(off), Write: true, Gap: 64}); err != nil {
			return err
		}
	}
	return nil
}

// miniRandom: GUPS-like random updates over one dense region.
func miniRandom(footprint uint64) workload.Workload {
	return workload.Workload{
		Name: "mini-random", TLBIntensive: true, FootprintBytes: footprint,
		Run: func(s trace.Sink, refs uint64, seed int64) error {
			r := rand.New(rand.NewSource(seed))
			base, err := s.Mmap(footprint)
			if err != nil {
				return err
			}
			if err := miniInit(s, base, footprint); err != nil {
				return err
			}
			trace.AnnouncePhase(s, trace.MainPhase)
			for n := uint64(0); n < refs; n++ {
				a := base + addr.Virt(uint64(r.Int63())%footprint)
				if err := s.Ref(trace.Ref{Addr: a, Write: n%2 == 1, Gap: 3}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// miniChase: dependent pointer chase over one dense region.
func miniChase(footprint uint64) workload.Workload {
	return workload.Workload{
		Name: "mini-chase", TLBIntensive: true, FootprintBytes: footprint,
		Run: func(s trace.Sink, refs uint64, seed int64) error {
			r := rand.New(rand.NewSource(seed))
			base, err := s.Mmap(footprint)
			if err != nil {
				return err
			}
			if err := miniInit(s, base, footprint); err != nil {
				return err
			}
			trace.AnnouncePhase(s, trace.MainPhase)
			for n := uint64(0); n < refs; n++ {
				a := base + addr.Virt(uint64(r.Int63())%footprint&^63)
				if err := s.Ref(trace.Ref{Addr: a, Dep: true, Gap: 4}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// miniRegions: gcc-like many sub-2MB regions (THP-hostile), random run
// starts.
func miniRegions(regions int, regionBytes uint64) workload.Workload {
	return workload.Workload{
		Name: "mini-regions", TLBIntensive: true,
		FootprintBytes: uint64(regions) * regionBytes,
		Run: func(s trace.Sink, refs uint64, seed int64) error {
			r := rand.New(rand.NewSource(seed))
			bases := make([]addr.Virt, regions)
			for i := range bases {
				b, err := s.Mmap(regionBytes)
				if err != nil {
					return err
				}
				bases[i] = b
				if err := miniInit(s, b, regionBytes); err != nil {
					return err
				}
			}
			trace.AnnouncePhase(s, trace.MainPhase)
			for n := uint64(0); n < refs; n++ {
				b := bases[r.Intn(regions)]
				a := b + addr.Virt(uint64(r.Int63())%regionBytes&^7)
				if err := s.Ref(trace.Ref{Addr: a, Gap: 5}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// miniStream: sequential sweep, CoLT's best case.
func miniStream(footprint uint64) workload.Workload {
	return workload.Workload{
		Name: "mini-stream", TLBIntensive: true, FootprintBytes: footprint,
		Run: func(s trace.Sink, refs uint64, seed int64) error {
			base, err := s.Mmap(footprint)
			if err != nil {
				return err
			}
			if err := miniInit(s, base, footprint); err != nil {
				return err
			}
			trace.AnnouncePhase(s, trace.MainPhase)
			for n := uint64(0); n < refs; n++ {
				a := base + addr.Virt(n*64%footprint)
				if err := s.Ref(trace.Ref{Addr: a, Gap: 4}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

const miniMB = uint64(1) << 20

func runW(t *testing.T, w workload.Workload, opts Options) Result {
	t.Helper()
	if opts.Refs == 0 {
		opts.Refs = 150_000
	}
	opts.Seed = 42
	if opts.MemoryPages == 0 {
		opts.MemoryPages = 1 << 19 // 2 GB is plenty for the minis
	}
	res, err := Run(w, opts)
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name, opts.Setup, err)
	}
	return res
}

func TestTPSEliminatesMostL1MissesVsTHP(t *testing.T) {
	for _, w := range []workload.Workload{miniRandom(256 * miniMB), miniChase(256 * miniMB)} {
		thp := runW(t, w, Options{Setup: SetupTHP})
		tps := runW(t, w, Options{Setup: SetupTPS})
		if thp.MMU.L1Misses == 0 {
			t.Fatalf("%s: THP baseline has no L1 misses", w.Name)
		}
		elim := 1 - float64(tps.MMU.L1Misses)/float64(thp.MMU.L1Misses)
		if elim < 0.90 {
			t.Errorf("%s: TPS eliminated only %.1f%% of L1 misses (thp=%d tps=%d)",
				w.Name, elim*100, thp.MMU.L1Misses, tps.MMU.L1Misses)
		}
	}
}

func TestTPSEliminatesWalkRefsOnTHPHostileRegions(t *testing.T) {
	// Many sub-2MB regions: THP cannot promote, so its 4K pages thrash
	// the STLB and walk; TPS maps each region with a few tailored pages.
	w := miniRegions(64, 1*miniMB)
	thp := runW(t, w, Options{Setup: SetupTHP})
	tps := runW(t, w, Options{Setup: SetupTPS})
	if thp.WalkMemRefs == 0 {
		t.Fatal("THP baseline never walked")
	}
	elim := 1 - float64(tps.WalkMemRefs)/float64(thp.WalkMemRefs)
	if elim < 0.90 {
		t.Errorf("TPS eliminated only %.1f%% of walk refs (thp=%d tps=%d)",
			elim*100, thp.WalkMemRefs, tps.WalkMemRefs)
	}
}

func TestRMMEliminatesWalksButNotL1Misses(t *testing.T) {
	w := miniRegions(64, 1*miniMB)
	thp := runW(t, w, Options{Setup: SetupTHP})
	rmmRes := runW(t, w, Options{Setup: SetupRMM})
	if rmmRes.WalkMemRefs > thp.WalkMemRefs/5 {
		t.Errorf("RMM walk refs=%d vs THP %d", rmmRes.WalkMemRefs, thp.WalkMemRefs)
	}
	// L1 misses NOT eliminated (Fig. 10: RMM eliminates none).
	if rmmRes.MMU.L1Misses < thp.MMU.L1Misses/2 {
		t.Errorf("RMM should not fix L1 misses: rmm=%d thp=%d", rmmRes.MMU.L1Misses, thp.MMU.L1Misses)
	}
	if rmmRes.RMM.Hits == 0 {
		t.Error("range TLB never hit")
	}
}

func TestCoLTBoundedReachOverTHP(t *testing.T) {
	// CoLT multiplies per-entry reach by up to 8x over the THP baseline
	// it runs on. On a 1 GB random working set that partial reach helps
	// some but far from all (its bounded cluster size is the paper's
	// §IV-B point); it must never hurt.
	wr := miniRandom(1024 * miniMB)
	thpR := runW(t, wr, Options{Setup: SetupTHP, MemoryPages: 1 << 20})
	coltR := runW(t, wr, Options{Setup: SetupCoLT, MemoryPages: 1 << 20})
	if coltR.MMU.L1Misses > thpR.MMU.L1Misses {
		t.Errorf("CoLT made L1 misses worse: %d vs %d", coltR.MMU.L1Misses, thpR.MMU.L1Misses)
	}
	elimR := 1 - float64(coltR.MMU.L1Misses)/float64(thpR.MMU.L1Misses)
	if elimR < 0.05 || elimR > 0.95 {
		t.Errorf("CoLT elimination on 1 GB random=%.1f%%, want partial", elimR*100)
	}
	if coltR.CoLT.Coalesced == 0 {
		t.Error("CoLT never coalesced")
	}
	// Streaming: CoLT stays at the baseline's near-zero miss level
	// (allow noise of a few cold cluster fills).
	ws := miniStream(64 * miniMB)
	thpS := runW(t, ws, Options{Setup: SetupTHP})
	coltS := runW(t, ws, Options{Setup: SetupCoLT})
	if coltS.MMU.L1Misses > thpS.MMU.L1Misses+16 {
		t.Errorf("CoLT worse on stream: %d vs %d", coltS.MMU.L1Misses, thpS.MMU.L1Misses)
	}
}

func TestFootprint2MOnlyExceeds4K(t *testing.T) {
	w := miniRegions(32, 1*miniMB+512*1024) // 1.5 MB regions: 25% waste at 2M
	four := runW(t, w, Options{Setup: SetupBase4K})
	two := runW(t, w, Options{Setup: Setup2MOnly})
	if two.MappedPages <= four.DemandPages {
		t.Errorf("2M-only footprint (%d) should exceed 4K demand (%d)", two.MappedPages, four.DemandPages)
	}
}

func TestTPSFootprintMatches4KOnly(t *testing.T) {
	w := miniRegions(16, 1*miniMB)
	four := runW(t, w, Options{Setup: SetupBase4K})
	tps := runW(t, w, Options{Setup: SetupTPS})
	if tps.MappedPages != four.DemandPages {
		t.Errorf("TPS mapped %d pages, 4K demand %d", tps.MappedPages, four.DemandPages)
	}
}

func TestCensusHasIntermediateSizes(t *testing.T) {
	// Odd-sized regions force intermediate tailored pages.
	w := miniRegions(16, 1*miniMB+28*1024)
	tps := runW(t, w, Options{Setup: SetupTPS})
	inter := 0
	for o, n := range tps.Census {
		if o > 0 && o < addr.Order2M && n > 0 {
			inter++
		}
	}
	if inter < 2 {
		t.Errorf("TPS census has too few intermediate sizes: %v", tps.Census)
	}
}

func TestCycleModelScenariosOrdered(t *testing.T) {
	res := runW(t, miniChase(256*miniMB), Options{Setup: SetupTHP, CycleModel: true, Refs: 80_000})
	if res.CyclesIdeal == 0 {
		t.Fatal("cycle model produced nothing")
	}
	if !(res.CyclesIdeal <= res.CyclesPerfectL2 && res.CyclesPerfectL2 <= res.CyclesReal) {
		t.Errorf("scenario ordering violated: ideal=%d pl2=%d real=%d",
			res.CyclesIdeal, res.CyclesPerfectL2, res.CyclesReal)
	}
	if res.TPW() == 0 {
		t.Error("a thrashing chase under THP should lose time to walks")
	}
}

func TestMPKIOrdering(t *testing.T) {
	gups, _ := workload.ByName("gups")
	leela, _ := workload.ByName("leela")
	hi := runW(t, gups, Options{Setup: SetupTHP, Refs: 100_000, MemoryPages: 1 << 21})
	lo := runW(t, leela, Options{Setup: SetupTHP, Refs: 100_000})
	if hi.L1MPKI <= lo.L1MPKI {
		t.Errorf("gups MPKI (%.1f) should exceed leela (%.1f)", hi.L1MPKI, lo.L1MPKI)
	}
	if hi.L1MPKI < 5 {
		t.Errorf("gups MPKI=%.1f, expected TLB-intensive", hi.L1MPKI)
	}
	if lo.L1MPKI > 5 {
		t.Errorf("leela MPKI=%.1f, expected low", lo.L1MPKI)
	}
}

func TestSMTIncreasesTLBPressure(t *testing.T) {
	w := miniChase(96 * miniMB)
	alone := runW(t, w, Options{Setup: SetupTHP, Refs: 100_000})
	smt := runW(t, w, Options{Setup: SetupTHP, SMT: true, Refs: 100_000})
	missRateAlone := float64(alone.MMU.L1Misses) / float64(alone.MMU.Accesses)
	missRateSMT := float64(smt.MMU.L1Misses) / float64(smt.MMU.Accesses)
	if missRateSMT <= missRateAlone {
		t.Errorf("SMT miss rate=%.3f, alone=%.3f: competition missing", missRateSMT, missRateAlone)
	}
}

// TestSMTErrorReturnsError: a failing cell under SMT reports the failure
// instead of deadlocking or panicking.
func TestSMTErrorReturnsError(t *testing.T) {
	w := miniRandom(64 * miniMB)
	// 256 base pages = 1 MB of memory: the init sweep exhausts it.
	_, err := Run(w, Options{Setup: SetupTHP, SMT: true, Refs: 50_000, Seed: 1, MemoryPages: 256})
	if err == nil {
		t.Fatal("SMT run on a 1 MB machine should fail with out-of-memory")
	}
}

// TestSMTErrorDoesNotLeakGoroutines: a run that fails must stop both
// startSMTThread producers, not leave them blocked forever on a send.
func TestSMTErrorDoesNotLeakGoroutines(t *testing.T) {
	w := miniRandom(64 * miniMB)
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		_, err := Run(w, Options{Setup: SetupTHP, SMT: true, Refs: 50_000, Seed: 1, MemoryPages: 256})
		if err == nil {
			t.Fatal("expected out-of-memory failure")
		}
	}
	// Producers are joined before Run returns, but give the runtime a
	// moment to retire exiting goroutines before counting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked across 20 failed SMT runs: before=%d after=%d", before, n)
	}
}

func TestVirtualizedInflatesWalkRefs(t *testing.T) {
	w := miniRegions(64, 1*miniMB)
	nat := runW(t, w, Options{Setup: SetupTHP})
	virt := runW(t, w, Options{Setup: SetupTHP, Virtualized: true})
	if virt.WalkMemRefs <= nat.WalkMemRefs*3 {
		t.Errorf("virtualized refs=%d, native=%d: nested walks missing", virt.WalkMemRefs, nat.WalkMemRefs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := miniRegions(16, 1*miniMB)
	a := runW(t, w, Options{Setup: SetupTPS})
	b := runW(t, w, Options{Setup: SetupTPS})
	if a.MMU != b.MMU || a.WalkMemRefs != b.WalkMemRefs {
		t.Error("same options produced different stats")
	}
}

func TestEagerHasNoFaults(t *testing.T) {
	w := miniChase(64 * miniMB)
	eager := runW(t, w, Options{Setup: SetupTPSEager})
	if eager.OS.Faults != 0 {
		t.Error("eager paging should not fault")
	}
	res := runW(t, w, Options{Setup: SetupTPS})
	if eager.WalkMemRefs > res.WalkMemRefs {
		t.Errorf("eager walk refs=%d > reservation %d", eager.WalkMemRefs, res.WalkMemRefs)
	}
}

// Full-scale check: a multi-GB random workload exceeds even the 2 MB STLB
// reach, so the THP baseline page-walks in steady state and TPS removes
// nearly all of it — the paper's headline (Figs. 10/11).
func TestFullScaleGUPSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GB run")
	}
	w, _ := workload.ByName("gups")
	opts := Options{Refs: 400_000, MemoryPages: 1 << 22}
	thp := runW(t, w, Options{Setup: SetupTHP, Refs: opts.Refs, MemoryPages: opts.MemoryPages})
	tps := runW(t, w, Options{Setup: SetupTPS, Refs: opts.Refs, MemoryPages: opts.MemoryPages})
	if thp.WalkMemRefs == 0 {
		t.Fatal("4 GB GUPS under THP should page-walk")
	}
	l1 := 1 - float64(tps.MMU.L1Misses)/float64(thp.MMU.L1Misses)
	walks := 1 - float64(tps.WalkMemRefs)/float64(thp.WalkMemRefs)
	if l1 < 0.95 {
		t.Errorf("L1 miss elimination=%.1f%%, want ~98%%", l1*100)
	}
	if walks < 0.90 {
		t.Errorf("walk ref elimination=%.1f%%, want ~98%%", walks*100)
	}
	// TPS maps the 4 GB table with a handful of huge tailored pages
	// (Fig. 18); the remaining census entries are small auxiliary
	// regions.
	var bigPages uint64
	for o, n := range tps.Census {
		if o >= addr.Order2M {
			bigPages += n
		}
	}
	if bigPages == 0 || bigPages > 16 {
		t.Errorf("TPS used %d 2M+ pages for GUPS; expected a handful", bigPages)
	}
}

func TestSetupStrings(t *testing.T) {
	names := map[Setup]string{
		SetupBase4K: "4K", SetupTHP: "THP", SetupTPS: "TPS",
		SetupTPSEager: "TPS-eager", SetupCoLT: "CoLT", SetupRMM: "RMM",
		Setup2MOnly: "2M-only",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d -> %q", s, s.String())
		}
	}
}

func TestCompactionDaemonGrowsPagesUnderFragmentation(t *testing.T) {
	// The §IV-B suggestion: on a fragmented machine, periodic guided
	// compaction lets TPS consolidate fallback blocks and regrow pages.
	w := miniRandom(128 * miniMB)
	frag := func(o *Options) {
		o.Setup = SetupTPS
		o.Refs = 80_000
		o.Seed = 42
		o.MemoryPages = 1 << 17 // 512 MB: leaves headroom after the churn
		o.PreFragment = func(a *buddy.Allocator) {
			// Churn into small-block fragmentation.
			var hold []addr.PFN
			for {
				p, err := a.Alloc(3)
				if err != nil {
					break
				}
				hold = append(hold, p)
			}
			for i := 0; i < len(hold); i += 2 {
				a.Free(hold[i])
			}
			for i := 1; i < len(hold); i += 4 {
				a.Free(hold[i])
			}
		}
	}
	var plain, daemon Options
	frag(&plain)
	frag(&daemon)
	daemon.CompactEvery = 40_000
	p, err := Run(w, plain)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(w, daemon)
	if err != nil {
		t.Fatal(err)
	}
	if d.OS.Compactions == 0 {
		t.Fatal("daemon never fired")
	}
	maxOrder := func(r Result) addr.Order {
		var m addr.Order
		for o, n := range r.Census {
			if n > 0 && o > m {
				m = o
			}
		}
		return m
	}
	if maxOrder(d) <= maxOrder(p) {
		t.Errorf("daemon did not grow pages: max order %v -> %v", maxOrder(p), maxOrder(d))
	}
	if d.MMU.L1Misses >= p.MMU.L1Misses {
		t.Errorf("daemon did not reduce misses: %d -> %d", p.MMU.L1Misses, d.MMU.L1Misses)
	}
}
