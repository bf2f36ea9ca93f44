// Package sim is the two-step evaluation harness of §IV-A: it assembles a
// machine (buddy allocator, OS kernel, page table, MMU with the chosen
// translation mechanism, data caches) and drives a workload's reference
// stream through it, producing the functional TLB/walk statistics of the
// PIN-based simulator and, optionally, the cycle-level timing of the
// ZSim-based study via the cpu package.
package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"tps/internal/addr"
	"tps/internal/buddy"
	"tps/internal/cache"
	"tps/internal/colt"
	"tps/internal/cpu"
	"tps/internal/mmu"
	"tps/internal/pagetable"
	"tps/internal/rmm"
	"tps/internal/scheme"
	_ "tps/internal/scheme/all" // populate the registry with the built-in backends
	"tps/internal/telemetry/series"
	"tps/internal/trace"
	"tps/internal/vmm"
	"tps/internal/workload"
)

// Setup selects the translation mechanism under evaluation.
type Setup int

const (
	// SetupBase4K: demand paging, 4 KB pages only.
	SetupBase4K Setup = iota
	// SetupTHP: reservation-based Transparent Huge Pages (the baseline of
	// Figs. 10, 11, 13, 14, 16).
	SetupTHP
	// SetupTPS: Tailored Page Sizes with reservation-based demand paging.
	SetupTPS
	// SetupTPSEager: TPS with eager paging.
	SetupTPSEager
	// SetupCoLT: CoLT-SA coalescing hardware over 4 KB demand paging.
	SetupCoLT
	// SetupRMM: Redundant Memory Mappings (eager ranges + Range TLB).
	SetupRMM
	// Setup2MOnly: every mapping uses 2 MB pages exclusively (Fig. 9).
	Setup2MOnly
	// SetupSvnapot: TPS hardware with promotion restricted to the fixed
	// RISC-V Svnapot granule set (4K/64K/2M/1G) — the any-size ablation.
	SetupSvnapot
)

// setupNames maps each Setup ordinal to its stable scheme-registry name.
// This is the only place an ordinal and a name meet: everything persistent
// (store fingerprints, telemetry, BENCH output) uses the name, so the enum
// may be reordered or extended without aliasing stored results.
var setupNames = [...]string{
	SetupBase4K:   "base4k",
	SetupTHP:      "thp",
	SetupTPS:      "tps",
	SetupTPSEager: "tps-eager",
	SetupCoLT:     "colt",
	SetupRMM:      "rmm",
	Setup2MOnly:   "2m-only",
	SetupSvnapot:  "svnapot",
}

// SchemeName returns the setup's stable scheme-registry name, or
// "invalid(N)" for an out-of-range value (never a masqueraded default).
func (s Setup) SchemeName() string {
	if s >= 0 && int(s) < len(setupNames) {
		return setupNames[s]
	}
	return fmt.Sprintf("invalid(%d)", int(s))
}

// scheme resolves the setup's backend from the registry.
func (s Setup) scheme() (scheme.Scheme, error) {
	if sch, ok := scheme.Lookup(s.SchemeName()); ok {
		return sch, nil
	}
	return nil, fmt.Errorf("sim: setup %d is not a registered scheme (have %s)",
		int(s), strings.Join(scheme.Names(), ", "))
}

// String names the setup as it appears in the paper's figures. An
// unregistered value prints as Setup(N) — explicitly, rather than
// masquerading as the 4K baseline in error messages and table headers.
func (s Setup) String() string {
	if sch, err := s.scheme(); err == nil {
		return sch.Label()
	}
	return fmt.Sprintf("Setup(%d)", int(s))
}

// SetupByName resolves a scheme-registry name (case-insensitive) to its
// Setup. It reports false for names not in the registry.
func SetupByName(name string) (Setup, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for s, n := range setupNames {
		if n == name {
			_, err := Setup(s).scheme()
			return Setup(s), err == nil
		}
	}
	return 0, false
}

// Setups returns every registered setup in enum order.
func Setups() []Setup {
	out := make([]Setup, 0, len(setupNames))
	for s := range setupNames {
		if _, err := Setup(s).scheme(); err == nil {
			out = append(out, Setup(s))
		}
	}
	return out
}

// Options parameterizes one run.
type Options struct {
	// Setup selects the translation scheme; SetupByName resolves a
	// registry name to it.
	Setup Setup
	// Refs is the approximate reference count to simulate.
	Refs uint64
	// Seed drives the workload generator.
	Seed int64
	// MemoryPages sizes physical memory in base pages (default 2^21 =
	// 8 GB).
	MemoryPages uint64
	// PreFragment, if set, mutates the fresh allocator into a fragmented
	// initial state before the workload starts (Figs. 15/16).
	PreFragment func(*buddy.Allocator)

	// Context, when set, cancels the run: the reference loops poll it at
	// batch granularity (one check per 512-reference flush, and per SMT
	// scheduling round), so a canceled run returns ctx.Err() within a
	// few thousand references instead of finishing. nil never cancels.
	// Cancellation polls cost one predictable branch per batch and do
	// not perturb any modeled statistic.
	Context context.Context

	// OnRefs, when set, is the telemetry hook for live throughput: it
	// receives the size of each delivered reference batch (one call per
	// 512-reference flush, or per SMT scheduling round) — never one call
	// per reference. The hook must be cheap and non-blocking (the engine
	// passes a per-worker atomic add). nil costs one predictable branch
	// per batch and nothing per reference; modeled statistics are
	// identical either way.
	OnRefs func(n uint64)

	// SeriesEvery, when nonzero, samples an epoch-resolved counter
	// time-series every that many references (series.DefaultEvery is the
	// conventional value) and delivers it to OnSeries at collect time.
	// Sampling only reads counters at batch granularity: modeled
	// statistics, golden output, and the zero-alloc steady state are
	// bit-identical with the series on or off (see series.go).
	SeriesEvery uint64

	// OnSeries receives the run's completed epoch series: cumulative
	// points on a grid of the given interval (which may exceed
	// SeriesEvery if the ring decimated). Called once, at collect time,
	// from the run's own goroutine. The points slice is owned by the run;
	// consumers copy or serialize before returning.
	OnSeries func(points []series.Point, every uint64)

	// OS knobs (TPS setups).
	PromotionThreshold float64
	Sizing             vmm.Sizing
	AliasStrategy      pagetable.AliasStrategy
	CompactOnFailure   bool

	// CompactEvery, when nonzero, runs the incremental compaction daemon
	// every N references: compaction plus merge-aware page growth, the
	// §IV-B suggestion for long-running workloads under fragmentation
	// ("incremental guided memory compaction over time would help TPS
	// incrementally grow page sizes").
	CompactEvery uint64

	// Hardware knobs.
	Levels        int
	Virtualized   bool
	TPSTLBEntries int  // 0 = default 32 (ablation sweeps override)
	TPSTLBSkewed  bool // skewed-associative TPS TLB instead of FA

	// CycleModel enables the data-cache and OOO timing scenarios.
	CycleModel bool
	// SMT interleaves a second copy of the workload (different seed,
	// disjoint address ranges) through the same translation hardware.
	SMT bool

	// TransCache overrides the MMU's software translation-cache sizing:
	// 0 keeps the default, negative disables the cache, positive is an
	// entry count (rounded up to a power of two). Purely a simulator
	// fast path — every reported statistic is bit-identical at any
	// setting.
	TransCache int
}

// Result is one run's measurements.
type Result struct {
	Workload string
	Setup    Setup
	// Scheme is the stable registry name of the setup that ran — the
	// identity persisted results and telemetry are keyed by.
	Scheme string

	Refs         uint64
	Instructions uint64

	MMU  mmu.Stats
	OS   vmm.Stats
	RMM  rmm.Stats  // SetupRMM only
	CoLT colt.Stats // SetupCoLT only

	// WalkMemRefs is the total page-walk memory references including
	// nested (virtualized) refs and RMM range-walker fetches — the
	// Fig. 11 metric.
	WalkMemRefs uint64

	// L1MPKI is L1 DTLB misses per thousand instructions (Fig. 8).
	L1MPKI float64

	Census        map[addr.Order]uint64 // Fig. 18
	MappedPages   uint64                // Fig. 9 footprint metric
	DemandPages   uint64
	ReservedPages uint64 // pages held by the paging reservation table
	PTEWrites     uint64 // page-table entry stores (whole run)

	// Cycle-model scenario outputs (CycleModel only).
	CyclesReal      uint64 // actual translation latencies
	CyclesPerfectL2 uint64 // every L1 miss costs one STLB hit; no walks
	CyclesIdeal     uint64 // no translation overhead at all
	CyclesWarmup    uint64 // real-scenario cycles spent before the main phase

	// WalkerCycles is the raw page-walker busy time in the real scenario
	// (latency sum of walk memory references) — the PWC performance
	// counter Fig. 12 reasons about. Unlike TPW it is not adjusted for
	// out-of-order overlap.
	WalkerCycles uint64

	// SysCyclesMain is OS work during the measured phase only;
	// Result.OS.SysCycles covers the whole run including initialization.
	SysCyclesMain uint64
}

// TPW returns the execution time lost to page walks (the paper's T_PW).
func (r Result) TPW() uint64 {
	if r.CyclesReal < r.CyclesPerfectL2 {
		return 0
	}
	return r.CyclesReal - r.CyclesPerfectL2
}

// TL1DTLBM returns the time lost to L1 TLB misses that hit the L2
// (the paper's T_L1DTLBM).
func (r Result) TL1DTLBM() uint64 {
	if r.CyclesPerfectL2 < r.CyclesIdeal {
		return 0
	}
	return r.CyclesPerfectL2 - r.CyclesIdeal
}

// proc is one simulated process (address space): its kernel, its
// hardware-thread MMU context, and any per-process baseline machinery.
type proc struct {
	kernel *vmm.Kernel
	mmu    *mmu.MMU
	rtlb   *rmm.RangeTLB
	coal   *colt.Coalescer

	// Warmup baselines captured at the main-phase boundary.
	baseMMU   mmu.Stats
	baseRMM   rmm.Stats
	baseCoLT  colt.Stats
	baseOSSys uint64
}

// machine bundles one assembled system: shared physical memory and
// translation hardware, plus one proc per hardware thread (two under SMT,
// with distinct address spaces distinguished by ASIDs).
type machine struct {
	opts    Options
	bud     *buddy.Allocator
	hw      *mmu.Hardware
	procs   []*proc
	caches  *cache.Hierarchy
	real    *cpu.Model
	pl2     *cpu.Model
	ideal   *cpu.Model
	stlbLat uint64

	walkerCycles uint64 // raw walker busy cycles (real scenario)
	baseWalker   uint64
	cyclesWarmup uint64

	refsSeen uint64 // compaction-daemon scheduling

	sampler *seriesSampler // nil unless Options.SeriesEvery > 0
}

// ctxErr polls the run's cancellation state: nil when the run should
// continue. Called at batch granularity so the per-reference hot path
// stays branch-free.
func (m *machine) ctxErr() error {
	if m.opts.Context == nil {
		return nil
	}
	return m.opts.Context.Err()
}

// Phase implements trace.PhaseSink: at the main-phase boundary, snapshot
// warmup hardware statistics and restart the timing models (caches stay
// warm). Region-of-interest methodology: initialization misses are
// compulsory in every setup.
func (m *machine) Phase(name string) {
	if name != trace.MainPhase {
		return
	}
	for _, p := range m.procs {
		p.baseMMU = p.mmu.Stats()
		if p.rtlb != nil {
			p.baseRMM = p.rtlb.Stats()
		}
		if p.coal != nil {
			p.baseCoLT = p.coal.Stats()
		}
		p.baseOSSys = p.kernel.Stats().SysCycles
	}
	m.baseWalker = m.walkerCycles
	if m.real != nil {
		m.cyclesWarmup = m.real.Cycles()
		m.real = cpu.New(cpu.DefaultParams())
		m.pl2 = cpu.New(cpu.DefaultParams())
		m.ideal = cpu.New(cpu.DefaultParams())
	}
}

// subMMU subtracts warmup counters from a final snapshot.
func subMMU(a, b mmu.Stats) mmu.Stats {
	a.Accesses -= b.Accesses
	a.L1Hits -= b.L1Hits
	a.L1Misses -= b.L1Misses
	a.STLBHits -= b.STLBHits
	a.STLBMisses -= b.STLBMisses
	a.SidecarHits -= b.SidecarHits
	a.Walks -= b.Walks
	a.WalkRefs -= b.WalkRefs
	a.AliasExtras -= b.AliasExtras
	a.NestedRefs -= b.NestedRefs
	for i := range a.PWCHits {
		a.PWCHits[i] -= b.PWCHits[i]
	}
	a.ADWrites -= b.ADWrites
	return a
}

// addMMU sums two stat blocks (SMT aggregation).
func addMMU(a, b mmu.Stats) mmu.Stats {
	a.Accesses += b.Accesses
	a.L1Hits += b.L1Hits
	a.L1Misses += b.L1Misses
	a.STLBHits += b.STLBHits
	a.STLBMisses += b.STLBMisses
	a.SidecarHits += b.SidecarHits
	a.Walks += b.Walks
	a.WalkRefs += b.WalkRefs
	a.AliasExtras += b.AliasExtras
	a.NestedRefs += b.NestedRefs
	for i := range a.PWCHits {
		a.PWCHits[i] += b.PWCHits[i]
	}
	a.ADWrites += b.ADWrites
	return a
}

// newMachine assembles the system for the options. The setup must resolve
// in the scheme registry; sim.Run validates this before calling (internal
// callers pass known-good setups, so resolution failure here is a bug).
func newMachine(opts Options) *machine {
	sch, err := opts.Setup.scheme()
	if err != nil {
		panic(err)
	}
	if opts.MemoryPages == 0 {
		opts.MemoryPages = 1 << 21 // 8 GB
	}
	bud := buddy.New(opts.MemoryPages)
	if opts.PreFragment != nil {
		opts.PreFragment(bud)
	}

	// Scheme tuning sits between policy defaults and the per-run knobs:
	// a scheme shapes its kernel, a user override still wins.
	kcfg := vmm.DefaultConfig(sch.Policy())
	sch.TuneKernel(&kcfg)
	if opts.PromotionThreshold > 0 {
		kcfg.PromotionThreshold = opts.PromotionThreshold
	}
	kcfg.Sizing = opts.Sizing
	kcfg.AliasStrategy = opts.AliasStrategy
	kcfg.CompactOnFailure = opts.CompactOnFailure
	if opts.Levels != 0 {
		kcfg.Levels = opts.Levels
	}

	mcfg := mmu.DefaultConfig(sch.Organization())
	mcfg.Levels = kcfg.Levels
	mcfg.Virtualized = opts.Virtualized
	mcfg.TransCache = opts.TransCache
	if opts.TPSTLBEntries > 0 {
		mcfg.TPSTLBEntries = opts.TPSTLBEntries
	}
	mcfg.TPSTLBSkewed = opts.TPSTLBSkewed

	m := &machine{opts: opts, bud: bud, hw: mmu.NewHardware(mcfg), stlbLat: 7}

	nProcs := 1
	if opts.SMT {
		// SMT siblings are separate processes sharing the translation
		// hardware; their TLB entries are distinguished by ASID.
		nProcs = 2
	}
	for i := 0; i < nProcs; i++ {
		p := &proc{kernel: vmm.New(kcfg, bud)}
		att := sch.Attach(p.kernel)
		p.rtlb, p.coal = att.RangeTLB, att.Coalescer
		p.mmu = mmu.NewThread(m.hw, p.kernel.Table(), uint16(i), att.Sidecar, att.Fill)
		p.kernel.AttachMMU(p.mmu)
		m.procs = append(m.procs, p)
	}

	if opts.CycleModel {
		m.caches = cache.NewHierarchy()
		m.real = cpu.New(cpu.DefaultParams())
		m.pl2 = cpu.New(cpu.DefaultParams())
		m.ideal = cpu.New(cpu.DefaultParams())
	}
	// The probe closure is bound once here, never per sample.
	m.sampler = newSeriesSampler(opts.SeriesEvery, m.sampleInto)
	return m
}

// Mmap implements trace.Sink (thread 0).
func (m *machine) Mmap(size uint64) (addr.Virt, error) { return m.mmapAs(0, size) }

// Munmap implements trace.Sink (thread 0).
func (m *machine) Munmap(base addr.Virt) error { return m.procs[0].kernel.Munmap(base) }

// Ref implements trace.Sink (thread 0).
func (m *machine) Ref(r trace.Ref) error {
	if err := m.refAs(0, r); err != nil {
		return err
	}
	m.sampler.advance(1)
	return nil
}

// RefBatch implements trace.BatchSink (thread 0): the production delivery
// path for non-SMT runs — one virtual call per buffer, then a tight slice
// walk.
func (m *machine) RefBatch(refs []trace.Ref) error {
	if err := m.ctxErr(); err != nil {
		return err
	}
	if m.opts.OnRefs != nil {
		m.opts.OnRefs(uint64(len(refs)))
	}
	if err := m.refsAs(0, refs); err != nil {
		return err
	}
	m.sampler.advance(uint64(len(refs)))
	return nil
}

// refsAs performs thread t's references in order, stopping at the first
// failure: the per-thread loop behind RefBatch and each SMT quantum.
func (m *machine) refsAs(t int, refs []trace.Ref) error {
	if m.functional() {
		// Functional mode does nothing per reference beyond the
		// translation itself, so drive the MMU straight from the slice
		// through the Result-free Access fast path.
		p := m.procs[t]
		for i := range refs {
			if err := p.mmu.Access(refs[i].Addr, refs[i].Write); err != nil {
				if _, err = p.kernel.Resolve(refs[i].Addr, refs[i].Write, mmu.Result{}, err); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i := range refs {
		if err := m.refAs(t, refs[i]); err != nil {
			return err
		}
	}
	return nil
}

// touchChunk is the number of pages machine.Touch handles between two
// cancellation polls: one reference batch, so cancellation, telemetry and
// sampling keep RefBatch's granularity.
const touchChunk = 512

// Touch implements trace.TouchSink (thread 0), one chunk of touchChunk
// pages per cancellation poll, OnRefs call and sampler advance. In
// functional mode the kernel runs each chunk as a page loop
// (vmm.Kernel.TouchPages); the compaction daemon and the cycle model act
// per reference, so those runs take the chunk one reference at a time.
func (m *machine) Touch(base addr.Virt, size uint64, gap uint32) error {
	for pages := trace.TouchRefs(size); pages > 0; {
		n := min(pages, touchChunk)
		if err := m.ctxErr(); err != nil {
			return err
		}
		if m.opts.OnRefs != nil {
			m.opts.OnRefs(n)
		}
		if m.functional() {
			if err := m.procs[0].kernel.TouchPages(base, n); err != nil {
				return err
			}
		} else {
			for i := uint64(0); i < n; i++ {
				if err := m.refAs(0, trace.Ref{Addr: base + addr.Virt(i*addr.BasePageSize), Write: true, Gap: gap}); err != nil {
					return err
				}
			}
		}
		m.sampler.advance(n)
		base += addr.Virt(n * addr.BasePageSize)
		pages -= n
	}
	return nil
}

// functional reports whether the machine does nothing per reference
// beyond the translation itself: no compaction daemon, no cycle model.
func (m *machine) functional() bool { return m.opts.CompactEvery == 0 && m.caches == nil }

func (m *machine) mmapAs(t int, size uint64) (addr.Virt, error) {
	return m.procs[t].kernel.Mmap(size, 0)
}

// refAs translates thread t's access (faulting as needed), then prices it
// under each timing scenario.
func (m *machine) refAs(t int, r trace.Ref) error {
	if m.opts.CompactEvery > 0 {
		m.refsSeen++
		if m.refsSeen%m.opts.CompactEvery == 0 {
			// The incremental daemon defragments, re-homes fragmented
			// reservations into whole blocks (guided compaction,
			// §IV-B), then grows pages whose frames became adjacent
			// (merge-aware compaction, §III-B3).
			for _, p := range m.procs {
				p.kernel.Compact()
				p.kernel.ConsolidateReservations()
				p.kernel.MergePages()
			}
		}
	}
	// Steady state translates without kernel involvement; the fault and
	// CoW slow paths live behind Resolve.
	p := m.procs[t]
	res, err := p.mmu.Translate(r.Addr, r.Write)
	if err != nil {
		res, err = p.kernel.Resolve(r.Addr, r.Write, res, err)
		if err != nil {
			return err
		}
	}
	if m.caches == nil {
		return nil
	}
	memLat := m.caches.Latency(res.Phys)

	// Translation latency under the real hierarchy.
	var translReal uint64
	switch {
	case res.L1Hit:
		translReal = 0
	case res.STLBHit, res.Sidecar:
		translReal = m.stlbLat
	default:
		refs := res.WalkRefs
		if m.opts.Virtualized {
			refs = refs*(addr.Levels4+1) + addr.Levels4
		}
		var walkLat uint64
		for i := 0; i < refs; i++ {
			walkLat += m.caches.WalkRefLatency(walkRefAddr(r.Addr, i))
		}
		m.walkerCycles += walkLat
		translReal = m.stlbLat + walkLat // discover the STLB miss first
	}
	var translPL2 uint64
	if !res.L1Hit {
		translPL2 = m.stlbLat
	}

	m.real.Instr(uint64(r.Gap))
	m.real.Ref(r.Dep, translReal+memLat)
	m.pl2.Instr(uint64(r.Gap))
	m.pl2.Ref(r.Dep, translPL2+memLat)
	m.ideal.Instr(uint64(r.Gap))
	m.ideal.Ref(r.Dep, memLat)
	return nil
}

// walkRefAddr synthesizes a stable physical address for the i-th memory
// reference of a walk for v, so walk refs exhibit realistic cache reuse:
// references to the same page-table node map to the same line region.
func walkRefAddr(v addr.Virt, level int) addr.Phys {
	prefix := uint64(v) >> (addr.BasePageShift + uint(level)*addr.LevelBits)
	h := prefix*0x9e3779b97f4a7c15 + uint64(level)*0xbf58476d1ce4e5b9
	// Confine walk lines to a dedicated 64 MB region so they compete with
	// data in the LLC the way in-memory page tables do.
	const walkRegion = uint64(1) << 45
	return addr.Phys(walkRegion | (h & (64<<20 - 1) &^ 7))
}

// Run executes one workload under the options and collects the result.
// An unregistered Options.Setup is a validation error, not a silent
// baseline run. This is the one path from a configuration to a simulated
// machine: generators and trace files (workload.FromTrace) both enter here.
func Run(w workload.Workload, opts Options) (Result, error) {
	return run(w, opts, runSMT)
}

// smtScheduler interleaves the two SMT siblings of a run through its
// machine, tallying their references in counter.
type smtScheduler func(w workload.Workload, m *machine, counter *trace.CountingSink, opts Options) error

// run is Run with the SMT scheduler as a parameter, so tests can hold
// runSMT to a reference scheduler.
func run(w workload.Workload, opts Options, smt smtScheduler) (Result, error) {
	if _, err := opts.Setup.scheme(); err != nil {
		return Result{}, err
	}
	if opts.Refs == 0 {
		opts.Refs = 1 << 20
	}
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return Result{}, err
		}
	}
	m := newMachine(opts)

	counter := &trace.CountingSink{Sink: m}
	if opts.SMT {
		if err := smt(w, m, counter, opts); err != nil {
			return Result{}, err
		}
	} else {
		// Batch the generator's per-Ref stream so the machine consumes
		// references a slice at a time.
		b := trace.NewBatcher(counter)
		if err := w.Run(b, opts.Refs, opts.Seed); err != nil {
			return Result{}, err
		}
		if err := b.Flush(); err != nil {
			return Result{}, err
		}
	}
	return m.collect(w, counter), nil
}

func (m *machine) collect(w workload.Workload, c *trace.CountingSink) Result {
	m.sampler.flush(m.opts.OnSeries)
	r := Result{
		Workload:     w.Name,
		Setup:        m.opts.Setup,
		Scheme:       m.opts.Setup.SchemeName(),
		Refs:         c.Refs,
		Instructions: c.Instructions,
		Census:       make(map[addr.Order]uint64),
	}
	var sysMain uint64
	for _, p := range m.procs {
		ms := subMMU(p.mmu.Stats(), p.baseMMU)
		r.MMU = addMMU(r.MMU, ms)
		os := p.kernel.Stats()
		r.OS = addOS(r.OS, os)
		for o, n := range p.kernel.PageSizeCensus() {
			r.Census[o] += n
		}
		r.MappedPages += p.kernel.MappedBasePages()
		r.DemandPages += os.DemandPages
		r.ReservedPages += p.kernel.ReservedBasePages()
		r.PTEWrites += p.kernel.Table().Stats().PTEWrites
		sysMain += os.SysCycles - p.baseOSSys
		if p.rtlb != nil {
			rs := p.rtlb.Stats()
			rs.Lookups -= p.baseRMM.Lookups
			rs.Hits -= p.baseRMM.Hits
			rs.TableFills -= p.baseRMM.TableFills
			rs.TableRefs -= p.baseRMM.TableRefs
			rs.Misses -= p.baseRMM.Misses
			r.RMM = addRMM(r.RMM, rs)
		}
		if p.coal != nil {
			cs := p.coal.Stats()
			cs.Fills -= p.baseCoLT.Fills
			cs.Coalesced -= p.baseCoLT.Coalesced
			cs.PagesSpanned -= p.baseCoLT.PagesSpanned
			r.CoLT = addCoLT(r.CoLT, cs)
		}
	}
	r.WalkMemRefs = r.MMU.WalkRefs + r.MMU.NestedRefs + r.RMM.TableRefs
	if c.Instructions > 0 {
		r.L1MPKI = float64(r.MMU.L1Misses) / (float64(c.Instructions) / 1000)
	}
	if m.real != nil {
		r.CyclesReal = m.real.Cycles()
		r.CyclesPerfectL2 = m.pl2.Cycles()
		r.CyclesIdeal = m.ideal.Cycles()
		r.CyclesWarmup = m.cyclesWarmup
	}
	r.WalkerCycles = m.walkerCycles - m.baseWalker
	r.SysCyclesMain = sysMain
	return r
}

// addOS sums OS stat blocks (SMT aggregation).
func addOS(a, b vmm.Stats) vmm.Stats {
	a.Mmaps += b.Mmaps
	a.Munmaps += b.Munmaps
	a.Faults += b.Faults
	a.DemandPages += b.DemandPages
	a.Reservations += b.Reservations
	a.FallbackBlocks += b.FallbackBlocks
	a.Promotions += b.Promotions
	a.PageMerges += b.PageMerges
	a.Compactions += b.Compactions
	a.RelocatedPages += b.RelocatedPages
	a.ZeroedPages += b.ZeroedPages
	a.SysCycles += b.SysCycles
	a.Cow.Clones += b.Cow.Clones
	a.Cow.Faults += b.Cow.Faults
	a.Cow.CopiedPages += b.Cow.CopiedPages
	a.Cow.SplitPages += b.Cow.SplitPages
	return a
}

// addRMM sums Range TLB stat blocks.
func addRMM(a, b rmm.Stats) rmm.Stats {
	a.Lookups += b.Lookups
	a.Hits += b.Hits
	a.TableFills += b.TableFills
	a.TableRefs += b.TableRefs
	a.Misses += b.Misses
	return a
}

// addCoLT sums coalescing stat blocks.
func addCoLT(a, b colt.Stats) colt.Stats {
	a.Fills += b.Fills
	a.Coalesced += b.Coalesced
	a.PagesSpanned += b.PagesSpanned
	return a
}

// The SMT scheduler's constants. Each sibling hands its references over
// in chunks of smtChunk, with up to smtDepth events queued ahead of the
// scheduler: a few chunks of slack, so neither side waits out the other's
// short stalls (a generator's mmap, the scheduler's fault), while a
// sibling's buffers stay at smtBuffers × smtChunk references (48 KB). The
// scheduler runs smtQuantum references of one sibling per turn. Only
// smtQuantum shapes the modeled interleave.
const (
	smtQuantum = 8
	smtChunk   = 512
	smtDepth   = 4
	// smtBuffers chunk buffers per sibling: one being filled, smtDepth
	// queued and one being consumed, so a producer never waits for a
	// buffer while the scheduler waits for its events.
	smtBuffers = smtDepth + 2
)

// runSMT interleaves two copies of the workload (seeds s and s+1000)
// through one machine in fixed quanta of smtQuantum references, modeling
// an SMT sibling competing for TLB resources (Figs. 2 and 14). Each
// producer runs its generator in a goroutine and sends its events in
// production order on its own buffered channel: chunks of references,
// mmap requests (which wait for the scheduler's reply) and its main-phase
// marker. The scheduler takes each sibling's events in that order and
// serves them at the same point of the interleave whatever the producers'
// timing, so the interleave is a pure function of the two event sequences.
// When a run aborts (a failed reference, mmap or generator on either
// sibling, or cancellation), the shared quit channel releases any
// producer blocked on a send, a free buffer or an mmap reply, and both
// producers are joined before returning — no goroutine outlives the run.
func runSMT(w workload.Workload, m *machine, counter *trace.CountingSink, opts Options) error {
	quit := make(chan struct{})
	threads := [2]*smtThread{
		startSMTThread(w, opts.Seed, opts.Refs/2, quit),
		startSMTThread(w, opts.Seed+1000, opts.Refs/2, quit),
	}
	// fail aborts the run: once quit is closed, each producer still
	// running is guaranteed to finish, close its event channel and report
	// on done (errSMTAborted, the scheduler's doing), and is reaped here.
	fail := func(err error) error {
		close(quit)
		for _, t := range threads {
			if !t.ended {
				for range t.events { // discard queued events, then the close
				}
				<-t.done
			}
		}
		return err
	}
	live := 2
	mainAnnounced := 0
	var batched uint64 // refs delivered this round, for the telemetry hook
	for live > 0 {
		// One cancellation poll per scheduling round (2 × smtQuantum
		// refs): a canceled SMT run aborts through the same quit-channel
		// path as a failed one, joining both producers before returning.
		// The telemetry hook fires at the same granularity.
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
			for q := 0; q < smtQuantum && !t.ended; {
				if len(t.cur) > 0 {
					refs := t.cur[:min(smtQuantum-q, len(t.cur))]
					t.cur = t.cur[len(refs):]
					counter.Count(refs)
					batched += uint64(len(refs))
					if err := m.refsAs(i, refs); err != nil {
						return fail(err)
					}
					q += len(refs)
					continue
				}
				if t.chunk != nil {
					t.free <- t.chunk[:0] // spent: never blocks, free holds every buffer
					t.chunk = nil
				}
				ev, ok := <-t.events
				switch {
				case !ok:
					t.ended = true
					live--
					// The producer reports right after the close. A failed
					// generator fails the run at once.
					if err := <-t.done; err != nil {
						return fail(err)
					}
				case ev.reply != nil:
					base, err := m.mmapAs(i, ev.size)
					if err != nil {
						return fail(err)
					}
					ev.reply <- base
				case ev.main:
					// Measurement starts once both siblings reach their
					// main phase.
					mainAnnounced++
					if mainAnnounced == 2 {
						trace.AnnouncePhase(counter, trace.MainPhase)
					}
				default:
					t.chunk, t.cur = ev.refs, ev.refs
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
	return nil
}

// smtThread is one SMT sibling: the channels its producer and the
// scheduler share, and the scheduler's cursor into its stream.
type smtThread struct {
	events chan smtEvent    // the sibling's events, in production order
	free   chan []trace.Ref // empty chunk buffers, back to the producer
	done   chan error
	quit   chan struct{} // closed by the scheduler to abandon the run

	// Scheduler side only.
	chunk []trace.Ref // the chunk being consumed, returned to free when spent
	cur   []trace.Ref // its references not yet run
	ended bool        // events closed: the sibling's stream is over
}

// smtEvent is one event of a sibling's stream: a chunk of references, an
// mmap request, or the main-phase marker.
type smtEvent struct {
	refs  []trace.Ref
	size  uint64         // mmap request: the mapping size
	reply chan addr.Virt // mmap request: receives the mapping's base
	main  bool           // the sibling reached its main phase
}

// errSMTAborted is returned into a producer whose run the scheduler
// abandoned; it never leaves runSMT, which has already failed the run
// with the original error.
var errSMTAborted = errors.New("sim: smt run aborted")

// startSMTThread launches the workload generator as a producer feeding
// the scheduler, with smtBuffers chunk buffers carved from one array.
func startSMTThread(w workload.Workload, seed int64, refs uint64, quit chan struct{}) *smtThread {
	t := &smtThread{
		events: make(chan smtEvent, smtDepth),
		free:   make(chan []trace.Ref, smtBuffers),
		done:   make(chan error, 1),
		quit:   quit,
	}
	pool := make([]trace.Ref, smtBuffers*smtChunk)
	for i := 1; i < smtBuffers; i++ {
		t.free <- pool[i*smtChunk : i*smtChunk : (i+1)*smtChunk]
	}
	go func() {
		s := &smtSink{t: t, buf: pool[:0:smtChunk]}
		err := w.Run(s, refs, seed)
		// References buffered before the generator returned still run,
		// as they would have one by one.
		if ferr := s.flush(); err == nil {
			err = ferr
		}
		close(t.events)
		t.done <- err
	}()
	return t
}

// smtSink adapts one SMT thread's workload callbacks onto the scheduler's
// event channel. Every blocking operation pairs with the quit channel so
// an abandoned producer unblocks instead of leaking.
type smtSink struct {
	t   *smtThread
	buf []trace.Ref // references not yet sent
}

// Ref implements trace.Sink: buffer the reference, sending the buffer as
// one event when it is full.
func (s *smtSink) Ref(r trace.Ref) error {
	s.buf = append(s.buf, r)
	if len(s.buf) == smtChunk {
		return s.flush()
	}
	return nil
}

// flush sends the buffered references as one event and takes an empty
// buffer from the free list.
func (s *smtSink) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	err := s.send(smtEvent{refs: s.buf})
	if err == nil {
		select {
		case s.buf = <-s.t.free:
			return nil
		case <-s.t.quit:
			err = errSMTAborted
		}
	}
	s.buf = nil // the scheduler may hold it
	return err
}

// send queues one event unless the scheduler has abandoned the run.
func (s *smtSink) send(ev smtEvent) error {
	// Quit first: with room in the channel, a select would pick the send
	// at random even after quit.
	select {
	case <-s.t.quit:
		return errSMTAborted
	default:
	}
	select {
	case s.t.events <- ev:
		return nil
	case <-s.t.quit:
		return errSMTAborted
	}
}

// Mmap implements trace.Sink: flush the buffered references, then wait
// for the scheduler to serve the request at this point of the stream.
func (s *smtSink) Mmap(size uint64) (addr.Virt, error) {
	if err := s.flush(); err != nil {
		return 0, err
	}
	// The reply channel is buffered so the scheduler's response can never
	// block, even if this producer has already been quit.
	ev := smtEvent{size: size, reply: make(chan addr.Virt, 1)}
	if err := s.send(ev); err != nil {
		return 0, err
	}
	select {
	case base := <-ev.reply:
		return base, nil
	case <-s.t.quit:
		return 0, errSMTAborted
	}
}

func (s *smtSink) Munmap(base addr.Virt) error {
	return fmt.Errorf("sim: munmap unsupported under SMT")
}

// Phase implements trace.PhaseSink: the main-phase marker follows the
// references buffered before it. The scheduler acts on no other phase.
func (s *smtSink) Phase(name string) {
	if name != trace.MainPhase {
		return
	}
	// An aborted run fails the generator's next reference or mmap.
	if s.flush() == nil {
		_ = s.send(smtEvent{main: true})
	}
}
