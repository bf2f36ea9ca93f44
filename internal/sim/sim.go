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
	"reflect"
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
// hardware-thread MMU context, and what its scheme attached.
type proc struct {
	kernel *vmm.Kernel
	mmu    *mmu.MMU
	att    scheme.Attachment

	base counters // captured at the main-phase boundary
}

// counters is one proc's counter snapshot: the stat blocks of its MMU, its
// kernel, and the range TLB and coalescer its scheme may have attached.
// Its fields are exported because counters.add sets them by reflection.
type counters struct {
	MMU  mmu.Stats
	OS   vmm.Stats
	RMM  rmm.Stats
	CoLT colt.Stats
}

// counters snapshots the proc's counters.
func (p *proc) counters() counters {
	c := counters{MMU: p.mmu.Stats(), OS: p.kernel.Stats()}
	if p.att.RangeTLB != nil {
		c.RMM = p.att.RangeTLB.Stats()
	}
	if p.att.Coalescer != nil {
		c.CoLT = p.att.Coalescer.Stats()
	}
	return c
}

// add adds o to c counter by counter, or subtracts it when neg is set.
func (c *counters) add(o counters, neg bool) {
	addFields(reflect.ValueOf(c).Elem(), reflect.ValueOf(o), neg)
}

// addFields adds every uint64 of src to the same one of dst, or subtracts
// it when neg is set, through nested structs and arrays.
func addFields(dst, src reflect.Value, neg bool) {
	switch dst.Kind() {
	case reflect.Uint64:
		if neg {
			dst.SetUint(dst.Uint() - src.Uint())
		} else {
			dst.SetUint(dst.Uint() + src.Uint())
		}
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addFields(dst.Field(i), src.Field(i), neg)
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			addFields(dst.Index(i), src.Index(i), neg)
		}
	default:
		panic(fmt.Sprintf("sim: counter of kind %s", dst.Kind()))
	}
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

	refsSeen uint64 // references run, across SMT siblings (compaction daemon)

	// touched holds the Results of one touchAs chunk for pricing
	// (trace.BatchSize entries; nil without the cycle model).
	touched []mmu.Result

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
		p.base = p.counters()
	}
	m.baseWalker = m.walkerCycles
	if m.real != nil {
		m.cyclesWarmup = m.real.Cycles()
		m.real = cpu.New(cpu.DefaultParams())
		m.pl2 = cpu.New(cpu.DefaultParams())
		m.ideal = cpu.New(cpu.DefaultParams())
	}
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
		p.att = sch.Attach(p.kernel)
		p.mmu = mmu.NewThread(m.hw, p.kernel.Table(), uint16(i), p.att.Sidecar, p.att.Fill)
		p.kernel.AttachMMU(p.mmu)
		m.procs = append(m.procs, p)
	}

	if opts.CycleModel {
		m.caches = cache.NewHierarchy()
		m.real = cpu.New(cpu.DefaultParams())
		m.pl2 = cpu.New(cpu.DefaultParams())
		m.ideal = cpu.New(cpu.DefaultParams())
		m.touched = make([]mmu.Result, trace.BatchSize)
	}
	// The probe closure is bound once here, never per sample.
	m.sampler = newSeriesSampler(opts.SeriesEvery, m.sampleInto)
	return m
}

// Mmap implements trace.Sink (thread 0).
func (m *machine) Mmap(size uint64) (addr.Virt, error) { return m.mmapAs(0, size) }

// Munmap implements trace.Sink (thread 0).
func (m *machine) Munmap(base addr.Virt) error { return m.procs[0].kernel.Munmap(base) }

// Ref implements trace.Sink (thread 0) as a batch of one.
func (m *machine) Ref(r trace.Ref) error {
	if err := m.refsAs(0, []trace.Ref{r}); err != nil {
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
// failure: the per-thread loop behind RefBatch and each SMT quantum. It
// runs them in chunks between the compaction daemon's ticks.
func (m *machine) refsAs(t int, refs []trace.Ref) error {
	p := m.procs[t]
	for len(refs) > 0 {
		chunk := refs[:m.tick(uint64(len(refs)))]
		refs = refs[len(chunk):]
		if m.caches != nil {
			for i := range chunk {
				if err := m.refAs(t, chunk[i]); err != nil {
					return err
				}
			}
			continue
		}
		// Functional mode does nothing per reference beyond the
		// translation itself, so drive the MMU straight from the slice
		// through the Result-free Access fast path.
		for i := range chunk {
			if err := p.mmu.Access(chunk[i].Addr, chunk[i].Write); err != nil {
				if _, err = p.kernel.Resolve(chunk[i].Addr, chunk[i].Write, mmu.Result{}, err); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Touch implements trace.TouchSink (thread 0), one chunk of
// trace.BatchSize pages per cancellation poll, OnRefs call and sampler
// advance, so they keep RefBatch's granularity. touchAs runs each chunk.
func (m *machine) Touch(base addr.Virt, size uint64, gap uint32) error {
	for pages := trace.TouchRefs(size); pages > 0; {
		n := min(pages, trace.BatchSize)
		if err := m.ctxErr(); err != nil {
			return err
		}
		if m.opts.OnRefs != nil {
			m.opts.OnRefs(n)
		}
		if err := m.touchAs(0, base, n, gap); err != nil {
			return err
		}
		m.sampler.advance(n)
		base += addr.Virt(n * addr.BasePageSize)
		pages -= n
	}
	return nil
}

// touchAs performs thread t's first-touch writes of n <= trace.BatchSize
// base pages from base, each with the given gap: the one path of every
// warm-up sweep, whole chunks from Touch and SMT quanta from runSMT. The
// kernel runs the pages between the compaction daemon's ticks as page
// loops (vmm.Kernel.TouchPages); with the cycle model it reports each
// page's Result, which is then priced as refAs prices it.
func (m *machine) touchAs(t int, base addr.Virt, n uint64, gap uint32) error {
	for n > 0 {
		k := m.tick(n)
		var out []mmu.Result
		if m.caches != nil {
			out = m.touched[:k]
		}
		if err := m.procs[t].kernel.TouchPages(base, k, out); err != nil {
			return err
		}
		for i := range out {
			m.price(trace.Ref{Addr: base + addr.Virt(uint64(i)*addr.BasePageSize), Write: true, Gap: gap}, out[i])
		}
		base += addr.Virt(k * addr.BasePageSize)
		n -= k
	}
	return nil
}

// tick grants up to n of the references that follow: as many as may run
// before the compaction daemon's next tick, which it counts as run. A tick
// lands before every CompactEvery-th reference, counted across SMT
// siblings, and when one falls before the next reference the daemon runs
// first. The reference loops call it once per chunk.
func (m *machine) tick(n uint64) uint64 {
	every := m.opts.CompactEvery
	if every == 0 {
		return n
	}
	phase := (m.refsSeen + 1) % every
	if phase == 0 {
		// The incremental daemon defragments, re-homes fragmented
		// reservations into whole blocks (guided compaction, §IV-B),
		// then grows pages whose frames became adjacent (merge-aware
		// compaction, §III-B3).
		for _, p := range m.procs {
			p.kernel.Compact()
			p.kernel.ConsolidateReservations()
			p.kernel.MergePages()
		}
	}
	n = min(n, every-phase)
	m.refsSeen += n
	return n
}

func (m *machine) mmapAs(t int, size uint64) (addr.Virt, error) {
	return m.procs[t].kernel.Mmap(size, 0)
}

// refAs translates thread t's reference (faulting as needed), then prices
// it under each timing scenario (cycle model only).
func (m *machine) refAs(t int, r trace.Ref) error {
	res, err := m.procs[t].kernel.Access(r.Addr, r.Write)
	if err != nil {
		return err
	}
	if m.caches != nil {
		m.price(r, res)
	}
	return nil
}

// price charges reference r, translated as res, to the cache hierarchy and
// the three timing scenarios (cycle model only).
func (m *machine) price(r trace.Ref, res mmu.Result) {
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

// collect builds the run's Result. Hardware counters cover the main phase
// (each proc's counters less its snapshot at the boundary) and OS counters
// the whole run; SMT siblings' counters add up.
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
	var main, whole counters
	for _, p := range m.procs {
		now := p.counters()
		whole.add(now, false)
		main.add(now, false)
		main.add(p.base, true)
		for o, n := range p.kernel.PageSizeCensus() {
			r.Census[o] += n
		}
		r.MappedPages += p.kernel.MappedBasePages()
		r.ReservedPages += p.kernel.ReservedBasePages()
		r.PTEWrites += p.kernel.Table().Stats().PTEWrites
	}
	r.MMU, r.RMM, r.CoLT, r.OS = main.MMU, main.RMM, main.CoLT, whole.OS
	r.DemandPages = whole.OS.DemandPages
	r.SysCyclesMain = main.OS.SysCycles
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
	return r
}

// smtQuantum is the SMT scheduler's turn: it runs this many references of
// one sibling, then the other's. It alone shapes the modeled interleave.
const smtQuantum = 8

// runSMT interleaves two copies of the workload (seeds s and s+1000)
// through one machine in fixed quanta of smtQuantum references, modeling
// an SMT sibling competing for TLB resources (Figs. 2 and 14). Each
// sibling's generator runs in a producer goroutine behind a trace.Batcher
// and hands over one event at a time: a batch of references, a warm-up
// sweep, an mmap request or its main-phase marker. It then waits until
// the scheduler pulls its next event, so a producer never runs alongside
// the scheduler, the Batcher reuses its buffer only once the scheduler has
// run all of it, and the interleave is a pure function of the two event
// sequences. A quantum of a sweep runs through machine.touchAs, so the
// shared TLB sees the same interleave as if each page came as a reference.
// However the run ends, the deferred stops end both producers before
// runSMT returns.
func runSMT(w workload.Workload, m *machine, counter *trace.CountingSink, opts Options) error {
	threads := [2]*smtThread{
		startSMTThread(w, opts.Seed, opts.Refs/2),
		startSMTThread(w, opts.Seed+1000, opts.Refs/2),
	}
	for _, t := range threads {
		defer t.stop()
	}
	live := 2
	mainAnnounced := 0
	var batched uint64 // refs delivered this round, for the telemetry hook
	for live > 0 {
		// One cancellation poll per scheduling round (2 × smtQuantum
		// refs). The telemetry hook fires at the same granularity.
		if err := m.ctxErr(); err != nil {
			return err
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
				if sw := &t.sweep; sw.pages > 0 {
					n := min(uint64(smtQuantum-q), sw.pages)
					counter.CountTouch(n, sw.gap)
					batched += n
					if err := m.touchAs(i, sw.base, n, sw.gap); err != nil {
						return err
					}
					sw.base += addr.Virt(n * addr.BasePageSize)
					sw.pages -= n
					q += int(n)
					continue
				}
				if len(t.cur) > 0 {
					refs := t.cur[:min(smtQuantum-q, len(t.cur))]
					t.cur = t.cur[len(refs):]
					counter.Count(refs)
					batched += uint64(len(refs))
					if err := m.refsAs(i, refs); err != nil {
						return err
					}
					q += len(refs)
					continue
				}
				ev, ok := t.next()
				switch {
				case !ok:
					live--
					// A failed generator fails the run at once.
					if t.err != nil {
						return t.err
					}
				case ev.main:
					// Measurement starts once both siblings reach their
					// main phase.
					mainAnnounced++
					if mainAnnounced == 2 {
						trace.AnnouncePhase(counter, trace.MainPhase)
					}
				case ev.refs != nil:
					t.cur = ev.refs
				case ev.sweep.pages > 0:
					t.sweep = ev.sweep
				default:
					base, err := m.mmapAs(i, ev.size)
					if err != nil {
						return err
					}
					t.base = base
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
// scheduler share, the fields each hands the other, and the scheduler's
// cursor into its stream.
type smtThread struct {
	events chan smtEvent // the producer's next event
	resume chan bool     // true runs the producer to its next event, false stops it
	err    error         // the generator's error, written before events closes
	base   addr.Virt     // the last mmap's base, written before the producer resumes

	// Scheduler side only.
	cur   []trace.Ref // the current batch's references not yet run
	sweep smtSweep    // the current sweep's pages not yet run
	ended bool        // events closed: the producer has returned
}

// smtEvent is one event of a sibling's stream: a batch of references, a
// sweep, the main-phase marker, or else an mmap request.
type smtEvent struct {
	refs  []trace.Ref
	sweep smtSweep
	main  bool
	size  uint64 // mmap request: the mapping size
}

// smtSweep is a first-touch sweep: one write per base page from base.
type smtSweep struct {
	base  addr.Virt
	pages uint64
	gap   uint32
}

// errSMTAborted is returned into a producer that the scheduler stopped; it
// never leaves runSMT, which is already returning the run's own error.
var errSMTAborted = errors.New("sim: smt run aborted")

// startSMTThread launches the workload generator as a producer. It waits
// for the scheduler's first pull before it runs.
func startSMTThread(w workload.Workload, seed int64, refs uint64) *smtThread {
	t := &smtThread{events: make(chan smtEvent), resume: make(chan bool)}
	go func() {
		defer close(t.events)
		if !<-t.resume {
			return
		}
		b := trace.NewBatcher(&smtSink{t: t})
		err := w.Run(b, refs, seed)
		if err == nil {
			// References batched before the generator returned still
			// run, as they would have one by one.
			err = b.Flush()
		}
		t.err = err
	}()
	return t
}

// next runs the producer to its next event and takes it; ok is false once
// the producer has returned.
func (t *smtThread) next() (ev smtEvent, ok bool) {
	t.resume <- true
	ev, ok = <-t.events
	t.ended = !ok
	return ev, ok
}

// stop ends a producer that has not returned: it answers false and drains
// events until the producer closes it.
func (t *smtThread) stop() {
	if t.ended {
		return
	}
	t.resume <- false
	for range t.events {
	}
}

// smtSink hands one SMT sibling's events to the scheduler, one at a time.
// A trace.Batcher in front of it batches the generator's references and
// forwards each warm-up sweep whole.
type smtSink struct {
	t       *smtThread
	stopped bool // the scheduler answered false: every later event fails
}

// yield hands ev to the scheduler and waits until it pulls the next one.
func (s *smtSink) yield(ev smtEvent) error {
	if s.stopped {
		return errSMTAborted
	}
	s.t.events <- ev
	if !<-s.t.resume {
		s.stopped = true
		return errSMTAborted
	}
	return nil
}

// RefBatch implements trace.BatchSink. The scheduler has run every
// reference of the batch by the time it returns.
func (s *smtSink) RefBatch(refs []trace.Ref) error {
	if len(refs) == 0 {
		return nil
	}
	return s.yield(smtEvent{refs: refs})
}

// Touch implements trace.TouchSink. The scheduler has run every page of
// the sweep by the time it returns.
func (s *smtSink) Touch(base addr.Virt, size uint64, gap uint32) error {
	pages := trace.TouchRefs(size)
	if pages == 0 {
		return nil
	}
	return s.yield(smtEvent{sweep: smtSweep{base: base, pages: pages, gap: gap}})
}

// Ref implements trace.Sink as a batch of one.
func (s *smtSink) Ref(r trace.Ref) error {
	return s.RefBatch([]trace.Ref{r})
}

// Mmap implements trace.Sink: the scheduler serves the request at this
// point of the stream.
func (s *smtSink) Mmap(size uint64) (addr.Virt, error) {
	if err := s.yield(smtEvent{size: size}); err != nil {
		return 0, err
	}
	return s.t.base, nil
}

func (s *smtSink) Munmap(base addr.Virt) error {
	return fmt.Errorf("sim: munmap unsupported under SMT")
}

// Phase implements trace.PhaseSink. The scheduler acts on no phase but
// the main one.
func (s *smtSink) Phase(name string) {
	if name == trace.MainPhase {
		// A stopped producer fails its generator's next reference or mmap.
		_ = s.yield(smtEvent{main: true})
	}
}
