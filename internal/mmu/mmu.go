// Package mmu composes the translation hardware the paper models: the
// split L1 TLBs (with the TPS any-size TLB when enabled, §III-A2), the
// unified L2 STLB, the paging-structure (MMU) caches, and the hardware page
// walker with the alias-PTE extra access (Fig. 6). It also models the
// nested (two-dimensional) walks of virtualized execution used by Fig. 2.
//
// The MMU is the single entry point the simulator drives: every memory
// access calls Translate, which performs the full L1 -> L2 -> walk flow and
// accumulates the hit/miss/walk-reference statistics the evaluation
// reports.
package mmu

import (
	"fmt"

	"tps/internal/addr"
	"tps/internal/pagetable"
	"tps/internal/pte"
	"tps/internal/tlb"
)

// Organization selects the L1 TLB arrangement.
type Organization int

const (
	// OrgConventional is the Skylake-like baseline: split 4K/2M/1G L1s.
	OrgConventional Organization = iota
	// OrgTPS replaces the 2M and 1G L1 TLBs with the 32-entry fully
	// associative any-page-size TPS TLB (§III-A2). The 64-entry 4K L1 is
	// retained.
	OrgTPS
	// OrgCoLT keeps the conventional arrangement but allows the 4K L1 to
	// hold coalesced entries of orders 0..3 (up to 8 contiguous pages),
	// modeling CoLT-SA [46]. The fill policy performs the coalescing.
	OrgCoLT
)

// String names the organization.
func (o Organization) String() string {
	switch o {
	case OrgTPS:
		return "tps"
	case OrgCoLT:
		return "colt"
	default:
		return "conventional"
	}
}

// Config sizes every structure. DefaultConfig matches Table I.
type Config struct {
	Org Organization

	// L1 geometry.
	L14KSets, L14KWays int // 64-entry 4 KB L1: 16x4
	L12MSets, L12MWays int // 32-entry 2 MB L1: 8x4 (conventional only)
	L11GEntries        int // 4-entry 1 GB L1, fully associative
	TPSTLBEntries      int // 32-entry any-size TPS TLB (OrgTPS only)
	// TPSTLBSkewed selects the skewed-associative any-size organization
	// instead of fully associative (§III-A2's alternative).
	TPSTLBSkewed bool

	// STLB geometry. With OrgTPS the unified STLB accepts every order
	// (the paper leaves the L2 unchanged; a multi-size-indexable L2 is
	// the minimal realization that can hold tailored entries at all).
	STLBSets, STLBWays     int // 1536-entry 4K/2M: 128x12
	STLB1GSets, STLB1GWays int // 16-entry 1G: 4x4

	// Paging-structure cache sizes (entries; 0 disables that cache).
	PWCPDE, PWCPDPTE, PWCPML4 int

	// Levels is the page-table depth (4 or 5).
	Levels int

	// TransCache sizes the software translation cache in front of the
	// modeled hierarchy (see transcache.go): 0 selects the default size,
	// a negative value disables it, a positive value is rounded up to a
	// power of two. Purely a simulator fast path — every reported stat is
	// bit-identical at any setting.
	TransCache int

	// Virtualized enables two-dimensional nested walk accounting: each
	// guest page-table reference expands to a 4-level host walk plus
	// itself, and the final guest PA costs one more host walk (Fig. 2's
	// third case).
	Virtualized bool
}

// DefaultConfig returns the Table I hierarchy for the given organization.
func DefaultConfig(org Organization) Config {
	return Config{
		Org:      org,
		L14KSets: 16, L14KWays: 4,
		L12MSets: 8, L12MWays: 4,
		L11GEntries:   4,
		TPSTLBEntries: 32,
		STLBSets:      128, STLBWays: 12,
		STLB1GSets: 4, STLB1GWays: 4,
		PWCPDE: 32, PWCPDPTE: 16, PWCPML4: 16,
		Levels: addr.Levels4,
	}
}

// Sidecar is an alternative L2-level translation source looked up in
// parallel with the STLB on an L1 miss — the hook RMM's Range TLB plugs
// into (§V: "the L2 TLB and Range TLB are looked up in parallel").
type Sidecar interface {
	// Lookup returns an L1-installable entry for the vpn if it can
	// translate it.
	Lookup(vpn addr.VPN) (tlb.Entry, bool)
	// Name identifies the sidecar in reports.
	Name() string
}

// FillPolicy transforms a completed walk into the entry installed in the
// L1. The default installs exactly the walked page; CoLT installs a
// coalesced cluster.
type FillPolicy func(res pagetable.WalkResult) tlb.Entry

// Stats aggregates the translation counters the evaluation reports.
type Stats struct {
	Accesses uint64 // total translations requested

	L1Hits   uint64
	L1Misses uint64 // the paper's "L1 DTLB misses"

	STLBHits    uint64
	STLBMisses  uint64
	SidecarHits uint64 // RMM Range-TLB hits

	Walks       uint64 // page walks performed
	WalkRefs    uint64 // page-walk memory references after PWC skipping
	AliasExtras uint64 // alias-PTE extra accesses within WalkRefs
	NestedRefs  uint64 // additional refs charged by 2-D nested walking

	PWCHits [4]uint64 // hits per non-leaf level (index = level)

	ADWrites uint64 // in-memory A/D update stores
}

// L1MissRatePerAccess returns L1 misses / accesses.
func (s Stats) L1MissRatePerAccess() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.Accesses)
}

// Hardware is the physical translation machinery: TLBs and
// paging-structure caches. Hardware threads of one core (SMT siblings)
// share a Hardware instance while owning distinct address spaces; entries
// are then distinguished by address-space identifiers folded into the tag,
// exactly as PCID-tagged hardware TLBs do.
type Hardware struct {
	cfg Config

	l14k  *tlb.SetAssoc
	l12m  *tlb.SetAssoc   // conventional/CoLT orgs
	l11g  *tlb.FullyAssoc // conventional/CoLT orgs
	tpsL1 tlb.TLB         // TPS org: fully associative or skewed-associative
	tpsFA *tlb.FullyAssoc // tpsL1 devirtualized when fully associative

	stlb   *tlb.SetAssoc
	stlb1g *tlb.SetAssoc

	pwc [5]*PWCache // index = level (1..levels-1 populated)

	// tc is the software translation cache (nil when disabled or when the
	// organization has no cacheable L1 structure). Shared like the TLBs:
	// its tags are ASID-folded, so SMT siblings coexist.
	tc *transCache
}

// NewHardware builds the TLB and PWC structures for a configuration.
func NewHardware(cfg Config) *Hardware {
	if cfg.Levels == 0 {
		cfg.Levels = addr.Levels4
	}
	h := &Hardware{cfg: cfg}

	switch cfg.Org {
	case OrgTPS:
		h.l14k = tlb.NewSetAssoc("L1D-4K", cfg.L14KSets, cfg.L14KWays, 0)
		if cfg.TPSTLBSkewed {
			// The §III-A2 skewed-associative alternative: 4 ways.
			sets := cfg.TPSTLBEntries / 4
			if sets < 1 {
				sets = 1
			}
			h.tpsL1 = tlb.NewSkewed("L1D-TPS-skewed", 4, sets)
		} else {
			h.tpsFA = tlb.NewFullyAssoc("L1D-TPS", cfg.TPSTLBEntries)
			h.tpsL1 = h.tpsFA
		}
	case OrgCoLT:
		// CoLT-SA: each L1 holds clusters of 1..8 contiguous same-size
		// pages (4K clusters in the 4K TLB, 2M clusters in the 2M TLB).
		h.l14k = tlb.NewSetAssoc("L1D-CoLT", cfg.L14KSets, cfg.L14KWays, 0, 1, 2, 3)
		h.l12m = tlb.NewSetAssoc("L1D-2M", cfg.L12MSets, cfg.L12MWays,
			addr.Order2M, addr.Order2M+1, addr.Order2M+2, addr.Order2M+3)
		h.l11g = tlb.NewFullyAssoc("L1D-1G", cfg.L11GEntries)
	default:
		h.l14k = tlb.NewSetAssoc("L1D-4K", cfg.L14KSets, cfg.L14KWays, 0)
		h.l12m = tlb.NewSetAssoc("L1D-2M", cfg.L12MSets, cfg.L12MWays, addr.Order2M)
		h.l11g = tlb.NewFullyAssoc("L1D-1G", cfg.L11GEntries)
	}

	stlbOrders := []addr.Order{0, addr.Order2M}
	if cfg.Org == OrgTPS {
		stlbOrders = allOrdersBelow1G()
	} else if cfg.Org == OrgCoLT {
		stlbOrders = []addr.Order{0, 1, 2, 3,
			addr.Order2M, addr.Order2M + 1, addr.Order2M + 2, addr.Order2M + 3}
	}
	h.stlb = tlb.NewSetAssoc("STLB", cfg.STLBSets, cfg.STLBWays, stlbOrders...)
	h.stlb1g = tlb.NewSetAssoc("STLB-1G", cfg.STLB1GSets, cfg.STLB1GWays, addr.Order1G)

	if cfg.PWCPDE > 0 {
		h.pwc[1] = NewPWCache(1, cfg.PWCPDE)
	}
	if cfg.PWCPDPTE > 0 {
		h.pwc[2] = NewPWCache(2, cfg.PWCPDPTE)
	}
	if cfg.PWCPML4 > 0 {
		h.pwc[3] = NewPWCache(3, cfg.PWCPML4)
		if cfg.Levels == addr.Levels5 {
			h.pwc[4] = NewPWCache(4, cfg.PWCPML4)
		}
	}

	// CoLT's multi-size L1s have no cacheable provenance (a tag compare
	// alone cannot identify a cluster), so the cache would never fill.
	if cfg.TransCache >= 0 && cfg.Org != OrgCoLT {
		n := cfg.TransCache
		if n == 0 {
			n = defaultTransCacheEntries
		}
		h.tc = newTransCache(n)
	}
	return h
}

// MMU is one hardware thread's translation context: shared (or private)
// Hardware bound to one address space's page table under one ASID.
type MMU struct {
	cfg   Config
	hw    *Hardware
	table *pagetable.Table
	asid  uint16

	sidecar Sidecar
	fill    FillPolicy

	stats Stats

	// tcServes counts translation-cache fast-path serves. Observability
	// only (the epoch time-series): deliberately outside Stats, because
	// Stats — and therefore Result — must stay bit-identical with the
	// cache on or off (the reconciliation invariant in transcache.go).
	tcServes uint64
}

// asidShift places the ASID above every translated virtual-address bit, so
// TLB and PWC tags become {ASID, VPN} concatenations.
const asidShift = 58 - addr.BasePageShift

// tagVPN folds the MMU's ASID into a VPN tag.
func (m *MMU) tagVPN(vpn addr.VPN) addr.VPN {
	return vpn | addr.VPN(m.asid)<<asidShift
}

// tagVirt folds the ASID into a virtual address for PWC keying.
func (m *MMU) tagVirt(v addr.Virt) addr.Virt {
	return v | addr.Virt(m.asid)<<58
}

// tagEntry returns the entry with its VPN tag extended by the ASID.
func (m *MMU) tagEntry(e tlb.Entry) tlb.Entry {
	e.VPN = m.tagVPN(e.VPN)
	return e
}

// untagVPN strips the ASID bits, recovering the architectural VPN.
func untagVPN(vpn addr.VPN) addr.VPN {
	return vpn & (addr.VPN(1)<<asidShift - 1)
}

// ASID returns this MMU's address-space identifier.
func (m *MMU) ASID() uint16 { return m.asid }

// New builds an MMU with private hardware over the given page table
// (ASID 0). sidecar and fill may be nil.
func New(cfg Config, table *pagetable.Table, sidecar Sidecar, fill FillPolicy) *MMU {
	return NewThread(NewHardware(cfg), table, 0, sidecar, fill)
}

// NewThread builds an MMU sharing existing Hardware, for SMT siblings and
// context-switched processes. Each distinct address space must use a
// distinct ASID.
func NewThread(hw *Hardware, table *pagetable.Table, asid uint16, sidecar Sidecar, fill FillPolicy) *MMU {
	if table.Levels() != hw.cfg.Levels {
		panic(fmt.Sprintf("mmu: table depth %d != config depth %d", table.Levels(), hw.cfg.Levels))
	}
	return &MMU{cfg: hw.cfg, hw: hw, table: table, asid: asid, sidecar: sidecar, fill: fill}
}

func allOrdersBelow1G() []addr.Order {
	out := make([]addr.Order, 0, addr.MaxOrder+1)
	for o := addr.Order(0); o <= addr.MaxOrder; o++ {
		out = append(out, o)
	}
	return out
}

// Stats returns a copy of the counters.
func (m *MMU) Stats() Stats { return m.stats }

// TransCacheServes returns the number of translations the software
// translation cache short-circuited. Not part of Stats (see the tcServes
// field comment); consumed by the series sampler.
func (m *MMU) TransCacheServes() uint64 { return m.tcServes }

// Table returns the page table this MMU translates through.
func (m *MMU) Table() *pagetable.Table { return m.table }

// Config returns the MMU's configuration.
func (m *MMU) Config() Config { return m.cfg }

// Result describes one translation.
type Result struct {
	Phys     addr.Phys
	Order    addr.Order
	L1Hit    bool
	STLBHit  bool
	Sidecar  bool // satisfied by the RMM Range TLB
	Walked   bool
	WalkRefs int // memory references this translation's walk cost
	ADWrite  bool
}

// Translate performs the full translation flow for a data access. The
// steady-state paths (translation-cache serve, L1 hit, STLB hit) build
// the Result in a single local mutated in place and allocate nothing.
func (m *MMU) Translate(v addr.Virt, write bool) (Result, error) {
	tvpn := m.tagVPN(v.PageNumber())

	// Front line: the software translation cache replays the full flow's
	// exact stat effects for verified repeat hits (transcache.go).
	if m.hw.tc != nil {
		if e := m.serveTC(tvpn, write); e != nil {
			return Result{
				Phys:  e.pfn.Addr() + addr.Phys(v.Offset(0)),
				Order: addr.Order(e.order),
				L1Hit: true,
			}, nil
		}
	}
	return m.translateMissed(v, tvpn, write)
}

// translateMissed is the Translate flow past the translation cache (tvpn
// already computed, serve already missed or disabled).
func (m *MMU) translateMissed(v addr.Virt, tvpn addr.VPN, write bool) (Result, error) {
	m.stats.Accesses++

	// L1: the split structures are probed in parallel in hardware.
	if e, prov, way, hit := m.lookupL1(tvpn); hit {
		var r Result
		m.stats.L1Hits++
		r.L1Hit = true
		err := m.finishHit(v, tvpn, e, &r, write, prov, way)
		return r, err
	}
	m.stats.L1Misses++

	// L2: STLB (both parts), plus the sidecar (Range TLB) in parallel.
	if e, hit := m.lookupSTLB(tvpn); hit {
		var r Result
		m.stats.STLBHits++
		// The fill policy shapes L1 fills from the STLB too: CoLT
		// coalesces on every fill, probing the neighbouring (cached)
		// PTEs. Fill policies see architectural (untagged) VPNs.
		if m.fill != nil {
			e = m.tagEntry(m.fill(pagetable.WalkResult{
				VPN: untagVPN(e.VPN), PFN: e.PFN, Order: e.Order, Flags: e.Flags,
			}))
		}
		r.STLBHit = true
		err := m.fillL1(v, tvpn, e, &r, write)
		return r, err
	}
	m.stats.STLBMisses++
	return m.translateSTLBMissed(v, tvpn, write)
}

// RetryAfterFault translates v when no TLB or translation-cache line
// covers it, so every L1 and STLB probe of a full Translate would miss:
// it credits those misses without scanning and resumes at the sidecar
// and the walk. Every counter, TLB content and LRU order then ends as
// Translate would leave it; calling it when a line may cover v breaks
// that. The premise holds for any page that is not mapped, since no
// line ever covers an unmapped page. So it holds before a demand fault,
// for a page the kernel knows to be unmapped (the attempt then fails in
// the walk with pagetable.ErrNotMapped), and after it: servicing the
// fault installs no TLB or translation-cache state.
func (m *MMU) RetryAfterFault(v addr.Virt, write bool) (Result, error) {
	m.stats.Accesses++
	m.hw.l14k.CreditMiss()
	if m.cfg.Org == OrgTPS {
		m.hw.tpsL1.CreditMiss()
	} else {
		m.hw.l12m.CreditMiss()
		m.hw.l11g.CreditMiss()
	}
	m.stats.L1Misses++
	m.hw.stlb.CreditMiss()
	m.hw.stlb1g.CreditMiss()
	m.stats.STLBMisses++
	return m.translateSTLBMissed(v, m.tagVPN(v.PageNumber()), write)
}

// translateSTLBMissed is the miss path below the STLB: the sidecar, else
// the page walk and the STLB and L1 fills.
func (m *MMU) translateSTLBMissed(v addr.Virt, tvpn addr.VPN, write bool) (Result, error) {
	var r Result
	if m.sidecar != nil {
		if e, hit := m.sidecar.Lookup(untagVPN(tvpn)); hit {
			m.stats.SidecarHits++
			r.Sidecar = true
			err := m.fillL1(v, tvpn, m.tagEntry(e), &r, write)
			return r, err
		}
	}

	// Page walk with paging-structure cache skipping.
	res, err := m.table.Walk(v)
	if err != nil {
		return Result{}, err
	}
	refs := m.walkRefsWithPWC(v, res)
	m.stats.Walks++
	m.stats.WalkRefs += uint64(refs)
	if res.Alias && m.table.Strategy() == pagetable.ExtraLookup {
		m.stats.AliasExtras++
	}
	if m.cfg.Virtualized {
		// Two-dimensional walk: each guest reference requires a nested
		// 4-level host walk, and the final guest physical address needs
		// one more nested translation.
		nested := uint64(refs)*addr.Levels4 + addr.Levels4
		m.stats.NestedRefs += nested
	}
	m.fillPWC(v, res)

	// The STLB always stores the architectural translation; the fill
	// policy (CoLT coalescing) only shapes the L1 entry.
	identity := m.tagEntry(tlb.Entry{VPN: res.VPN, PFN: res.PFN, Order: res.Order, Flags: res.Flags})
	m.installSTLB(identity)
	r.Walked = true
	r.WalkRefs = refs
	err = m.fillL1(v, tvpn, m.tagEntry(m.entryFor(res)), &r, write)
	return r, err
}

// finishHit completes a translation that hit in the L1 and reconciles the
// software translation cache: a success records the entry's provenance, a
// failure drops the line — the L1 state may no longer match what the
// line remembers, so it must not be served until refilled.
func (m *MMU) finishHit(v addr.Virt, tvpn addr.VPN, e tlb.Entry, r *Result, write bool, prov uint8, way int) error {
	if write && e.Flags&pte.FlagWrite == 0 {
		m.dropTC(tvpn)
		return ErrWriteProtected
	}
	m.setPhys(v, tvpn, e, r)
	changed, err := m.updateAD(v, &e, r, write)
	if err != nil {
		m.dropTC(tvpn)
		return err
	}
	if changed {
		// Insert replaces in place: the resident entry takes the new flags.
		m.installL1(e)
	}
	if m.hw.tc != nil {
		m.fillTC(tvpn, e, prov, way)
	}
	return nil
}

// fillL1 installs e, an entry from the STLB, the sidecar or a walk, in
// the L1 and completes the translation through it. The A/D update runs
// first, so the L1 receives the entry once, with its final flags: that
// leaves the same contents and LRU order as inserting e and then
// refreshing it in place. The skewed TPS TLB is the exception — its
// Insert recognises a resident copy only when a lookup returns it, so
// with a stale smaller entry at the same base the refresh fills a second
// slot — and keeps both inserts. A store to a read-only page leaves e
// installed as it came and fails.
func (m *MMU) fillL1(v addr.Virt, tvpn addr.VPN, e tlb.Entry, r *Result, write bool) error {
	if write && e.Flags&pte.FlagWrite == 0 {
		m.installL1(e)
		m.dropTC(tvpn)
		return ErrWriteProtected
	}
	m.setPhys(v, tvpn, e, r)
	final := e
	changed, err := m.updateAD(v, &final, r, write)
	if err != nil {
		m.installL1(e)
		m.dropTC(tvpn)
		return err
	}
	if changed && m.cfg.Org == OrgTPS && m.hw.tpsFA == nil && e.Order != 0 {
		// The skewed TPS TLB: insert e as it came, then refresh below.
		m.installL1(e)
	}
	prov, way := m.installL1(final)
	if m.hw.tc != nil {
		m.fillTC(tvpn, final, prov, way)
	}
	return nil
}

// dropTC invalidates the translation-cache line for tvpn, if any.
func (m *MMU) dropTC(tvpn addr.VPN) {
	if m.hw.tc != nil {
		m.hw.tc.drop(tvpn)
	}
}

// Access is Translate for callers that need only success or failure — the
// functional simulation loop, which discards the Result of every
// successful translation. On a translation-cache serve it skips Result
// assembly entirely; otherwise it runs the identical full flow. All stats
// are bit-identical to Translate's.
func (m *MMU) Access(v addr.Virt, write bool) error {
	tvpn := m.tagVPN(v.PageNumber())
	if m.hw.tc != nil && m.serveTC(tvpn, write) != nil {
		return nil
	}
	_, err := m.translateMissed(v, tvpn, write)
	return err
}

// ErrWriteProtected reports a store to a read-only mapping (the
// copy-on-write fault, §III-C3).
var ErrWriteProtected = fmt.Errorf("mmu: write to read-only page")

// setPhys records the physical address and page size of a translation
// through entry e; tvpn is the caller's already-tagged VPN for v.
func (m *MMU) setPhys(v addr.Virt, tvpn addr.VPN, e tlb.Entry, r *Result) {
	r.Phys = e.Translate(tvpn).Addr() + addr.Phys(v.Offset(0))
	r.Order = e.Order
}

// updateAD sets the page's Accessed (and, for a store, Dirty) bits when
// the flags e caches lack them, and gives e the flags the TLB caches from
// then on. It reports whether e changed. The TLB caches A/D to avoid
// redundant stores (§III-C1).
func (m *MMU) updateAD(v addr.Virt, e *tlb.Entry, r *Result, write bool) (bool, error) {
	needA := e.Flags&pte.FlagAccessed == 0
	needD := write && e.Flags&pte.FlagDirty == 0
	if !needA && !needD {
		return false, nil
	}
	updated, err := m.table.SetAccessedDirty(v, write)
	if err != nil {
		return false, err
	}
	if updated {
		m.stats.ADWrites++
		r.ADWrite = true
	}
	e.Flags |= pte.FlagAccessed
	if write {
		e.Flags |= pte.FlagDirty
	}
	return true, nil
}

// lookupL1 probes the L1 structures, reporting which structure and way
// satisfied a hit so the translation cache can remember its provenance.
// Structures whose hits a tag compare cannot re-verify (CoLT's multi-size
// L1s, the skewed TPS TLB) report provNone.
func (m *MMU) lookupL1(vpn addr.VPN) (tlb.Entry, uint8, int, bool) {
	if m.cfg.Org == OrgCoLT {
		if e, hit := m.hw.l14k.Lookup(vpn); hit {
			return e, provNone, -1, true
		}
		if e, hit := m.hw.l12m.Lookup(vpn); hit {
			return e, provNone, -1, true
		}
		e, hit := m.hw.l11g.Lookup(vpn)
		return e, provNone, -1, hit
	}
	if e, w, hit := m.hw.l14k.LookupWay(vpn); hit {
		return e, provL14K, w, true
	}
	if m.cfg.Org == OrgTPS {
		if fa := m.hw.tpsFA; fa != nil {
			e, w, hit := fa.LookupWay(vpn)
			return e, provTPS, w, hit
		}
		e, hit := m.hw.tpsL1.Lookup(vpn)
		return e, provNone, -1, hit
	}
	if e, w, hit := m.hw.l12m.LookupWay(vpn); hit {
		return e, provL12M, w, true
	}
	e, w, hit := m.hw.l11g.LookupWay(vpn)
	return e, provL11G, w, hit
}

func (m *MMU) lookupSTLB(vpn addr.VPN) (tlb.Entry, bool) {
	if e, hit := m.hw.stlb.Lookup(vpn); hit {
		return e, true
	}
	return m.hw.stlb1g.Lookup(vpn)
}

// installL1 routes an entry to the correct L1 structure, reporting where
// it landed (provenance + way) for the translation cache. Structures the
// cache cannot re-verify report provNone.
func (m *MMU) installL1(e tlb.Entry) (uint8, int) {
	switch m.cfg.Org {
	case OrgTPS:
		if e.Order == 0 {
			return provL14K, m.hw.l14k.InsertWay(e)
		}
		if fa := m.hw.tpsFA; fa != nil {
			return provTPS, fa.InsertWay(e)
		}
		m.hw.tpsL1.Insert(e)
		return provNone, -1
	case OrgCoLT:
		switch {
		case e.Order <= 3:
			m.hw.l14k.Insert(e)
		case e.Order >= addr.Order2M && e.Order <= addr.Order2M+3:
			m.hw.l12m.Insert(e)
		default:
			m.hw.l11g.Insert(e)
		}
		return provNone, -1
	default:
		switch e.Order {
		case 0:
			return provL14K, m.hw.l14k.InsertWay(e)
		case addr.Order2M:
			return provL12M, m.hw.l12m.InsertWay(e)
		default:
			return provL11G, m.hw.l11g.InsertWay(e)
		}
	}
}

// installSTLB routes an entry into the unified or 1G STLB.
func (m *MMU) installSTLB(e tlb.Entry) {
	if e.Order == addr.Order1G {
		m.hw.stlb1g.Insert(e)
		return
	}
	if m.cfg.Org != OrgTPS && e.Order != 0 && e.Order != addr.Order2M {
		// Conventional STLB cannot hold this size; CoLT clusters are
		// held only if configured.
		if m.cfg.Org == OrgCoLT &&
			(e.Order <= 3 || (e.Order >= addr.Order2M && e.Order <= addr.Order2M+3)) {
			m.hw.stlb.Insert(e)
		}
		return
	}
	m.hw.stlb.Insert(e)
}

// entryFor applies the fill policy (identity by default).
func (m *MMU) entryFor(res pagetable.WalkResult) tlb.Entry {
	if m.fill != nil {
		return m.fill(res)
	}
	return tlb.Entry{VPN: res.VPN, PFN: res.PFN, Order: res.Order, Flags: res.Flags}
}

// walkRefsWithPWC computes the memory references for a walk given the
// paging-structure caches: the walker resumes below the deepest cached
// non-leaf level covering v.
func (m *MMU) walkRefsWithPWC(v addr.Virt, res pagetable.WalkResult) int {
	start := m.cfg.Levels // no cache hit: read every level down to leaf
	tv := m.tagVirt(v)
	for lvl := res.Level + 1; lvl < m.cfg.Levels; lvl++ {
		c := m.hw.pwc[lvl]
		if c == nil {
			continue
		}
		if c.Lookup(tv) {
			m.stats.PWCHits[min(lvl, 3)]++
			start = lvl
			break
		}
	}
	refs := start - res.Level
	if res.Alias && m.table.Strategy() == pagetable.ExtraLookup {
		refs++
	}
	return refs
}

// fillPWC caches the non-leaf entries the walk traversed.
func (m *MMU) fillPWC(v addr.Virt, res pagetable.WalkResult) {
	tv := m.tagVirt(v)
	for lvl := res.Level + 1; lvl < m.cfg.Levels; lvl++ {
		if c := m.hw.pwc[lvl]; c != nil {
			c.Insert(tv)
		}
	}
}

// ShootdownPage invalidates any TLB and PWC state for the page containing
// vpn in this MMU's address space (the INVLPG flow, §III-C2).
func (m *MMU) ShootdownPage(vpn addr.VPN) {
	vpn = m.tagVPN(vpn)
	if m.hw.tc != nil {
		m.hw.tc.invalidateRange(vpn, vpn+1)
	}
	m.hw.l14k.InvalidatePage(vpn)
	if m.cfg.Org == OrgTPS {
		m.hw.tpsL1.InvalidatePage(vpn)
	} else {
		m.hw.l12m.InvalidatePage(vpn)
		m.hw.l11g.InvalidatePage(vpn)
	}
	m.hw.stlb.InvalidatePage(vpn)
	m.hw.stlb1g.InvalidatePage(vpn)
	// Leaf invalidation does not require dropping upper-level PWC state,
	// but a conservative implementation (matching INVLPG semantics) does.
	for _, c := range m.hw.pwc {
		if c != nil {
			c.InvalidateRange(vpn, vpn+1)
		}
	}
}

// ShootdownRange invalidates all TLB and PWC state overlapping the VPN
// range [start, end) in this MMU's address space.
func (m *MMU) ShootdownRange(start, end addr.VPN) {
	start, end = m.tagVPN(start), m.tagVPN(end)
	if m.hw.tc != nil {
		m.hw.tc.invalidateRange(start, end)
	}
	m.hw.l14k.InvalidateRange(start, end)
	if m.cfg.Org == OrgTPS {
		m.hw.tpsL1.InvalidateRange(start, end)
	} else {
		m.hw.l12m.InvalidateRange(start, end)
		m.hw.l11g.InvalidateRange(start, end)
	}
	m.hw.stlb.InvalidateRange(start, end)
	m.hw.stlb1g.InvalidateRange(start, end)
	for _, c := range m.hw.pwc {
		if c != nil {
			c.InvalidateRange(start, end)
		}
	}
}

// FlushAll drops all cached translation state of the shared hardware, for
// every address space using it (a non-PCID CR3 write / global flush).
func (m *MMU) FlushAll() {
	if m.hw.tc != nil {
		m.hw.tc.reset()
	}
	m.hw.l14k.Flush()
	if m.cfg.Org == OrgTPS {
		m.hw.tpsL1.Flush()
	} else {
		m.hw.l12m.Flush()
		m.hw.l11g.Flush()
	}
	m.hw.stlb.Flush()
	m.hw.stlb1g.Flush()
	for _, c := range m.hw.pwc {
		if c != nil {
			c.Flush()
		}
	}
}

// L1TLBs returns the live L1 structures for inspection by tests/reports.
func (m *MMU) L1TLBs() []tlb.TLB {
	if m.cfg.Org == OrgTPS {
		return []tlb.TLB{m.hw.l14k, m.hw.tpsL1}
	}
	return []tlb.TLB{m.hw.l14k, m.hw.l12m, m.hw.l11g}
}

// STLBs returns the live L2 structures.
func (m *MMU) STLBs() []tlb.TLB { return []tlb.TLB{m.hw.stlb, m.hw.stlb1g} }

// EachCached calls f for every translation the shared hardware caches for
// this MMU's address space, with architectural VPNs: each valid L1 and
// STLB entry (where names the structure), then each translation-cache
// line as the page it translates (where is "transcache", Flags 0).
// Inspection only: no LRU or stat side effects.
func (m *MMU) EachCached(f func(where string, e tlb.Entry)) {
	for _, t := range append(m.L1TLBs(), m.STLBs()...) {
		t.Resident(func(_ int, e tlb.Entry, _ uint64) {
			if uint16(e.VPN>>asidShift) == m.asid {
				e.VPN = untagVPN(e.VPN)
				f(t.Name(), e)
			}
		})
	}
	if m.hw.tc == nil {
		return
	}
	for _, l := range m.hw.tc.ents {
		if l.tag == tcInvalid || uint16(l.tag>>asidShift) != m.asid {
			continue
		}
		o := addr.Order(l.order)
		tvpn := addr.VPN(l.tag)
		base := tvpn.AlignDown(o)
		f("transcache", tlb.Entry{VPN: untagVPN(base), PFN: l.pfn - addr.PFN(tvpn-base), Order: o})
	}
}
