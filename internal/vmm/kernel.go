// Package vmm models the operating-system side of Tailored Page Sizes
// (§III-B): virtual-memory areas, demand paging with frame reservation, the
// paging reservation table, incremental page promotion through every
// power-of-two size, eager paging, compaction-driven relocation, and page
// merging. It drives the buddy allocator, the page table, and the MMU's
// shootdown interface, and accounts the system time the Fig. 17 study
// reports.
package vmm

import (
	"errors"
	"fmt"
	"sort"

	"tps/internal/addr"
	"tps/internal/buddy"
	"tps/internal/mmu"
	"tps/internal/pagetable"
	"tps/internal/pte"
)

// Ranger is the OS-side interface to a range-translation table (RMM). The
// rmm package implements it; PolicyRMMEager drives it.
type Ranger interface {
	// AddRange registers a contiguous virtual-to-physical range.
	AddRange(vpn addr.VPN, pages uint64, pfn addr.PFN, flags uint64)
	// RemoveRange drops the range starting at vpn.
	RemoveRange(vpn addr.VPN)
}

// Stats counts OS work.
type Stats struct {
	Mmaps          uint64
	Munmaps        uint64
	Faults         uint64 // demand page faults handled
	DemandPages    uint64 // base pages demanded by faults
	Reservations   uint64 // reservation-table inserts
	FallbackBlocks uint64 // backing blocks smaller than the desired chunk
	Promotions     uint64 // page-size upgrades performed
	PageMerges     uint64 // §III-B3 merges of adjacent pages
	Compactions    uint64
	RelocatedPages uint64 // base pages moved by compaction
	ZeroedPages    uint64 // base pages zeroed on first mapping
	SysCycles      uint64 // accumulated system time (cost model)
	Cow            CowStats
}

// vma is one mapped virtual region.
type vma struct {
	start, end   addr.Virt
	flags        uint64
	reservations []*reservation // sorted by vpn

	// cow links VMAs sharing physical frames copy-on-write (§III-C3);
	// cowFrames are the private frames this VMA's write faults copied
	// into, freed at munmap.
	cow       *cowGroup
	cowFrames []block
}

// vaBase is the first virtual address handed out by Mmap.
const vaBase = addr.Virt(1) << 40

// Kernel is the simulated operating system for one address space.
type Kernel struct {
	cfg    Config
	bud    *buddy.Allocator
	table  *pagetable.Table
	mmu    *mmu.MMU
	ranger Ranger

	vmas   []*vma // sorted by start
	nextVA addr.Virt

	// granules is the bitmask of page orders promotion/merging may
	// produce; anyGranule short-circuits it when no restriction applies
	// (cfg.PromotionGranules nil).
	granules   uint32
	anyGranule bool

	// promoOrders[o] lists the page orders the promotion cascade tries,
	// smallest first, in a reservation of order o.
	promoOrders [addr.MaxOrder + 1][]addr.Order

	stats Stats

	// promosByOrder resolves stats.Promotions by target page order.
	// Observability only (the epoch time-series): deliberately outside
	// Stats so the Result schema, the store fingerprint, and the SMT merge
	// arithmetic stay untouched.
	promosByOrder [addr.MaxOrder + 1]uint64
}

// New creates a kernel over the given buddy allocator. The MMU is attached
// afterwards with AttachMMU (the machine owns it); until then faults still
// work but no shootdowns are issued.
func New(cfg Config, bud *buddy.Allocator) *Kernel {
	if cfg.Levels == 0 {
		cfg.Levels = addr.Levels4
	}
	if cfg.PromotionThreshold <= 0 {
		cfg.PromotionThreshold = 1.0
	}
	if cfg.MaxTailoredOrder == 0 {
		cfg.MaxTailoredOrder = addr.Order1G
	}
	k := &Kernel{
		cfg:    cfg,
		bud:    bud,
		table:  pagetable.New(cfg.Levels, cfg.AliasStrategy),
		nextVA: vaBase,
	}
	k.anyGranule = cfg.PromotionGranules == nil
	for _, o := range cfg.PromotionGranules {
		k.granules |= 1 << uint(o)
	}
	k.granules |= 1 // base pages are always mappable
	for o := range k.promoOrders {
		k.promoOrders[o] = k.promotionOrders(addr.Order(o))
	}
	bud.OnCompact(k.relocate)
	return k
}

// orderAllowed reports whether the configured granule set permits pages of
// order o.
func (k *Kernel) orderAllowed(o addr.Order) bool {
	return k.anyGranule || k.granules&(1<<uint(o)) != 0
}

// AttachMMU binds the hardware MMU (for shootdowns). The MMU must have
// been built over this kernel's Table.
func (k *Kernel) AttachMMU(m *mmu.MMU) {
	if m.Table() != k.table {
		panic("vmm: MMU built over a different page table")
	}
	k.mmu = m
}

// AttachRanger binds the RMM range table (PolicyRMMEager only).
func (k *Kernel) AttachRanger(r Ranger) { k.ranger = r }

// Table exposes the kernel's page table so the machine can build an MMU.
func (k *Kernel) Table() *pagetable.Table { return k.table }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Stats returns the OS counters including derived system time.
func (k *Kernel) Stats() Stats {
	s := k.stats
	bs := k.bud.Stats()
	ps := k.table.Stats()
	s.SysCycles += (bs.Allocs + bs.Frees + bs.Splits + bs.Merges) * k.cfg.Costs.BuddyOp
	s.SysCycles += ps.PTEWrites * k.cfg.Costs.PTEWrite
	return s
}

// ErrNoMemory is returned when physical memory is exhausted.
var ErrNoMemory = errors.New("vmm: out of physical memory")

// desiredOrders decomposes a request of the given page count into the
// virtual chunks the policy wants, relative to a region base that Mmap
// aligns appropriately.
func (k *Kernel) desiredChunks(baseVPN addr.VPN, pages uint64) []addr.Chunk {
	switch k.cfg.Policy {
	case PolicyBase4K, PolicyRMMEager:
		// One bookkeeping chunk spanning the region, mapped at 4 KB.
		return addr.SplitNAPOT(baseVPN, pages)
	case PolicyTHP:
		// 2 MB chunks plus a 4 KB-grain tail, as reservation-based THP.
		return splitCapped(baseVPN, pages, addr.Order2M)
	case Policy2MOnly:
		return splitCapped(baseVPN, pages, addr.Order2M)
	default: // TPS policies
		if k.cfg.Sizing == SizingAggressive {
			// Round the request up to the next power of two; beyond the
			// size cap, tile cap-order chunks over the rounded request.
			o := addr.OrderForSize(pages * addr.BasePageSize)
			if o <= k.cfg.MaxTailoredOrder && o.Pages() >= pages {
				return []addr.Chunk{{VPN: baseVPN, Order: o}}
			}
			max := k.cfg.MaxTailoredOrder
			full := (pages + max.Pages() - 1) / max.Pages() * max.Pages()
			return splitCapped(baseVPN, full, max)
		}
		return splitCappedNAPOT(baseVPN, pages, k.cfg.MaxTailoredOrder)
	}
}

// splitCapped tiles [vpn, vpn+pages) with order-`cap` chunks and a NAPOT
// tail for the remainder.
func splitCapped(vpn addr.VPN, pages uint64, cap addr.Order) []addr.Chunk {
	var out []addr.Chunk
	for pages >= cap.Pages() && vpn.Aligned(cap) {
		out = append(out, addr.Chunk{VPN: vpn, Order: cap})
		vpn += addr.VPN(cap.Pages())
		pages -= cap.Pages()
	}
	if pages > 0 {
		out = append(out, addr.SplitNAPOT(vpn, pages)...)
	}
	return out
}

// splitCappedNAPOT is SplitNAPOT with chunk orders capped.
func splitCappedNAPOT(vpn addr.VPN, pages uint64, cap addr.Order) []addr.Chunk {
	var out []addr.Chunk
	for _, c := range addr.SplitNAPOT(vpn, pages) {
		if c.Order <= cap {
			out = append(out, c)
			continue
		}
		out = append(out, splitCapped(c.VPN, c.Order.Pages(), cap)...)
	}
	return out
}

// Mmap creates a new anonymous mapping of size bytes (rounded up to the
// base page) and returns its virtual base address.
func (k *Kernel) Mmap(size uint64, flags uint64) (addr.Virt, error) {
	if size == 0 {
		return 0, fmt.Errorf("vmm: zero-length mmap")
	}
	k.stats.Mmaps++
	k.stats.SysCycles += k.cfg.Costs.Mmap
	pages := (size + addr.BasePageSize - 1) / addr.BasePageSize
	if k.cfg.Policy == Policy2MOnly {
		// Exclusive 2 MB pages: the whole VMA occupies 2 MB multiples
		// (the internal fragmentation Fig. 9 measures).
		per := addr.Order2M.Pages()
		pages = (pages + per - 1) / per * per
	}

	// Align the virtual base so the policy's chunking is achievable: to
	// the largest chunk order the request can use (capped).
	alignOrder := k.alignmentFor(pages)
	base := k.nextVA.AlignUp(alignOrder)
	v := &vma{start: base, end: base + addr.Virt(pages*addr.BasePageSize), flags: flags}
	k.nextVA = v.end
	baseVPN := base.PageNumber()

	chunks := k.desiredChunks(baseVPN, pages)
	for _, c := range chunks {
		r, err := k.reserve(c)
		if err != nil {
			k.rollback(v)
			return 0, err
		}
		v.reservations = append(v.reservations, r)
	}
	k.vmas = append(k.vmas, v)
	sort.Slice(k.vmas, func(i, j int) bool { return k.vmas[i].start < k.vmas[j].start })

	switch k.cfg.Policy {
	case PolicyTPSEager, Policy2MOnly:
		if err := k.eagerMapAll(v); err != nil {
			return 0, err
		}
	case PolicyRMMEager:
		if err := k.eagerMap4K(v); err != nil {
			return 0, err
		}
	}
	return base, nil
}

// alignmentFor picks the virtual alignment for a request of `pages` base
// pages under the current policy.
func (k *Kernel) alignmentFor(pages uint64) addr.Order {
	var o addr.Order
	switch k.cfg.Policy {
	case Policy2MOnly:
		o = addr.Order2M
	case PolicyTHP:
		if pages >= addr.Order2M.Pages() {
			o = addr.Order2M
		}
	case PolicyBase4K:
		o = 0
	default:
		// Largest power-of-two not exceeding the request (conservative)
		// or covering it (aggressive), capped.
		o = addr.OrderForSize(pages * addr.BasePageSize)
		if k.cfg.Sizing == SizingConservative && o.Pages() > pages {
			o--
		}
		if o > k.cfg.MaxTailoredOrder {
			o = k.cfg.MaxTailoredOrder
		}
	}
	if o < 0 {
		o = 0
	}
	return o
}

// reserve creates the reservation-table entry for one virtual chunk,
// acquiring backing physical blocks from the buddy allocator. If no block
// of the chunk's order is free, it falls back to covering the chunk with
// the largest available blocks ("leverage what contiguity it can", §I) —
// optionally compacting first.
func (k *Kernel) reserve(c addr.Chunk) (*reservation, error) {
	r := newReservation(c.VPN, c.Order)
	k.stats.Reservations++
	k.stats.SysCycles += k.cfg.Costs.ReservationSetup

	if k.cfg.Policy == PolicyBase4K {
		// Plain demand paging reserves no physical memory up front;
		// frames are allocated one at a time at fault.
		r.allowLazy()
		return r, nil
	}

	vpn := c.VPN
	remaining := c.Order.Pages()
	for remaining > 0 {
		want := addr.LargestOrderFor(vpn, remaining)
		pfn, err := k.bud.Alloc(want)
		got := want
		if err != nil {
			// Fragmented: take the largest block available below want.
			var gotPFN addr.PFN
			gotPFN, got, err = k.bud.AllocLargest(want)
			if err != nil {
				k.releaseReservation(r)
				return nil, ErrNoMemory
			}
			pfn = gotPFN
			k.stats.FallbackBlocks++
		}
		r.blocks = append(r.blocks, block{pfn: pfn, order: got, vpn: vpn})
		vpn += addr.VPN(got.Pages())
		remaining -= got.Pages()
	}
	return r, nil
}

// rollback releases a partially constructed VMA's reservations.
func (k *Kernel) rollback(v *vma) {
	for _, r := range v.reservations {
		k.releaseReservation(r)
	}
}

func (k *Kernel) releaseReservation(r *reservation) {
	// Unless a cowGroup owns the blocks (it frees them when the last
	// sharer unmaps), they go back to the allocator.
	if r.ownsPhys {
		for _, b := range r.blocks {
			// Ignore errors: blocks may already be gone during rollback.
			_ = k.bud.Free(b.pfn)
		}
	}
	r.blocks = nil
	// Lazy frames are private even to a CoW source: CloneCOW hands the
	// ones faulted before it to the share group.
	r.eachLazy(func(pfn addr.PFN) { _ = k.bud.Free(pfn) })
	r.lazyFrames = nil
}

// eagerMapAll maps every reservation of the VMA at its full backing-block
// granularity (eager paging / 2M-only).
func (k *Kernel) eagerMapAll(v *vma) error {
	for _, r := range v.reservations {
		for _, b := range r.blocks {
			if err := k.mapPage(r, b.vpn, b.pfn, b.order, v.flags); err != nil {
				return err
			}
			r.markRegionTouched(b.vpn, b.order.Pages())
		}
	}
	return nil
}

// eagerMap4K maps every base page of the VMA individually and registers
// the backing ranges with the range table (RMM).
func (k *Kernel) eagerMap4K(v *vma) error {
	for _, r := range v.reservations {
		for _, b := range r.blocks {
			for i := uint64(0); i < b.order.Pages(); i++ {
				if err := k.mapPage(r, b.vpn+addr.VPN(i), b.pfn+addr.PFN(i), 0, v.flags); err != nil {
					return err
				}
			}
			r.markRegionTouched(b.vpn, b.order.Pages())
			if k.ranger != nil {
				// Ranges carry the PTE flags so Range-TLB-constructed
				// entries have the pages' real permissions.
				k.ranger.AddRange(b.vpn, b.order.Pages(), b.pfn, v.flags|pte.FlagWrite|pte.FlagUser)
			}
		}
	}
	return nil
}

// mapPage installs one writable page and charges zeroing cost.
func (k *Kernel) mapPage(r *reservation, vpn addr.VPN, pfn addr.PFN, order addr.Order, flags uint64) error {
	if err := k.mapPageRaw(r, vpn, pfn, order, flags|pte.FlagWrite|pte.FlagUser); err != nil {
		return err
	}
	k.stats.ZeroedPages += order.Pages()
	k.stats.SysCycles += k.cfg.Costs.ZeroPage * order.Pages()
	return nil
}

// mapPageRaw installs one page with exactly the given PTE flags (the
// copy-on-write path maps read-only, no zeroing).
func (k *Kernel) mapPageRaw(r *reservation, vpn addr.VPN, pfn addr.PFN, order addr.Order, rawFlags uint64) error {
	if err := k.table.Map(vpn.Addr(), pfn, order, rawFlags); err != nil {
		return err
	}
	r.setMapped(vpn, order)
	return nil
}

// unmapPage removes one page from the table and bookkeeping (no TLB
// shootdown: promotion merges keep stale smaller entries correct,
// §III-C2; explicit unmaps shoot down separately).
func (k *Kernel) unmapPage(r *reservation, vpn addr.VPN) error {
	_, _, _, err := k.table.Unmap(vpn.Addr())
	if err != nil {
		return err
	}
	r.clearMapped(vpn)
	return nil
}

// findVMA locates the VMA containing v.
func (k *Kernel) findVMA(v addr.Virt) *vma {
	i := sort.Search(len(k.vmas), func(i int) bool { return k.vmas[i].end > v })
	if i == len(k.vmas) || k.vmas[i].start > v {
		return nil
	}
	return k.vmas[i]
}

// findReservation locates the reservation containing vpn within the VMA.
func (v *vma) findReservation(vpn addr.VPN) *reservation {
	i := sort.Search(len(v.reservations), func(i int) bool {
		return v.reservations[i].end() > vpn
	})
	if i == len(v.reservations) || !v.reservations[i].contains(vpn) {
		return nil
	}
	return v.reservations[i]
}

// Access translates a memory access, handling any demand fault. This is
// the simulator's per-reference entry point; hot loops that hold the MMU
// directly may instead call mmu.Translate themselves and fall back to
// Resolve on failure — the two are equivalent.
func (k *Kernel) Access(v addr.Virt, write bool) (mmu.Result, error) {
	res, err := k.mmu.Translate(v, write)
	if err == nil {
		return res, nil
	}
	return k.Resolve(v, write, res, err)
}

// Resolve is the slow path of Access: given a failed translation (res, err
// as Translate returned them), service the demand fault or CoW write fault
// and retry the translation.
//
// A demand fault (pagetable.ErrNotMapped) comes from a failed page walk:
// no TLB holds a page that is not mapped, so a translation can only fail
// that way in the walk. That walk proves no mapped page covers v, so the
// fault skips Fault's coverage check, and the retry resumes at the walk
// (mmu.RetryAfterFault) instead of probing every TLB again.
func (k *Kernel) Resolve(v addr.Virt, write bool, res mmu.Result, err error) (mmu.Result, error) {
	switch {
	case errors.Is(err, pagetable.ErrNotMapped):
		vma, r, err := k.faultRegion(v)
		if err != nil {
			return mmu.Result{}, err
		}
		if err := k.demandMap(vma, r, v.PageNumber()); err != nil {
			return mmu.Result{}, err
		}
		return k.mmu.RetryAfterFault(v, write)
	case isWriteProtected(err):
		if err := k.handleCOWFault(v); err != nil {
			return mmu.Result{}, err
		}
		return k.mmu.Translate(v, write)
	default:
		return res, err
	}
}

// Fault handles a demand page fault at v: allocate the base page from the
// reservation and run the promotion cascade (§III-B1). The caller need not
// have seen a translation fail: a fault at a page some mapped page already
// covers (an earlier promotion below threshold 1.0 mapped it, or a caller
// faults ahead of the first access) counts as a fault and maps nothing.
// Resolve, whose failed walk already proves the page unmapped, skips that
// coverage check.
func (k *Kernel) Fault(v addr.Virt, write bool) error {
	vma, r, err := k.faultRegion(v)
	if err != nil {
		return err
	}
	vpn := v.PageNumber()
	if k.coveredBy(r, vpn) {
		return nil
	}
	return k.demandMap(vma, r, vpn)
}

// faultRegion finds the VMA and reservation a fault at v falls in, and
// counts the fault and the page it demands.
func (k *Kernel) faultRegion(v addr.Virt) (*vma, *reservation, error) {
	vma := k.findVMA(v)
	if vma == nil {
		return nil, nil, fmt.Errorf("vmm: segfault at %#x (no VMA)", uint64(v))
	}
	vpn := v.PageNumber()
	r := vma.findReservation(vpn)
	if r == nil {
		return nil, nil, fmt.Errorf("vmm: no reservation for %#x", uint64(v))
	}
	k.countFault(r, vpn)
	return vma, r, nil
}

// countFault counts a fault at vpn in r and marks the page demanded.
func (k *Kernel) countFault(r *reservation, vpn addr.VPN) {
	k.stats.Faults++
	k.stats.SysCycles += k.cfg.Costs.Fault
	if r.markTouched(vpn) {
		k.stats.DemandPages++
	}
}

// TouchPages writes n base pages in address order, starting at v: the
// warm-up sweep of a region. It leaves every counter, mapping and TLB
// exactly as n calls of Access(v+i*BasePageSize, true) would, but runs
// the first touch of a page as one pass. A page whose reservation has
// never touched it is unmapped, and no TLB or translation-cache line
// covers an unmapped page, so its first attempt starts at the sidecar
// and the walk (mmu.RetryAfterFault), fails there, faults without the
// coverage check, and retries from the walk. Every other page (touched,
// or in no reservation) goes through Access. The VMA and the reservation
// carry over from page to page and are looked up again only when the
// sweep leaves them.
//
// When out is non-nil (len(out) >= n), out[i] receives page i's Result:
// the one Access would return for it, which for a never-touched page is
// the post-fault retry's. The cycle model prices each page from these.
func (k *Kernel) TouchPages(v addr.Virt, n uint64, out []mmu.Result) error {
	var (
		vm *vma
		r  *reservation
	)
	for i := uint64(0); i < n; i, v = i+1, v+addr.BasePageSize {
		vpn := v.PageNumber()
		if vm == nil || v < vm.start || v >= vm.end {
			vm, r = k.findVMA(v), nil
		}
		if vm != nil && (r == nil || !r.contains(vpn)) {
			r = vm.findReservation(vpn)
		}
		var (
			res mmu.Result
			err error
		)
		if r == nil || r.isTouched(vpn) {
			res, err = k.Access(v, true)
		} else {
			res, err = k.touchUntouched(vm, r, v)
		}
		if err != nil {
			return err
		}
		if out != nil {
			out[i] = res
		}
	}
	return nil
}

// touchUntouched is TouchPages' first touch of the never-touched page at
// v in r: the walk fails, the fault maps the page, and the retry resumes
// at the walk.
func (k *Kernel) touchUntouched(vm *vma, r *reservation, v addr.Virt) (mmu.Result, error) {
	// The walk returns the ErrNotMapped sentinel itself, unwrapped.
	if _, err := k.mmu.RetryAfterFault(v, true); err != pagetable.ErrNotMapped {
		if err == nil {
			err = fmt.Errorf("vmm: never-touched page %#x is mapped", uint64(v))
		}
		return mmu.Result{}, err
	}
	vpn := v.PageNumber()
	k.countFault(r, vpn)
	if err := k.demandMap(vm, r, vpn); err != nil {
		return mmu.Result{}, err
	}
	return k.mmu.RetryAfterFault(v, true)
}

// demandMap maps the unmapped base page vpn from its reservation frame (or
// a fresh frame, for lazy reservations) and runs the promotion cascade.
func (k *Kernel) demandMap(vma *vma, r *reservation, vpn addr.VPN) error {
	pfn, _, ok := r.frameFor(vpn)
	if !ok {
		if !r.lazy {
			return fmt.Errorf("vmm: reservation has no frame for %#x", uint64(vpn.Addr()))
		}
		p, err := k.bud.Alloc(0)
		if err != nil {
			return ErrNoMemory
		}
		r.lazyFrames[vpn-r.vpn] = p + 1
		pfn = p
	}
	if err := k.mapPage(r, vpn, pfn, 0, vma.flags); err != nil {
		return err
	}
	return k.promote(vma, r, vpn)
}

// coveredBy reports whether some mapped page in r covers vpn.
func (k *Kernel) coveredBy(r *reservation, vpn addr.VPN) bool {
	for o := addr.Order(0); o <= r.order; o++ {
		if mo, ok := r.mappedAt(vpn.AlignDown(o)); ok && mo >= o {
			return true
		}
	}
	return false
}

// promotionOrders returns the page orders the policy promotes through in a
// reservation of the given order.
func (k *Kernel) promotionOrders(resOrder addr.Order) []addr.Order {
	switch k.cfg.Policy {
	case PolicyTHP:
		if resOrder >= addr.Order2M {
			return []addr.Order{addr.Order2M}
		}
		return nil
	case PolicyTPS:
		var out []addr.Order
		for o := addr.Order(1); o <= resOrder && o <= k.cfg.MaxTailoredOrder; o++ {
			if !k.orderAllowed(o) {
				continue // fixed-granule schemes skip intermediate sizes
			}
			out = append(out, o)
		}
		return out
	default:
		return nil
	}
}

// promotable reports whether a VMA's pages may grow (CoW sharing pins
// page sizes: growing a shared page would widen sharing silently).
func (v *vma) promotable() bool { return v.cow == nil }

// promote runs the upgrade cascade after a fault at vpn: for each larger
// candidate order, if the utilization of the candidate region reaches the
// threshold (and the backing block is large enough), replace the region's
// pages with one page of the candidate order. Growing a page only rewrites
// PTEs — no data migration and no TLB shootdown is needed (§III-C2).
func (k *Kernel) promote(vma *vma, r *reservation, vpn addr.VPN) error {
	if !vma.promotable() {
		return nil
	}
	for _, o := range k.promoOrders[r.order] {
		base := vpn.AlignDown(o)
		if base < r.vpn || base+addr.VPN(o.Pages()) > r.end() {
			break
		}
		// The backing block must cover the whole candidate region
		// contiguously (fragmented reservations cap growth).
		b, ok := r.blockFor(base)
		if !ok || b.order < o || base+addr.VPN(o.Pages()) > b.vpn+addr.VPN(b.order.Pages()) {
			break
		}
		// Respect physical alignment: the frame backing `base` must be
		// o-aligned for a tailored PTE (blocks are naturally aligned, so
		// alignment within the block follows from virtual alignment).
		util := float64(r.touchedIn(base, o.Pages())) / float64(o.Pages())
		if util < k.cfg.PromotionThreshold {
			break
		}
		if mo, ok := r.mappedAt(base); ok && mo >= o {
			break // already at or above this size
		}
		if err := k.upgrade(vma, r, base, o); err != nil {
			return err
		}
	}
	return nil
}

// upgrade replaces everything mapped in [base, base+2^o) with a single
// order-o page.
func (k *Kernel) upgrade(vma *vma, r *reservation, base addr.VPN, o addr.Order) error {
	end := base + addr.VPN(o.Pages())
	newlyMapped := uint64(0)
	for pos := base; pos < end; {
		if mo, ok := r.mappedAt(pos); ok {
			if err := k.unmapPage(r, pos); err != nil {
				return err
			}
			pos += addr.VPN(mo.Pages())
		} else {
			newlyMapped++
			pos++
		}
	}
	pfn, _, ok := r.frameFor(base)
	if !ok {
		return fmt.Errorf("vmm: upgrade lost frame at %#x", uint64(base))
	}
	if err := k.table.Map(base.Addr(), pfn, o, vma.flags|pte.FlagWrite|pte.FlagUser); err != nil {
		return err
	}
	r.setMapped(base, o)
	// Pages mapped for the first time by this upgrade must be zeroed and
	// count as utilized from now on.
	if newlyMapped > 0 {
		k.stats.ZeroedPages += newlyMapped
		k.stats.SysCycles += k.cfg.Costs.ZeroPage * newlyMapped
		r.markRegionTouched(base, o.Pages())
	}
	k.stats.Promotions++
	k.promosByOrder[o]++
	k.stats.SysCycles += k.cfg.Costs.Promotion
	return nil
}

// Munmap removes the VMA starting at base, freeing its physical memory,
// dropping its ranges, and shooting down TLB state.
func (k *Kernel) Munmap(base addr.Virt) error {
	i := sort.Search(len(k.vmas), func(i int) bool { return k.vmas[i].start >= base })
	if i == len(k.vmas) || k.vmas[i].start != base {
		return fmt.Errorf("vmm: munmap of unmapped base %#x", uint64(base))
	}
	v := k.vmas[i]
	k.stats.Munmaps++
	k.stats.SysCycles += k.cfg.Costs.Mmap
	for _, r := range v.reservations {
		err := r.eachMapped(func(vpn addr.VPN, _ addr.Order) error {
			_, _, _, err := k.table.Unmap(vpn.Addr())
			return err
		})
		if err != nil {
			return err
		}
		r.mapped = nil
		if k.ranger != nil {
			for _, b := range r.blocks {
				k.ranger.RemoveRange(b.vpn)
			}
		}
		k.releaseReservation(r)
	}
	for _, b := range v.cowFrames {
		_ = k.bud.Free(b.pfn)
	}
	v.cowFrames = nil
	if v.cow != nil {
		v.cow.refs--
		if v.cow.refs == 0 {
			for _, pfn := range v.cow.blocks {
				_ = k.bud.Free(pfn)
			}
			v.cow.blocks = nil
		}
		v.cow = nil
	}
	if k.mmu != nil {
		k.mmu.ShootdownRange(v.start.PageNumber(), v.end.PageNumber())
	}
	k.vmas = append(k.vmas[:i], k.vmas[i+1:]...)
	return nil
}

// Compact invokes idealized memory compaction: the buddy allocator
// migrates allocated blocks to coalesce free space; every kernel
// allocating from it (SMT siblings share one) rewrites its affected PTEs
// and flushes stale translations.
func (k *Kernel) Compact() {
	k.stats.Compactions++
	k.bud.Compact()
}

// relocate follows a compaction's block moves: it rewrites the PTEs and
// the frame bookkeeping of this address space, then flushes the TLBs.
func (k *Kernel) relocate(reloc buddy.RelocationSet) {
	// Rewrite every mapped page by resolving its *current* frame through
	// the block moves — this covers reservation-backed, lazily allocated,
	// CoW-shared and CoW-private frames uniformly, including frames
	// referenced from several VMAs.
	for _, v := range k.vmas {
		for _, r := range v.reservations {
			_ = r.eachMapped(func(vpn addr.VPN, mo addr.Order) error {
				cur, err := k.table.Lookup(vpn.Addr())
				if err != nil {
					return nil
				}
				if newPFN := reloc.Resolve(cur.PFN); newPFN != cur.PFN {
					_ = k.table.Relocate(vpn.Addr(), newPFN)
					k.stats.RelocatedPages += mo.Pages()
				}
				return nil
			})
			// Ownership bookkeeping follows the moves.
			for bi := range r.blocks {
				r.blocks[bi].pfn = reloc.Resolve(r.blocks[bi].pfn)
			}
			for i, f := range r.lazyFrames {
				if f != 0 {
					r.lazyFrames[i] = reloc.Resolve(f-1) + 1
				}
			}
		}
		for bi := range v.cowFrames {
			v.cowFrames[bi].pfn = reloc.Resolve(v.cowFrames[bi].pfn)
		}
	}
	// CoW groups hold block addresses for the final free: follow the
	// relocation once per group.
	seen := make(map[*cowGroup]bool)
	for _, v := range k.vmas {
		g := v.cow
		if g == nil || seen[g] {
			continue
		}
		seen[g] = true
		for i, pfn := range g.blocks {
			g.blocks[i] = reloc.Resolve(pfn)
		}
	}
	if k.mmu != nil {
		k.mmu.FlushAll()
	}
}

// ConsolidateReservations is the "guided" half of incremental guided
// memory compaction (§IV-B): for every reservation whose chunk is backed
// by multiple fallback blocks (fragmentation at allocation time), try to
// acquire a single block of the full chunk order — possible once
// compaction has coalesced free space — and migrate the mapped pages into
// it. MergePages can then grow the now-contiguous pages back to the
// tailored sizes the fragmented allocation denied.
func (k *Kernel) ConsolidateReservations() {
	if k.cfg.Policy != PolicyTPS && k.cfg.Policy != PolicyTPSEager {
		return
	}
	for _, v := range k.vmas {
		if v.cow != nil {
			continue // consolidating shared frames would break aliases
		}
		for _, r := range v.reservations {
			if len(r.blocks) <= 1 || !r.ownsPhys {
				continue
			}
			newPFN, err := k.bud.Alloc(r.order)
			if err != nil {
				continue // still not enough contiguity; try next time
			}
			// Migrate every mapped page to its slot in the new block.
			err = r.eachMapped(func(vpn addr.VPN, mo addr.Order) error {
				dst := newPFN + addr.PFN(vpn-r.vpn)
				if err := k.table.Relocate(vpn.Addr(), dst); err != nil {
					return err
				}
				k.stats.RelocatedPages += mo.Pages()
				k.stats.SysCycles += k.cfg.Costs.CopyPage * mo.Pages()
				return nil
			})
			if err != nil {
				// Roll back is not needed for the pages already moved —
				// Relocate only fails on alignment, which cannot happen
				// for base-order destinations; release the new block.
				_ = k.bud.Free(newPFN)
				continue
			}
			for _, b := range r.blocks {
				_ = k.bud.Free(b.pfn)
			}
			r.blocks = []block{{pfn: newPFN, order: r.order, vpn: r.vpn}}
			if k.mmu != nil {
				k.mmu.ShootdownRange(r.vpn, r.end())
			}
		}
	}
}

// MergePages performs the §III-B3 optimization: within each VMA, adjacent
// same-order buddy pages whose frames are contiguous, aligned, and
// identically-permissioned merge into one page of the next order,
// repeating to a fixed point. No shootdowns are needed: the old entries
// remain correct for their portions of the larger page (§III-C2).
func (k *Kernel) MergePages() {
	if k.cfg.Policy == PolicyBase4K || k.cfg.Policy == PolicyRMMEager {
		return // the baseline OSes do not merge
	}
	for _, v := range k.vmas {
		for _, r := range v.reservations {
			for changed := true; changed; {
				changed = false
				_ = r.eachMapped(func(vpn addr.VPN, o addr.Order) error {
					if k.mergeBuddies(v, r, vpn, o) {
						changed = true
					}
					return nil
				})
			}
		}
	}
}

// mergeBuddies merges the order-o page at vpn with its buddy into one page
// of the next order when the pair qualifies, reporting whether it did.
func (k *Kernel) mergeBuddies(v *vma, r *reservation, vpn addr.VPN, o addr.Order) bool {
	if o >= k.cfg.MaxTailoredOrder || !k.orderAllowed(o+1) || !vpn.Aligned(o+1) {
		return false
	}
	buddyVPN := vpn + addr.VPN(o.Pages())
	if bo, ok := r.mappedAt(buddyVPN); !ok || bo != o {
		return false
	}
	a, errA := k.table.Lookup(vpn.Addr())
	b, errB := k.table.Lookup(buddyVPN.Addr())
	if errA != nil || errB != nil {
		return false
	}
	if b.PFN != a.PFN+addr.PFN(o.Pages()) || !a.PFN.Aligned(o+1) {
		return false
	}
	if !pte.PermissionsMatch(pte.Entry(a.Flags), pte.Entry(b.Flags)) {
		return false
	}
	if err := k.unmapPage(r, vpn); err != nil {
		return false
	}
	if err := k.unmapPage(r, buddyVPN); err != nil {
		return false
	}
	flags := v.flags | pte.FlagWrite | pte.FlagUser
	if err := k.table.Map(vpn.Addr(), a.PFN, o+1, flags); err != nil {
		// Should not happen; restore the smaller pages.
		k.table.Map(vpn.Addr(), a.PFN, o, flags)
		k.table.Map(buddyVPN.Addr(), b.PFN, o, flags)
		r.setMapped(vpn, o)
		r.setMapped(buddyVPN, o)
		return false
	}
	r.setMapped(vpn, o+1)
	k.stats.PageMerges++
	return true
}

// PromotionsByOrder returns the cumulative promotion count per target
// order. The series sampler's companion to Stats().Promotions.
func (k *Kernel) PromotionsByOrder() [addr.MaxOrder + 1]uint64 {
	return k.promosByOrder
}

// CensusInto accumulates the current mapped-page census by order into the
// caller's array — the allocation-free sibling of PageSizeCensus, used by
// the series sampler inside the ref loop.
func (k *Kernel) CensusInto(census *[addr.MaxOrder + 1]uint64) {
	k.table.MappedPages(func(_ addr.VPN, _ addr.PFN, o addr.Order, _ uint64) {
		census[o]++
	})
}

// EachUntouched calls fn for every base page of every reservation whose
// touched bit is clear: the pages TouchPages takes as unmapped, faulting
// them without probing any TLB. For tests that check that premise.
func (k *Kernel) EachUntouched(fn func(vpn addr.VPN)) {
	for _, v := range k.vmas {
		for _, r := range v.reservations {
			for vpn := r.vpn; vpn < r.end(); vpn++ {
				if !r.isTouched(vpn) {
					fn(vpn)
				}
			}
		}
	}
}

// PageSizeCensus counts currently mapped pages per order (Fig. 18).
func (k *Kernel) PageSizeCensus() map[addr.Order]uint64 {
	census := make(map[addr.Order]uint64)
	k.table.MappedPages(func(_ addr.VPN, _ addr.PFN, o addr.Order, _ uint64) {
		census[o]++
	})
	return census
}

// MappedBasePages returns the total base pages currently mapped (the
// memory-footprint metric of Fig. 9).
func (k *Kernel) MappedBasePages() uint64 {
	var n uint64
	k.table.MappedPages(func(_ addr.VPN, _ addr.PFN, o addr.Order, _ uint64) {
		n += o.Pages()
	})
	return n
}

// ReservedBasePages returns the base pages held by reservations (free
// nor in-use, §III-B1).
func (k *Kernel) ReservedBasePages() uint64 {
	var n uint64
	for _, v := range k.vmas {
		for _, r := range v.reservations {
			for _, b := range r.blocks {
				n += b.order.Pages()
			}
		}
	}
	return n
}
