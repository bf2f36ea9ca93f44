package vmm

import (
	"errors"
	"fmt"
	"sort"

	"tps/internal/addr"
	"tps/internal/mmu"
	"tps/internal/pte"
)

// Copy-on-write for tailored pages (§III-C3). CloneCOW creates a second
// VMA whose mapped pages share the source's physical frames read-only; the
// first store to either copy faults, and the kernel resolves it by one of
// the paper's two options:
//
//   - CowSplit copies only the written base page as a private 4 KB page
//     and remaps the rest of the tailored page as smaller pieces that
//     still share the original frames ("saves copy time and reduces
//     memory utilization");
//   - CowFull copies the entire tailored page ("more expensive in terms
//     of copy time and memory utilization, but reduces TLB pressure").

// CowPolicy selects the write-fault resolution.
type CowPolicy int

const (
	// CowSplit is the copy-least option.
	CowSplit CowPolicy = iota
	// CowFull copies whole tailored pages.
	CowFull
)

// String names the policy.
func (p CowPolicy) String() string {
	if p == CowFull {
		return "cow-full"
	}
	return "cow-split"
}

// cowGroup owns the physical memory shared by a set of cloned VMAs.
type cowGroup struct {
	refs   int
	blocks []addr.PFN // buddy blocks to free when the last sharer unmaps
}

// CowStats counts copy-on-write activity.
type CowStats struct {
	Clones      uint64
	Faults      uint64 // write faults resolved
	CopiedPages uint64 // base pages physically copied
	SplitPages  uint64 // tailored pages split by CowSplit
}

// CloneCOW creates a copy-on-write duplicate of the VMA starting at base,
// returning the clone's base address. Every page mapped in the source at
// clone time is shared read-only; unmapped parts of both VMAs fault in
// private frames later. Page promotion is disabled on CoW VMAs (growing a
// page would silently widen sharing).
func (k *Kernel) CloneCOW(base addr.Virt) (addr.Virt, error) {
	i := sort.Search(len(k.vmas), func(i int) bool { return k.vmas[i].start >= base })
	if i == len(k.vmas) || k.vmas[i].start != base {
		return 0, fmt.Errorf("vmm: CloneCOW of unmapped base %#x", uint64(base))
	}
	src := k.vmas[i]
	k.stats.Cow.Clones++
	k.stats.SysCycles += k.cfg.Costs.Mmap

	// Transfer physical ownership to the share group.
	if src.cow == nil {
		g := &cowGroup{refs: 1}
		for _, r := range src.reservations {
			for _, b := range r.blocks {
				g.blocks = append(g.blocks, b.pfn)
			}
			r.ownsPhys = false
		}
		src.cow = g
	}
	g := src.cow
	// Every private frame the source accumulated since it last shared
	// (CoW copies, lazily faulted frames) becomes shared by this clone:
	// move it to the group so a munmap of the source cannot free frames
	// the clone still maps.
	for _, b := range src.cowFrames {
		g.blocks = append(g.blocks, b.pfn)
	}
	src.cowFrames = nil
	for _, r := range src.reservations {
		r.eachLazy(func(pfn addr.PFN) { g.blocks = append(g.blocks, pfn) })
		clear(r.lazyFrames)
	}
	g.refs++

	size := uint64(src.end - src.start)
	alignOrder := addr.Order(0)
	for _, r := range src.reservations {
		if r.order > alignOrder {
			alignOrder = r.order
		}
	}
	// The clone keeps the source's offset within its largest reservation,
	// so every shared page lands as aligned as it is in the source.
	dstBase := k.nextVA.AlignUp(alignOrder) + addr.Virt(src.start.Offset(alignOrder))
	dst := &vma{
		start: dstBase,
		end:   dstBase + addr.Virt(size),
		flags: src.flags,
		cow:   src.cow,
	}
	k.nextVA = dst.end
	delta := dstBase.PageNumber() - src.start.PageNumber()

	roFlags := (src.flags | pte.FlagUser) &^ pte.FlagWrite
	for _, r := range src.reservations {
		nr := newReservation(r.vpn+delta, r.order)
		nr.allowLazy() // later faults are private
		copy(nr.touched, r.touched)
		nr.touchedCount = r.touchedCount
		err := r.eachMapped(func(vpn addr.VPN, o addr.Order) error {
			cur, err := k.table.Lookup(vpn.Addr())
			if err != nil {
				return err
			}
			// Share the frame read-only in the clone...
			if err := k.mapPageRaw(nr, vpn+delta, cur.PFN, o, roFlags); err != nil {
				return err
			}
			// ...and downgrade the source to read-only too.
			if err := k.table.Protect(vpn.Addr(), roFlags); err != nil {
				return err
			}
			k.stats.SysCycles += k.cfg.Costs.PTEWrite
			return nil
		})
		if err != nil {
			return 0, err
		}
		dst.reservations = append(dst.reservations, nr)
	}
	k.vmas = append(k.vmas, dst)
	sort.Slice(k.vmas, func(i, j int) bool { return k.vmas[i].start < k.vmas[j].start })
	if k.mmu != nil {
		// The source's write permissions changed: shoot down stale
		// writable entries.
		k.mmu.ShootdownRange(src.start.PageNumber(), src.end.PageNumber())
	}
	return dstBase, nil
}

// handleCOWFault resolves a write to a read-only CoW page at v.
func (k *Kernel) handleCOWFault(v addr.Virt) error {
	vma := k.findVMA(v)
	if vma == nil || vma.cow == nil {
		return fmt.Errorf("vmm: write-protection fault outside a CoW mapping at %#x", uint64(v))
	}
	cur, err := k.table.Lookup(v)
	if err != nil {
		return err
	}
	r := vma.findReservation(v.PageNumber())
	if r == nil {
		return fmt.Errorf("vmm: CoW fault without reservation at %#x", uint64(v))
	}
	k.stats.Cow.Faults++
	k.stats.Faults++
	k.stats.SysCycles += k.cfg.Costs.Fault

	wrFlags := vma.flags | pte.FlagWrite | pte.FlagUser
	pageVPN := cur.VPN
	pageEnd := pageVPN + addr.VPN(cur.Order.Pages())

	// Last sharer: no copy needed, just restore write permission.
	if vma.cow.refs == 1 {
		if err := k.table.Protect(pageVPN.Addr(), wrFlags); err != nil {
			return err
		}
		k.shootPage(pageVPN, pageEnd)
		return nil
	}

	switch {
	case cur.Order == 0 || k.cfg.CowPolicy == CowFull:
		// Copy the whole page into a private frame.
		newPFN, err := k.bud.Alloc(cur.Order)
		if err != nil {
			return ErrNoMemory
		}
		if err := k.unmapPage(r, pageVPN); err != nil {
			k.bud.Free(newPFN)
			return err
		}
		if err := k.mapPageRaw(r, pageVPN, newPFN, cur.Order, wrFlags); err != nil {
			return err
		}
		vma.cowFrames = append(vma.cowFrames, block{pfn: newPFN, order: cur.Order, vpn: pageVPN})
		k.chargeCopy(cur.Order.Pages())
	default:
		// CowSplit: private 4 KB copy of the written page; the rest of
		// the tailored page is remapped as smaller read-only pieces that
		// keep sharing the original frames.
		written := v.PageNumber()
		newPFN, err := k.bud.Alloc(0)
		if err != nil {
			return ErrNoMemory
		}
		origPFN := cur.PFN
		roFlags := (vma.flags | pte.FlagUser) &^ pte.FlagWrite
		if err := k.unmapPage(r, pageVPN); err != nil {
			k.bud.Free(newPFN)
			return err
		}
		if err := k.mapPageRaw(r, written, newPFN, 0, wrFlags); err != nil {
			return err
		}
		vma.cowFrames = append(vma.cowFrames, block{pfn: newPFN, order: 0, vpn: written})
		// Remap the surrounding pieces, still shared.
		for _, piece := range splitAround(pageVPN, pageEnd, written) {
			pfn := origPFN + addr.PFN(piece.VPN-pageVPN)
			if err := k.mapPageRaw(r, piece.VPN, pfn, piece.Order, roFlags); err != nil {
				return err
			}
		}
		k.stats.Cow.SplitPages++
		k.chargeCopy(1)
	}
	k.shootPage(pageVPN, pageEnd)
	return nil
}

// splitAround tiles [start, end) minus the single base page at `hole` with
// NAPOT pieces.
func splitAround(start, end, hole addr.VPN) []addr.Chunk {
	var out []addr.Chunk
	if hole > start {
		out = append(out, addr.SplitNAPOT(start, uint64(hole-start))...)
	}
	if hole+1 < end {
		out = append(out, addr.SplitNAPOT(hole+1, uint64(end-hole-1))...)
	}
	return out
}

// chargeCopy accounts the data copy of n base pages.
func (k *Kernel) chargeCopy(n uint64) {
	k.stats.Cow.CopiedPages += n
	k.stats.SysCycles += k.cfg.Costs.CopyPage * n
}

// shootPage invalidates TLB state for a page range after a CoW remap.
func (k *Kernel) shootPage(start, end addr.VPN) {
	if k.mmu != nil {
		k.mmu.ShootdownRange(start, end)
	}
}

// isWriteProtected reports the MMU's CoW fault.
func isWriteProtected(err error) bool { return errors.Is(err, mmu.ErrWriteProtected) }
