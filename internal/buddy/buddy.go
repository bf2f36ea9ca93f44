// Package buddy implements the physical-memory buddy allocator the paper's
// OS layer depends on (§II-B). It tracks all free physical memory in
// per-order free lists of naturally aligned power-of-two blocks, splitting
// larger blocks on demand and eagerly merging freed buddies, exactly as the
// Linux allocator the paper describes. Each free list, and each order's set
// of allocated blocks, is a bitmap with one bit per aligned block; the
// lowest-addressed free block is always handed out first.
//
// Beyond allocation, the package provides the pieces the evaluation needs:
//
//   - /proc/buddyinfo-style snapshots of the free-list population,
//   - free-memory coverage analysis ("what fraction of free memory could a
//     single page size use", Fig. 15),
//   - compaction (migrating used blocks to coalesce free space, §II-B),
//   - deterministic churn for building fragmented initial states (Fig. 16).
package buddy

import (
	"fmt"
	"math/bits"
	"sort"

	"tps/internal/addr"
)

// blockSet is the set of naturally aligned blocks of one order, one bit per
// block (bit i is the block starting at frame i<<order). count caches the
// population; no bit is set in a word below low, so the lowest member is
// found by scanning forward from there.
type blockSet struct {
	words []uint64
	count int
	low   int
}

func newBlockSet(totalPages uint64, o addr.Order) blockSet {
	blocks := totalPages >> uint(o)
	n := int((blocks + 63) / 64)
	return blockSet{words: make([]uint64, n), low: n}
}

// has reports whether block i is in the set; indexes past the end are not.
func (s *blockSet) has(i uint64) bool {
	w := i / 64
	return w < uint64(len(s.words)) && s.words[w]&(1<<(i%64)) != 0
}

func (s *blockSet) add(i uint64) {
	w := int(i / 64)
	s.words[w] |= 1 << (i % 64)
	s.count++
	if w < s.low {
		s.low = w
	}
}

func (s *blockSet) remove(i uint64) {
	s.words[i/64] &^= 1 << (i % 64)
	s.count--
}

// popLowest removes and returns the lowest block index in the set.
func (s *blockSet) popLowest() (uint64, bool) {
	if s.count == 0 {
		return 0, false
	}
	w := s.low
	for s.words[w] == 0 {
		w++
	}
	s.low = w
	b := bits.TrailingZeros64(s.words[w])
	s.words[w] &^= 1 << uint(b)
	s.count--
	return uint64(w)*64 + uint64(b), true
}

// each calls fn with every block index in the set, in ascending order.
func (s *blockSet) each(fn func(i uint64)) {
	for w := s.low; w < len(s.words); w++ {
		for x := s.words[w]; x != 0; x &= x - 1 {
			fn(uint64(w)*64 + uint64(bits.TrailingZeros64(x)))
		}
	}
}

// MaxOrder is the largest block order the allocator manages. Linux uses 11
// (4 MB); we extend to addr.MaxOrder (1 GB) so tailored reservations up to
// the largest page size are a single free-list hit, mirroring the paper's
// assumption that the allocator can hand out any power-of-two block.
const MaxOrder = addr.MaxOrder

// Stats counts allocator work. The system-time model (Fig. 17) charges a
// fixed cost per operation, so the counters must cover every mutation.
type Stats struct {
	Allocs     uint64 // successful block allocations
	Frees      uint64 // block frees
	Splits     uint64 // block splits during allocation
	Merges     uint64 // buddy merges during free
	Failures   uint64 // allocation failures (no block large enough)
	Migrations uint64 // base pages moved by compaction
}

// Allocator is a buddy allocator over a contiguous physical range starting
// at frame 0. It is not safe for concurrent use; the simulator is
// single-threaded per address space, like the paper's PIN-based model.
type Allocator struct {
	totalPages uint64
	freePages  uint64

	// free[o] holds every free order-o block, so a buddy lookup during
	// merge is one bit test and allocation takes the lowest-addressed
	// block first, deterministically.
	free [MaxOrder + 1]blockSet

	// allocated[o] holds the first frame of every allocated order-o
	// block, so Free can validate and size the release, and compaction
	// can enumerate used blocks.
	allocated [MaxOrder + 1]blockSet

	// onCompact receive every compaction's block moves (see OnCompact).
	onCompact []func(RelocationSet)

	stats Stats
}

// New creates an allocator managing totalPages base frames. The range is
// seeded with the largest aligned blocks that fit, as after boot.
func New(totalPages uint64) *Allocator {
	a := &Allocator{totalPages: totalPages}
	for o := addr.Order(0); o <= MaxOrder; o++ {
		a.free[o] = newBlockSet(totalPages, o)
		a.allocated[o] = newBlockSet(totalPages, o)
	}
	var pfn addr.PFN
	remaining := totalPages
	for remaining > 0 {
		o := addr.LargestOrderFor(addr.VPN(pfn), remaining)
		if o > MaxOrder {
			o = MaxOrder
		}
		a.free[o].add(uint64(pfn) >> uint(o))
		pfn += addr.PFN(o.Pages())
		remaining -= o.Pages()
	}
	a.freePages = totalPages
	return a
}

// CopyFrom makes a's free and allocated blocks, free-page count and
// operation counters equal to src's. Nothing is shared with src afterwards,
// and a keeps its own OnCompact hooks. It panics if the two allocators
// manage different numbers of frames.
func (a *Allocator) CopyFrom(src *Allocator) {
	if a.totalPages != src.totalPages {
		panic(fmt.Sprintf("buddy: CopyFrom of %d frames into %d", src.totalPages, a.totalPages))
	}
	for o := range a.free {
		a.free[o].copyFrom(&src.free[o])
		a.allocated[o].copyFrom(&src.allocated[o])
	}
	a.freePages = src.freePages
	a.stats = src.stats
}

// copyFrom makes s equal to src, a set of the same size, in s's own words.
func (s *blockSet) copyFrom(src *blockSet) {
	copy(s.words, src.words)
	s.count, s.low = src.count, src.low
}

// TotalPages returns the number of base frames managed.
func (a *Allocator) TotalPages() uint64 { return a.totalPages }

// FreePages returns the number of free base frames.
func (a *Allocator) FreePages() uint64 { return a.freePages }

// Stats returns a copy of the operation counters.
func (a *Allocator) Stats() Stats { return a.stats }

// Alloc allocates a naturally aligned block of the given order, splitting a
// larger block if necessary (§II-B "Buddy Memory Allocation"). It returns
// the block's first frame, or an error if no sufficiently large block is
// free — the caller (OS) then falls back to smaller pages or compaction.
func (a *Allocator) Alloc(order addr.Order) (addr.PFN, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("buddy: order %d out of range", order)
	}
	for o := order; o <= MaxOrder; o++ {
		i, ok := a.free[o].popLowest()
		if !ok {
			continue
		}
		pfn := addr.PFN(i << uint(o))
		// Iteratively split until the block is the requested size; the
		// upper halves go back on the free lists.
		for cur := o; cur > order; cur-- {
			half := cur - 1
			upper := pfn + addr.PFN(half.Pages())
			a.free[half].add(uint64(upper) >> uint(half))
			a.stats.Splits++
		}
		a.allocated[order].add(uint64(pfn) >> uint(order))
		a.freePages -= order.Pages()
		a.stats.Allocs++
		return pfn, nil
	}
	a.stats.Failures++
	return 0, fmt.Errorf("buddy: no free block of order %d", order)
}

// AllocLargest allocates the largest available block of order <= max,
// returning its order. Used by reservation sizing under fragmentation:
// "leverage what contiguity it can" (§I).
func (a *Allocator) AllocLargest(max addr.Order) (addr.PFN, addr.Order, error) {
	for o := max; o >= 0; o-- {
		if a.free[o].count > 0 {
			pfn, err := a.Alloc(o)
			return pfn, o, err
		}
	}
	// Nothing at or below max: all free blocks are larger (or none); a
	// plain Alloc at max will split one if it exists.
	pfn, err := a.Alloc(max)
	return pfn, max, err
}

// Free releases a previously allocated block and merges it with its free
// buddy repeatedly (§II-B). The pfn must be the exact value returned by
// Alloc.
func (a *Allocator) Free(pfn addr.PFN) error {
	order, ok := a.Owned(pfn)
	if !ok {
		return fmt.Errorf("buddy: free of unowned block %#x", pfn)
	}
	a.allocated[order].remove(uint64(pfn) >> uint(order))
	a.freePages += order.Pages()
	a.stats.Frees++

	for order < MaxOrder {
		buddyPFN := pfn ^ addr.PFN(order.Pages())
		bi := uint64(buddyPFN) >> uint(order)
		if !a.free[order].has(bi) {
			break
		}
		a.free[order].remove(bi)
		if buddyPFN < pfn {
			pfn = buddyPFN
		}
		order++
		a.stats.Merges++
	}
	a.free[order].add(uint64(pfn) >> uint(order))
	return nil
}

// Owned reports whether pfn is the first frame of an allocated block, and
// the block's order.
func (a *Allocator) Owned(pfn addr.PFN) (addr.Order, bool) {
	if uint64(pfn) >= a.totalPages {
		return 0, false
	}
	// A block of order o starts on an o-aligned frame, so only the orders
	// up to pfn's alignment can own it.
	for o := addr.Order(0); o <= MaxOrder && pfn.Aligned(o); o++ {
		if a.allocated[o].has(uint64(pfn) >> uint(o)) {
			return o, true
		}
	}
	return 0, false
}

// FreeBlockCount returns the number of free blocks of the given order,
// mirroring one column of /proc/buddyinfo.
func (a *Allocator) FreeBlockCount(order addr.Order) int { return a.free[order].count }

// Snapshot returns the buddyinfo-style population: count of free blocks per
// order.
func (a *Allocator) Snapshot() [MaxOrder + 1]int {
	var s [MaxOrder + 1]int
	for o := range a.free {
		s[o] = a.free[o].count
	}
	return s
}

// Coverage computes, for each order, the fraction of total free memory that
// could be allocated using only pages of that single size (Fig. 15): each
// free block of order b contributes floor(2^b / 2^o) * 2^o base pages of
// coverage at order o. Order 0 coverage is always 1.0 when any memory is
// free.
func (a *Allocator) Coverage() [MaxOrder + 1]float64 {
	var cov [MaxOrder + 1]float64
	if a.freePages == 0 {
		return cov
	}
	for o := addr.Order(0); o <= MaxOrder; o++ {
		var usable uint64
		for b := o; b <= MaxOrder; b++ {
			// Free-list blocks are naturally aligned, so every free
			// order-b block (b >= o) is fully tileable by order-o pages.
			usable += uint64(a.free[b].count) * b.Pages()
		}
		cov[o] = float64(usable) / float64(a.freePages)
	}
	return cov
}

// LargestFreeOrder returns the order of the largest free block, or -1 if
// no memory is free.
func (a *Allocator) LargestFreeOrder() addr.Order {
	for o := addr.Order(MaxOrder); o >= 0; o-- {
		if a.free[o].count > 0 {
			return o
		}
	}
	return -1
}

// usedBlock is one allocated block, for compaction planning.
type usedBlock struct {
	pfn   addr.PFN
	order addr.Order
}

// Relocation records one block's move during compaction.
type Relocation struct {
	Old   addr.PFN
	New   addr.PFN
	Order addr.Order
}

// RelocationSet resolves arbitrary frames through a compaction's block
// moves (the OS uses it to rewrite PTEs that point anywhere inside a
// moved block, including frames referenced by several address spaces).
type RelocationSet []Relocation

// Resolve maps a frame through the set: frames inside a moved block
// translate by the block's displacement; others are unchanged.
func (rs RelocationSet) Resolve(pfn addr.PFN) addr.PFN {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Old > pfn }) - 1
	if i < 0 {
		return pfn
	}
	r := rs[i]
	if pfn >= r.Old+addr.PFN(r.Order.Pages()) {
		return pfn
	}
	return r.New + (pfn - r.Old)
}

// Compact migrates allocated blocks toward low addresses to coalesce free
// memory, modeling the memory-compaction daemon (§II-B). It returns the
// relocations (sorted by old address) so the OS can update PTEs and shoot
// down TLB entries. Compaction preserves each block's order and natural
// alignment.
//
// The model is idealized full compaction: all used blocks are re-placed
// first-fit in address order. The paper's daemon is incremental, but the
// evaluation only needs before/after contiguity states.
func (a *Allocator) Compact() RelocationSet {
	n := 0
	for o := range a.allocated {
		n += a.allocated[o].count
	}
	// Place the largest blocks first (their alignment constraints are the
	// tightest), breaking ties by current address for determinism.
	used := make([]usedBlock, 0, n)
	for o := addr.Order(MaxOrder); o >= 0; o-- {
		a.allocated[o].each(func(i uint64) {
			used = append(used, usedBlock{addr.PFN(i << uint(o)), o})
		})
	}

	// Rebuild the world: everything free, then re-allocate in sorted order.
	relocation := make(RelocationSet, 0, len(used))
	fresh := New(a.totalPages)
	for _, b := range used {
		newPFN, err := fresh.Alloc(b.order)
		if err != nil {
			// Cannot happen: the same blocks fit before.
			panic(fmt.Sprintf("buddy: compaction lost block: %v", err))
		}
		if newPFN != b.pfn {
			a.stats.Migrations += b.order.Pages()
		}
		relocation = append(relocation, Relocation{Old: b.pfn, New: newPFN, Order: b.order})
	}
	a.free = fresh.free
	a.allocated = fresh.allocated
	a.freePages = fresh.freePages
	sort.Slice(relocation, func(i, j int) bool { return relocation[i].Old < relocation[j].Old })
	for _, f := range a.onCompact {
		f(relocation)
	}
	return relocation
}

// OnCompact registers f to receive the relocations of every later
// compaction, in registration order, before Compact returns. Each OS
// instance allocating from the allocator registers, so a compaction that
// any one of them starts rewrites the mappings of all of them.
func (a *Allocator) OnCompact(f func(RelocationSet)) { a.onCompact = append(a.onCompact, f) }

// CheckInvariants verifies internal consistency: free lists hold aligned,
// in-range, non-overlapping blocks; free page accounting matches; no block
// is both free and owned; every per-order count and low-word hint agrees
// with its bitmap. Tests call this after randomized operation sequences.
func (a *Allocator) CheckInvariants() error {
	covered := make([]uint64, (a.totalPages+63)/64)
	claim := func(pfn addr.PFN, o addr.Order, what string) error {
		if uint64(pfn)+o.Pages() > a.totalPages {
			return fmt.Errorf("%s block %#x order %d out of range", what, pfn, o)
		}
		for f := uint64(pfn); f < uint64(pfn)+o.Pages(); f++ {
			if covered[f/64]&(1<<(f%64)) != 0 {
				return fmt.Errorf("frame %#x claimed twice (%s block %#x order %d)", f, what, pfn, o)
			}
			covered[f/64] |= 1 << (f % 64)
		}
		return nil
	}
	var freeCount, ownedCount uint64
	for o := addr.Order(0); o <= MaxOrder; o++ {
		for _, set := range []struct {
			s     *blockSet
			what  string
			total *uint64
		}{{&a.free[o], "free", &freeCount}, {&a.allocated[o], "owned", &ownedCount}} {
			if err := set.s.check(); err != nil {
				return fmt.Errorf("%s order %d: %v", set.what, o, err)
			}
			var err error
			set.s.each(func(i uint64) {
				if err == nil {
					err = claim(addr.PFN(i<<uint(o)), o, set.what)
				}
			})
			if err != nil {
				return err
			}
			*set.total += uint64(set.s.count) * o.Pages()
		}
	}
	if freeCount != a.freePages {
		return fmt.Errorf("freePages=%d but free lists hold %d", a.freePages, freeCount)
	}
	if freeCount+ownedCount != a.totalPages {
		return fmt.Errorf("accounting: free %d + owned %d != total %d", freeCount, ownedCount, a.totalPages)
	}
	return nil
}

// check verifies the set's cached count and low-word hint.
func (s *blockSet) check() error {
	n := 0
	for w, x := range s.words {
		if x != 0 && w < s.low {
			return fmt.Errorf("word %d set below hint %d", w, s.low)
		}
		n += bits.OnesCount64(x)
	}
	if n != s.count {
		return fmt.Errorf("count %d but %d bits set", s.count, n)
	}
	return nil
}
