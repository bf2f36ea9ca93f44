package buddy

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tps/internal/addr"
)

func TestNewSeedsLargestBlocks(t *testing.T) {
	// 1M base pages = 4 GB: 4 x 1GB blocks.
	a := New(1 << 20)
	if a.FreePages() != 1<<20 {
		t.Fatalf("free=%d", a.FreePages())
	}
	if got := a.FreeBlockCount(addr.Order1G); got != 4 {
		t.Errorf("1G blocks=%d, want 4", got)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewOddSize(t *testing.T) {
	// 7 pages: blocks of 4+2+1.
	a := New(7)
	if a.FreeBlockCount(2) != 1 || a.FreeBlockCount(1) != 1 || a.FreeBlockCount(0) != 1 {
		t.Errorf("snapshot=%v", a.Snapshot())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocSplitsAndFreeMerges(t *testing.T) {
	a := New(16) // one order-4 block
	pfn, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if pfn != 0 {
		t.Errorf("first alloc at %#x, want 0 (lowest-address policy)", pfn)
	}
	// Splitting order 4 -> 0 creates one free block at each order 0..3.
	for o := addr.Order(0); o <= 3; o++ {
		if got := a.FreeBlockCount(o); got != 1 {
			t.Errorf("order %d free blocks=%d, want 1", o, got)
		}
	}
	if a.Stats().Splits != 4 {
		t.Errorf("splits=%d, want 4", a.Stats().Splits)
	}
	if err := a.Free(pfn); err != nil {
		t.Fatal(err)
	}
	// Everything must merge back into the single order-4 block.
	if got := a.FreeBlockCount(4); got != 1 {
		t.Errorf("after free, order-4 blocks=%d, want 1", got)
	}
	if a.Stats().Merges != 4 {
		t.Errorf("merges=%d, want 4", a.Stats().Merges)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocDeterministicLowestFirst(t *testing.T) {
	a := New(64)
	var prev addr.PFN
	for i := 0; i < 16; i++ {
		pfn, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && pfn <= prev {
			t.Fatalf("allocation order not ascending: %#x after %#x", pfn, prev)
		}
		prev = pfn
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := New(4)
	if _, err := a.Alloc(2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("expected exhaustion")
	}
	if a.Stats().Failures != 1 {
		t.Errorf("failures=%d", a.Stats().Failures)
	}
}

func TestFreeUnowned(t *testing.T) {
	a := New(16)
	if err := a.Free(3); err == nil {
		t.Fatal("free of unowned block should error")
	}
	pfn, _ := a.Alloc(1)
	if err := a.Free(pfn); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pfn); err == nil {
		t.Fatal("double free should error")
	}
}

func TestAllocAlignment(t *testing.T) {
	a := New(1 << 12)
	for _, o := range []addr.Order{0, 1, 3, 5, 9} {
		pfn, err := a.Alloc(o)
		if err != nil {
			t.Fatal(err)
		}
		if !pfn.Aligned(o) {
			t.Errorf("order %d block at %#x misaligned", o, pfn)
		}
	}
}

func TestAllocLargest(t *testing.T) {
	a := New(8) // order-3 block
	p1, _ := a.Alloc(0)
	_ = p1
	// Remaining free: order 0 (1), order 1 (2..3), order 2 (4..7).
	pfn, got, err := a.AllocLargest(9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 || pfn != 4 {
		t.Errorf("AllocLargest gave order %d at %#x, want order 2 at 4", got, pfn)
	}
	// With max below the largest free block, splits happen via Alloc.
	pfn2, got2, err := a.AllocLargest(0)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 0 {
		t.Errorf("AllocLargest(0) order=%d", got2)
	}
	_ = pfn2
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageFreshAllocator(t *testing.T) {
	a := New(1 << 20)
	cov := a.Coverage()
	for o := addr.Order(0); o <= addr.Order1G; o++ {
		if cov[o] < 0.999 {
			t.Errorf("fresh allocator coverage at %v = %f, want ~1", o, cov[o])
		}
	}
}

func TestCoverageFragmented(t *testing.T) {
	a := New(8)
	// Allocate all 8, free alternating singles: frames 1,3,5,7 free.
	var pfns []addr.PFN
	for i := 0; i < 8; i++ {
		p, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		pfns = append(pfns, p)
	}
	for i := 1; i < 8; i += 2 {
		if err := a.Free(pfns[i]); err != nil {
			t.Fatal(err)
		}
	}
	cov := a.Coverage()
	if cov[0] != 1.0 {
		t.Errorf("order-0 coverage=%f, want 1", cov[0])
	}
	if cov[1] != 0.0 {
		t.Errorf("order-1 coverage=%f, want 0 (no contiguity)", cov[1])
	}
}

func TestCoverageEmptyAllocator(t *testing.T) {
	a := New(4)
	p, _ := a.Alloc(2)
	_ = p
	cov := a.Coverage()
	if cov[0] != 0 {
		t.Errorf("coverage of empty free space=%f", cov[0])
	}
}

func TestCompactCoalesces(t *testing.T) {
	a := New(64)
	// Fragment: allocate 32 singles, free every other one.
	var pfns []addr.PFN
	for i := 0; i < 32; i++ {
		p, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		pfns = append(pfns, p)
	}
	for i := 0; i < 32; i += 2 {
		if err := a.Free(pfns[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Coverage()
	reloc := a.Compact()
	after := a.Coverage()
	// Before: frames 0..31 hold interleaved used/free singles, so no
	// order-4 contiguity exists there. After: free space is 16..63, all
	// of it usable at order 4.
	if after[4] <= before[4] {
		t.Errorf("compaction did not improve order-4 coverage: %f -> %f", before[4], after[4])
	}
	if after[4] != 1.0 {
		t.Errorf("order-4 coverage after compaction=%f, want 1", after[4])
	}
	if len(reloc) != 16 {
		t.Errorf("relocation map has %d entries, want 16", len(reloc))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All 16 used singles must now sit at frames 0..15.
	for _, r := range reloc {
		if r.New >= 16 {
			t.Errorf("block relocated to %#x, expected dense low placement", r.New)
		}
	}
	// Resolve follows interior frames of moved blocks.
	if len(reloc) > 0 {
		r0 := reloc[0]
		if got := reloc.Resolve(r0.Old); got != r0.New {
			t.Errorf("Resolve(%#x)=%#x, want %#x", r0.Old, got, r0.New)
		}
	}
	// Frames never allocated resolve to themselves.
	if got := reloc.Resolve(63); got != 63 {
		t.Errorf("Resolve(free frame)=%#x", got)
	}
}

func TestCompactPreservesBlockCount(t *testing.T) {
	a := New(256)
	var owned []addr.PFN
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		o := addr.Order(rng.Intn(3))
		p, err := a.Alloc(o)
		if err != nil {
			continue
		}
		owned = append(owned, p)
	}
	freeBefore := a.FreePages()
	reloc := a.Compact()
	if a.FreePages() != freeBefore {
		t.Errorf("compaction changed free pages: %d -> %d", freeBefore, a.FreePages())
	}
	moved := make(map[addr.PFN]bool)
	for _, r := range reloc {
		moved[r.Old] = true
	}
	for _, old := range owned {
		if !moved[old] {
			t.Errorf("owned block %#x missing from relocation set", old)
		}
	}
}

// Randomized stress: interleaved allocs/frees at random orders keep all
// invariants and never lose memory.
func TestRandomizedStress(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	a := New(1 << 14) // 64 MB
	live := make(map[addr.PFN]struct{})
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 && len(live) < 2000 {
			o := addr.Order(rng.Intn(8))
			pfn, err := a.Alloc(o)
			if err == nil {
				live[pfn] = struct{}{}
			}
		} else if len(live) > 0 {
			// Remove one deterministically-ish.
			var victim addr.PFN
			k := rng.Intn(len(live))
			for p := range live {
				if k == 0 {
					victim = p
					break
				}
				k--
			}
			delete(live, victim)
			if err := a.Free(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Free everything: must merge back into maximal blocks.
	for p := range live {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreePages() != a.TotalPages() {
		t.Errorf("leak: free=%d total=%d", a.FreePages(), a.TotalPages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := a.FreeBlockCount(14); got != 1 {
		t.Errorf("expected full merge into one order-14 block, snapshot=%v", a.Snapshot())
	}
}

func TestSnapshotMatchesCounts(t *testing.T) {
	a := New(1024)
	a.Alloc(3)
	a.Alloc(0)
	s := a.Snapshot()
	for o := addr.Order(0); o <= MaxOrder; o++ {
		if s[o] != a.FreeBlockCount(o) {
			t.Errorf("snapshot[%d]=%d != FreeBlockCount=%d", o, s[o], a.FreeBlockCount(o))
		}
	}
}

func TestOwned(t *testing.T) {
	a := New(64)
	p, _ := a.Alloc(2)
	if o, ok := a.Owned(p); !ok || o != 2 {
		t.Errorf("Owned=%d,%v", o, ok)
	}
	if _, ok := a.Owned(p + 1); ok {
		t.Error("interior frame reported as block start")
	}
}

func TestLargestFreeOrderEmpty(t *testing.T) {
	a := New(1)
	a.Alloc(0)
	if got := a.LargestFreeOrder(); got != -1 {
		t.Errorf("LargestFreeOrder on full allocator=%d", got)
	}
}

func TestAllocInvalidOrder(t *testing.T) {
	a := New(16)
	if _, err := a.Alloc(-1); err == nil {
		t.Error("negative order accepted")
	}
	if _, err := a.Alloc(MaxOrder + 1); err == nil {
		t.Error("oversized order accepted")
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(1 << 18)
	for i := 0; i < b.N; i++ {
		p, err := a.Alloc(addr.Order(i % 4))
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRelocationSetResolveInterior(t *testing.T) {
	rs := RelocationSet{
		{Old: 0x100, New: 0x10, Order: 2}, // 4 frames
		{Old: 0x200, New: 0x20, Order: 0},
	}
	cases := map[addr.PFN]addr.PFN{
		0x100: 0x10,
		0x103: 0x13, // interior frame follows the block
		0x104: 0x104,
		0x200: 0x20,
		0x1ff: 0x1ff,
		0x50:  0x50,
	}
	for in, want := range cases {
		if got := rs.Resolve(in); got != want {
			t.Errorf("Resolve(%#x)=%#x, want %#x", in, got, want)
		}
	}
}

// refAllocator is the allocator as it was before the bitmap rewrite: Go-map
// free sets shadowed by lazily pruned min-heaps, and an owner map. The
// differential tests drive it and Allocator through the same operations
// and require identical answers.
type refAllocator struct {
	totalPages uint64
	freePages  uint64
	freeLists  [MaxOrder + 1]map[addr.PFN]struct{}
	heaps      [MaxOrder + 1]pfnHeap
	owner      map[addr.PFN]addr.Order
	stats      Stats
}

type pfnHeap []addr.PFN

func (h pfnHeap) Len() int            { return len(h) }
func (h pfnHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h pfnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pfnHeap) Push(x interface{}) { *h = append(*h, x.(addr.PFN)) }
func (h *pfnHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func newRef(totalPages uint64) *refAllocator {
	a := &refAllocator{totalPages: totalPages, owner: make(map[addr.PFN]addr.Order)}
	for o := range a.freeLists {
		a.freeLists[o] = make(map[addr.PFN]struct{})
	}
	var pfn addr.PFN
	for remaining := totalPages; remaining > 0; {
		o := addr.LargestOrderFor(addr.VPN(pfn), remaining)
		if o > MaxOrder {
			o = MaxOrder
		}
		a.pushFree(o, pfn)
		pfn += addr.PFN(o.Pages())
		remaining -= o.Pages()
	}
	a.freePages = totalPages
	return a
}

func (a *refAllocator) Alloc(order addr.Order) (addr.PFN, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("buddy: order %d out of range", order)
	}
	for o := order; o <= MaxOrder; o++ {
		pfn, ok := a.popFree(o)
		if !ok {
			continue
		}
		for cur := o; cur > order; cur-- {
			a.pushFree(cur-1, pfn+addr.PFN((cur-1).Pages()))
			a.stats.Splits++
		}
		a.owner[pfn] = order
		a.freePages -= order.Pages()
		a.stats.Allocs++
		return pfn, nil
	}
	a.stats.Failures++
	return 0, fmt.Errorf("buddy: no free block of order %d", order)
}

func (a *refAllocator) AllocLargest(max addr.Order) (addr.PFN, addr.Order, error) {
	for o := max; o >= 0; o-- {
		if len(a.freeLists[o]) > 0 {
			pfn, err := a.Alloc(o)
			return pfn, o, err
		}
	}
	pfn, err := a.Alloc(max)
	return pfn, max, err
}

func (a *refAllocator) Free(pfn addr.PFN) error {
	order, ok := a.owner[pfn]
	if !ok {
		return fmt.Errorf("buddy: free of unowned block %#x", pfn)
	}
	delete(a.owner, pfn)
	a.freePages += order.Pages()
	a.stats.Frees++
	for order < MaxOrder {
		buddyPFN := pfn ^ addr.PFN(order.Pages())
		if _, free := a.freeLists[order][buddyPFN]; !free {
			break
		}
		delete(a.freeLists[order], buddyPFN)
		if buddyPFN < pfn {
			pfn = buddyPFN
		}
		order++
		a.stats.Merges++
	}
	a.pushFree(order, pfn)
	return nil
}

func (a *refAllocator) pushFree(o addr.Order, pfn addr.PFN) {
	a.freeLists[o][pfn] = struct{}{}
	heap.Push(&a.heaps[o], pfn)
}

func (a *refAllocator) popFree(o addr.Order) (addr.PFN, bool) {
	h := &a.heaps[o]
	for h.Len() > 0 {
		pfn := heap.Pop(h).(addr.PFN)
		if _, ok := a.freeLists[o][pfn]; ok {
			delete(a.freeLists[o], pfn)
			return pfn, true
		}
	}
	return 0, false
}

func (a *refAllocator) Owned(pfn addr.PFN) (addr.Order, bool) {
	o, ok := a.owner[pfn]
	return o, ok
}

func (a *refAllocator) Snapshot() [MaxOrder + 1]int {
	var s [MaxOrder + 1]int
	for o := range a.freeLists {
		s[o] = len(a.freeLists[o])
	}
	return s
}

func (a *refAllocator) Coverage() [MaxOrder + 1]float64 {
	var cov [MaxOrder + 1]float64
	if a.freePages == 0 {
		return cov
	}
	for o := addr.Order(0); o <= MaxOrder; o++ {
		var usable uint64
		for b := o; b <= MaxOrder; b++ {
			usable += uint64(len(a.freeLists[b])) * b.Pages()
		}
		cov[o] = float64(usable) / float64(a.freePages)
	}
	return cov
}

func (a *refAllocator) LargestFreeOrder() addr.Order {
	for o := addr.Order(MaxOrder); o >= 0; o-- {
		if len(a.freeLists[o]) > 0 {
			return o
		}
	}
	return -1
}

func (a *refAllocator) Compact() RelocationSet {
	used := make([]usedBlock, 0, len(a.owner))
	for pfn, o := range a.owner {
		used = append(used, usedBlock{pfn, o})
	}
	sort.Slice(used, func(i, j int) bool {
		if used[i].order != used[j].order {
			return used[i].order > used[j].order
		}
		return used[i].pfn < used[j].pfn
	})
	relocation := make(RelocationSet, 0, len(used))
	fresh := newRef(a.totalPages)
	for _, b := range used {
		newPFN, err := fresh.Alloc(b.order)
		if err != nil {
			panic(fmt.Sprintf("buddy: compaction lost block: %v", err))
		}
		if newPFN != b.pfn {
			a.stats.Migrations += b.order.Pages()
		}
		relocation = append(relocation, Relocation{Old: b.pfn, New: newPFN, Order: b.order})
	}
	a.freeLists = fresh.freeLists
	a.heaps = fresh.heaps
	a.owner = fresh.owner
	a.freePages = fresh.freePages
	sort.Slice(relocation, func(i, j int) bool { return relocation[i].Old < relocation[j].Old })
	return relocation
}

// diffAllocators fails the test unless a and ref agree on every
// observable: free pages, Snapshot, Coverage, LargestFreeOrder and Stats,
// and Owned at every frame; and a's invariants hold.
func diffAllocators(t *testing.T, step string, a *Allocator, ref *refAllocator) {
	t.Helper()
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if a.FreePages() != ref.freePages {
		t.Fatalf("%s: free pages %d, reference %d", step, a.FreePages(), ref.freePages)
	}
	if a.Snapshot() != ref.Snapshot() {
		t.Fatalf("%s: snapshot %v, reference %v", step, a.Snapshot(), ref.Snapshot())
	}
	if a.Coverage() != ref.Coverage() {
		t.Fatalf("%s: coverage %v, reference %v", step, a.Coverage(), ref.Coverage())
	}
	if a.LargestFreeOrder() != ref.LargestFreeOrder() {
		t.Fatalf("%s: largest free order %d, reference %d", step, a.LargestFreeOrder(), ref.LargestFreeOrder())
	}
	if a.Stats() != ref.stats {
		t.Fatalf("%s: stats %+v, reference %+v", step, a.Stats(), ref.stats)
	}
	for pfn := addr.PFN(0); pfn < addr.PFN(a.TotalPages()); pfn++ {
		o, ok := a.Owned(pfn)
		ro, rok := ref.Owned(pfn)
		if ok != rok || o != ro {
			t.Fatalf("%s: Owned(%#x) = %d,%v, reference %d,%v", step, pfn, o, ok, ro, rok)
		}
	}
}

// TestDifferentialAgainstReference drives the bitmap allocator and the
// map+heap reference through one seeded random sequence of Alloc,
// AllocLargest, Free and Compact — with phases of fragmenting churn — and
// requires identical results at every step.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, total := range []uint64{1 << 12, 3000, 1<<12 + 37} {
		t.Run(fmt.Sprint(total), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(total)))
			a, ref := New(total), newRef(total)
			var live []addr.PFN
			for step := 0; step < 3000; step++ {
				var desc string
				switch op := rng.Intn(100); {
				case op < 40:
					// Mostly small blocks, as the fragmenting server load.
					o := addr.Order(0)
					for o < 10 && rng.Intn(2) == 0 {
						o++
					}
					if rng.Intn(50) == 0 {
						o = addr.Order(rng.Intn(int(MaxOrder)+3)) - 1 // out-of-range orders too
					}
					pfn, err := a.Alloc(o)
					rpfn, rerr := ref.Alloc(o)
					desc = fmt.Sprintf("step %d Alloc(%d)", step, o)
					if pfn != rpfn || fmt.Sprint(err) != fmt.Sprint(rerr) {
						t.Fatalf("%s = %#x,%v, reference %#x,%v", desc, pfn, err, rpfn, rerr)
					}
					if err == nil {
						live = append(live, pfn)
					}
				case op < 55:
					max := addr.Order(rng.Intn(12))
					pfn, o, err := a.AllocLargest(max)
					rpfn, ro, rerr := ref.AllocLargest(max)
					desc = fmt.Sprintf("step %d AllocLargest(%d)", step, max)
					if pfn != rpfn || o != ro || fmt.Sprint(err) != fmt.Sprint(rerr) {
						t.Fatalf("%s = %#x,%d,%v, reference %#x,%d,%v", desc, pfn, o, err, rpfn, ro, rerr)
					}
					if err == nil {
						live = append(live, pfn)
					}
				case op < 97:
					// Free a live block, or now and then a frame that is
					// not a block start (double free, interior, out of range).
					var pfn addr.PFN
					if len(live) > 0 && rng.Intn(10) != 0 {
						i := rng.Intn(len(live))
						pfn = live[i]
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					} else {
						pfn = addr.PFN(rng.Int63n(int64(total) + 64))
					}
					err, rerr := a.Free(pfn), ref.Free(pfn)
					desc = fmt.Sprintf("step %d Free(%#x)", step, pfn)
					if fmt.Sprint(err) != fmt.Sprint(rerr) {
						t.Fatalf("%s = %v, reference %v", desc, err, rerr)
					}
				default:
					rs, rrs := a.Compact(), ref.Compact()
					desc = fmt.Sprintf("step %d Compact", step)
					if !reflect.DeepEqual(rs, rrs) {
						t.Fatalf("%s relocations differ:\n%v\nreference\n%v", desc, rs, rrs)
					}
					for i, pfn := range live {
						live[i] = rs.Resolve(pfn)
					}
				}
				diffAllocators(t, desc, a, ref)
			}
		})
	}
}

// TestFreeAndOwnedRejectNonBlocks pins the validation the owner map gave:
// out-of-range, unaligned and interior frames are not owned and cannot be
// freed, with the same error as before.
func TestFreeAndOwnedRejectNonBlocks(t *testing.T) {
	a, ref := New(100), newRef(100)
	for _, o := range []addr.Order{3, 0, 2, 5} {
		pfn, _ := a.Alloc(o)
		ref.Alloc(o)
		_ = pfn
	}
	for _, pfn := range []addr.PFN{0, 1, 4, 7, 8, 9, 12, 31, 32, 33, 64, 99, 100, 101, 128, 1 << 20, 1 << 40} {
		o, ok := a.Owned(pfn)
		ro, rok := ref.Owned(pfn)
		if o != ro || ok != rok {
			t.Errorf("Owned(%#x) = %d,%v, reference %d,%v", pfn, o, ok, ro, rok)
		}
	}
	for _, pfn := range []addr.PFN{1, 7, 9, 12, 33, 99, 100, 128, 1 << 20, 1 << 40} {
		err, rerr := a.Free(pfn), ref.Free(pfn)
		if err == nil || fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Errorf("Free(%#x) = %v, reference %v", pfn, err, rerr)
		}
	}
	diffAllocators(t, "after rejected frees", a, ref)
}

// churned returns an allocator over n frames after a seeded mix of
// allocations and frees, with the frames it still holds.
func churned(n uint64, seed int64) (*Allocator, []addr.PFN) {
	a := New(n)
	rng := rand.New(rand.NewSource(seed))
	var held []addr.PFN
	for i := 0; i < int(n)/4; i++ {
		if len(held) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(held))
			_ = a.Free(held[j])
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
			continue
		}
		if p, err := a.Alloc(addr.Order(rng.Intn(4))); err == nil {
			held = append(held, p)
		}
	}
	return a, held
}

func TestCopyFromEqualsSource(t *testing.T) {
	src, held := churned(1<<12, 5)
	dst := New(1 << 12)
	dst.CopyFrom(src)
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if dst.Stats() != src.Stats() || dst.FreePages() != src.FreePages() ||
		dst.Snapshot() != src.Snapshot() || dst.Coverage() != src.Coverage() {
		t.Fatalf("copy differs: stats %+v vs %+v, snapshot %v vs %v",
			dst.Stats(), src.Stats(), dst.Snapshot(), src.Snapshot())
	}
	for _, p := range held {
		so, _ := src.Owned(p)
		if do, ok := dst.Owned(p); !ok || do != so {
			t.Fatalf("block %#x: copy owns (%d, %v), source order %d", p, do, ok, so)
		}
	}
	// The copy shares no bitmap with the source: draining it leaves the
	// source as it was.
	before := src.Snapshot()
	for {
		if _, err := dst.Alloc(0); err != nil {
			break
		}
	}
	if src.Snapshot() != before || src.FreePages() == 0 {
		t.Error("allocating from the copy changed the source")
	}
}

func TestCopyFromSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom across sizes did not panic")
		}
	}()
	New(1 << 10).CopyFrom(New(1 << 11))
}

func TestCopyFromKeepsOwnCompactHooks(t *testing.T) {
	src, _ := churned(1<<10, 9)
	var srcCalls, dstCalls int
	src.OnCompact(func(RelocationSet) { srcCalls++ })
	dst := New(1 << 10)
	dst.OnCompact(func(RelocationSet) { dstCalls++ })
	dst.CopyFrom(src)
	dst.Compact()
	if dstCalls != 1 || srcCalls != 0 {
		t.Errorf("Compact on the copy called its own hook %d times and the source's %d times, want 1 and 0", dstCalls, srcCalls)
	}
}
