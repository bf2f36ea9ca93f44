package vmm

import (
	"testing"

	"tps/internal/addr"
	"tps/internal/mmu"
)

// cloneSetup maps and fully touches a region, then clones it CoW.
func cloneSetup(t *testing.T, cfg Config, pages uint64) (*Kernel, addr.Virt, addr.Virt) {
	t.Helper()
	k, _ := newSystem(t, cfg, 1<<16, mmu.OrgTPS)
	src, err := k.Mmap(pages*addr.BasePageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	touchRange(t, k, src, pages)
	dst, err := k.CloneCOW(src)
	if err != nil {
		t.Fatal(err)
	}
	return k, src, dst
}

func TestCloneSharesFramesReadOnly(t *testing.T) {
	k, src, dst := cloneSetup(t, DefaultConfig(PolicyTPS), 16)
	// Reads on both sides translate to the same physical frames.
	for i := uint64(0); i < 16; i++ {
		rs, err := k.Access(src+addr.Virt(i*addr.BasePageSize), false)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := k.Access(dst+addr.Virt(i*addr.BasePageSize), false)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Phys != rd.Phys {
			t.Fatalf("page %d: clone maps %#x, source %#x", i, uint64(rd.Phys), uint64(rs.Phys))
		}
	}
	// No extra physical memory was consumed by the clone (bookkeeping
	// aside, mapped frames are shared).
	if k.Stats().Cow.CopiedPages != 0 {
		t.Error("pages copied before any write")
	}
}

func TestCowSplitCopiesOnlyWrittenPage(t *testing.T) {
	cfg := DefaultConfig(PolicyTPS)
	cfg.CowPolicy = CowSplit
	k, src, dst := cloneSetup(t, cfg, 16)

	// The fully-touched 16-page region is one 64K tailored page. Write
	// page 5 via the clone.
	target := dst + 5*addr.BasePageSize
	if _, err := k.Access(target, true); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	if s.Cow.Faults != 1 {
		t.Fatalf("cow faults=%d", s.Cow.Faults)
	}
	if s.Cow.CopiedPages != 1 {
		t.Errorf("copied=%d, want 1 (split policy)", s.Cow.CopiedPages)
	}
	if s.Cow.SplitPages != 1 {
		t.Errorf("splits=%d", s.Cow.SplitPages)
	}
	// The written page now maps privately; its neighbours still share.
	rw, _ := k.Access(target, false)
	ro, _ := k.Access(src+5*addr.BasePageSize, false)
	if rw.Phys == ro.Phys {
		t.Error("written page still shared")
	}
	rn, _ := k.Access(dst+6*addr.BasePageSize, false)
	sn, _ := k.Access(src+6*addr.BasePageSize, false)
	if rn.Phys != sn.Phys {
		t.Error("unwritten neighbour no longer shared")
	}
	// Writing again to the same page must not fault again.
	before := k.Stats().Cow.Faults
	if _, err := k.Access(target, true); err != nil {
		t.Fatal(err)
	}
	if k.Stats().Cow.Faults != before {
		t.Error("second write faulted again")
	}
}

func TestCowFullCopiesWholePage(t *testing.T) {
	cfg := DefaultConfig(PolicyTPS)
	cfg.CowPolicy = CowFull
	k, _ := newSystem(t, cfg, 1<<16, mmu.OrgTPS)
	src, _ := k.Mmap(16*addr.BasePageSize, 0)
	touchRange(t, k, src, 16)
	dst, err := k.CloneCOW(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Access(dst+5*addr.BasePageSize, true); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	if s.Cow.CopiedPages != 16 {
		t.Errorf("copied=%d, want the whole 64K page", s.Cow.CopiedPages)
	}
	// The whole page is private now: every clone page differs from source.
	for i := uint64(0); i < 16; i++ {
		rd, _ := k.Access(dst+addr.Virt(i*addr.BasePageSize), false)
		rs, _ := k.Access(src+addr.Virt(i*addr.BasePageSize), false)
		if rd.Phys == rs.Phys {
			t.Fatalf("page %d still shared after full copy", i)
		}
	}
	// TLB pressure stays low: the census still shows one 64K page for
	// the clone region (CowFull's advantage).
	census := k.PageSizeCensus()
	if census[4] < 1 {
		t.Errorf("census=%v", census)
	}
}

func TestCowSourceWriteAlsoFaults(t *testing.T) {
	k, src, _ := cloneSetup(t, DefaultConfig(PolicyTPS), 8)
	if _, err := k.Access(src+2*addr.BasePageSize, true); err != nil {
		t.Fatal(err)
	}
	if k.Stats().Cow.Faults != 1 {
		t.Errorf("source write did not CoW-fault: %+v", k.Stats().Cow)
	}
}

func TestLastSharerSkipsCopy(t *testing.T) {
	k, src, dst := cloneSetup(t, DefaultConfig(PolicyTPS), 8)
	if err := k.Munmap(src); err != nil {
		t.Fatal(err)
	}
	// dst is the last sharer: a write restores permission without copy.
	if _, err := k.Access(dst+addr.BasePageSize, true); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	if s.Cow.CopiedPages != 0 {
		t.Errorf("copied=%d after last-sharer write", s.Cow.CopiedPages)
	}
}

func TestCowNoLeakOnMunmap(t *testing.T) {
	for _, policy := range []CowPolicy{CowSplit, CowFull} {
		cfg := DefaultConfig(PolicyTPS)
		cfg.CowPolicy = policy
		k, _ := newSystem(t, cfg, 1<<16, mmu.OrgTPS)
		free0 := k.bud.FreePages()
		src, _ := k.Mmap(32*addr.BasePageSize, 0)
		touchRange(t, k, src, 32)
		dst, err := k.CloneCOW(src)
		if err != nil {
			t.Fatal(err)
		}
		// Write a few pages on both sides.
		for i := uint64(0); i < 5; i++ {
			if _, err := k.Access(dst+addr.Virt(i*3*addr.BasePageSize), true); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := k.Access(src+7*addr.BasePageSize, true); err != nil {
			t.Fatal(err)
		}
		if err := k.Munmap(src); err != nil {
			t.Fatal(err)
		}
		if err := k.Munmap(dst); err != nil {
			t.Fatal(err)
		}
		if got := k.bud.FreePages(); got != free0 {
			t.Errorf("%v: leak: free %d != %d", policy, got, free0)
		}
		if err := k.bud.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCowSourceLazyFramesFreed: frames the source faults in after a clone
// are private to the source (CloneCOW handed the earlier ones to the share
// group), so munmap must free them even though the source no longer owns
// its reservation blocks.
func TestCowSourceLazyFramesFreed(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		org    mmu.Organization
	}{
		{PolicyBase4K, mmu.OrgConventional},
		{PolicyTHP, mmu.OrgConventional},
		{PolicyTPS, mmu.OrgTPS},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			k, _ := newSystem(t, DefaultConfig(tc.policy), 1<<16, tc.org)
			src, err := k.Mmap(64*addr.BasePageSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			touchRange(t, k, src, 32)
			dst, err := k.CloneCOW(src)
			if err != nil {
				t.Fatal(err)
			}
			touchRange(t, k, src+32*addr.BasePageSize, 32)
			for _, base := range []addr.Virt{src, dst} {
				if err := k.Munmap(base); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := k.bud.FreePages(), k.bud.TotalPages(); got != want {
				t.Errorf("leak: free %d != %d", got, want)
			}
			if err := k.bud.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCloneOfClone(t *testing.T) {
	k, src, dst := cloneSetup(t, DefaultConfig(PolicyTPS), 8)
	dst2, err := k.CloneCOW(dst)
	if err != nil {
		t.Fatal(err)
	}
	// All three share the same frames.
	a, _ := k.Access(src+addr.BasePageSize, false)
	b, _ := k.Access(dst+addr.BasePageSize, false)
	c, _ := k.Access(dst2+addr.BasePageSize, false)
	if a.Phys != b.Phys || b.Phys != c.Phys {
		t.Error("three-way sharing broken")
	}
	// Unmap all: no leak.
	free := k.bud.FreePages()
	_ = free
	for _, base := range []addr.Virt{src, dst, dst2} {
		if err := k.Munmap(base); err != nil {
			t.Fatal(err)
		}
	}
	if k.bud.FreePages() != k.bud.TotalPages() {
		t.Errorf("leak after unmapping all clones: %d != %d", k.bud.FreePages(), k.bud.TotalPages())
	}
}

// TestCloneKeepsPageAlignment clones a region whose base is not aligned
// to its largest reservation, after merging grew an 8-page page inside
// it. The clone must keep the source's offset within that alignment, or
// the shared page would land misaligned and the clone fail.
func TestCloneKeepsPageAlignment(t *testing.T) {
	k, _ := newSystem(t, DefaultConfig(PolicyTHP), 1<<12, mmu.OrgConventional)
	if _, err := k.Mmap(addr.BasePageSize, 0); err != nil {
		t.Fatal(err)
	}
	// 16 pages from base page 1: reservations of orders 0, 1, 2, 3, 0.
	src, err := k.Mmap(16*addr.BasePageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	touchRange(t, k, src, 16)
	k.MergePages()
	if k.PageSizeCensus()[3] != 1 {
		t.Fatalf("census %v: want one order-3 page to clone", k.PageSizeCensus())
	}
	dst, err := k.CloneCOW(src)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Offset(3) != src.Offset(3) {
		t.Errorf("clone base %#x, source %#x: offsets within 32K differ", uint64(dst), uint64(src))
	}
	for i := uint64(0); i < 16; i++ {
		a, _ := k.Access(src+addr.Virt(i*addr.BasePageSize), false)
		b, err := k.Access(dst+addr.Virt(i*addr.BasePageSize), false)
		if err != nil || a.Phys != b.Phys {
			t.Fatalf("page %d: clone maps %#x (%v), source %#x", i, uint64(b.Phys), err, uint64(a.Phys))
		}
	}
}

func TestCloneUnmappedBaseFails(t *testing.T) {
	k, _ := newSystem(t, DefaultConfig(PolicyTPS), 1<<12, mmu.OrgTPS)
	if _, err := k.CloneCOW(0x123000); err == nil {
		t.Error("clone of unmapped base accepted")
	}
}

func TestCowDisablesPromotion(t *testing.T) {
	k, _ := newSystem(t, DefaultConfig(PolicyTPS), 1<<14, mmu.OrgTPS)
	src, _ := k.Mmap(16*addr.BasePageSize, 0)
	touchRange(t, k, src, 4) // one 16K page so far
	if _, err := k.CloneCOW(src); err != nil {
		t.Fatal(err)
	}
	promos := k.Stats().Promotions
	// Touch the rest of the source: pages map 4K but must not promote.
	touchRange(t, k, src+4*addr.BasePageSize, 12)
	if k.Stats().Promotions != promos {
		t.Error("promotion occurred on a CoW-shared VMA")
	}
}

func TestCompactionDuringCowSharing(t *testing.T) {
	k, src, dst := cloneSetup(t, DefaultConfig(PolicyTPS), 16)
	// Private copies on the clone before compaction.
	if _, err := k.Access(dst+3*addr.BasePageSize, true); err != nil {
		t.Fatal(err)
	}
	// Fragment physical memory a bit, then compact.
	spare, _ := k.Mmap(64*addr.BasePageSize, 0)
	touchRange(t, k, spare, 64)
	if err := k.Munmap(spare); err != nil {
		t.Fatal(err)
	}
	k.Compact()
	// Sharing must survive relocation: unwritten pages still alias,
	// the written page stays private, everything still translates.
	for i := uint64(0); i < 16; i++ {
		rs, err := k.Access(src+addr.Virt(i*addr.BasePageSize), false)
		if err != nil {
			t.Fatalf("src page %d: %v", i, err)
		}
		rd, err := k.Access(dst+addr.Virt(i*addr.BasePageSize), false)
		if err != nil {
			t.Fatalf("dst page %d: %v", i, err)
		}
		if i == 3 {
			if rs.Phys == rd.Phys {
				t.Error("private copy re-shared by compaction")
			}
		} else if rs.Phys != rd.Phys {
			t.Errorf("page %d sharing broken by compaction", i)
		}
	}
	// And the final frees must not leak (group blocks were relocated).
	if err := k.Munmap(src); err != nil {
		t.Fatal(err)
	}
	if err := k.Munmap(dst); err != nil {
		t.Fatal(err)
	}
	if k.bud.FreePages() != k.bud.TotalPages() {
		t.Errorf("leak after compaction+unmap: %d != %d", k.bud.FreePages(), k.bud.TotalPages())
	}
	if err := k.bud.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
