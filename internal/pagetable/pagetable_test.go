package pagetable

import (
	"errors"
	"math/rand"
	"testing"

	"tps/internal/addr"
	"tps/internal/pte"
)

func TestMapWalk4K(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	v := addr.Virt(0x7f1234567000)
	if err := pt.Map(v, 0x42, 0, pte.FlagWrite); err != nil {
		t.Fatal(err)
	}
	res, err := pt.Walk(v | 0x123)
	if err != nil {
		t.Fatal(err)
	}
	if res.PFN != 0x42 || res.Order != 0 {
		t.Errorf("res=%+v", res)
	}
	if res.MemRefs != 4 {
		t.Errorf("4K walk should take 4 refs, got %d", res.MemRefs)
	}
	if res.VPN != v.PageNumber() {
		t.Errorf("VPN=%#x", res.VPN)
	}
}

func TestWalkNotMapped(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	if _, err := pt.Walk(0x1000); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("err=%v", err)
	}
	// An empty table aborts at the root: 1 memory reference.
	pt.Map(0x5000, 1, 0, 0)
	res, err := pt.Walk(0x5000)
	if err != nil || res.PFN != 1 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	// Sibling address in the same leaf table: full-depth walk, then miss.
	if _, err := pt.Walk(0x6000); !errors.Is(err, ErrNotMapped) {
		t.Fatal("expected miss")
	}
}

func TestMapWalk2M1G(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	v2m := addr.Virt(0x40000000)
	if err := pt.Map(v2m, 0x200, addr.Order2M, 0); err != nil {
		t.Fatal(err)
	}
	res, err := pt.Walk(v2m + 0x123456)
	if err != nil {
		t.Fatal(err)
	}
	if res.Order != addr.Order2M || res.Level != 1 || res.MemRefs != 3 {
		t.Errorf("2M walk: %+v", res)
	}
	if res.PFN != 0x200 {
		t.Errorf("2M pfn=%#x", res.PFN)
	}

	v1g := addr.Virt(0x8000000000)
	if err := pt.Map(v1g, 1<<18, addr.Order1G, 0); err != nil {
		t.Fatal(err)
	}
	res, err = pt.Walk(v1g + 0x3fffffff)
	if err != nil {
		t.Fatal(err)
	}
	if res.Order != addr.Order1G || res.Level != 2 || res.MemRefs != 2 {
		t.Errorf("1G walk: %+v", res)
	}
}

func TestTailoredSmallOrderAliases(t *testing.T) {
	// 32 KB page (order 3): 8 slots, 1 true + 7 aliases.
	pt := New(addr.Levels4, ExtraLookup)
	v := addr.Virt(0x10000000) // order-3 aligned
	if err := pt.Map(v, 0x100<<3, 3, pte.FlagWrite); err != nil {
		t.Fatal(err)
	}
	// Walk through the true PTE: 4 refs, no alias.
	res, err := pt.Walk(v)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs != 4 || res.Alias {
		t.Errorf("true-slot walk: %+v", res)
	}
	// Walk landing on an alias slot: 5 refs (extra access, Fig. 6).
	res, err = pt.Walk(v + 3*addr.BasePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs != 5 || !res.Alias {
		t.Errorf("alias-slot walk: %+v", res)
	}
	if res.PFN != 0x100<<3 || res.Order != 3 || res.VPN != v.PageNumber() {
		t.Errorf("alias walk result: %+v", res)
	}
	if pt.Stats().AliasExtras != 1 {
		t.Errorf("aliasExtras=%d", pt.Stats().AliasExtras)
	}
}

func TestTailoredFullCopyNoExtraAccess(t *testing.T) {
	pt := New(addr.Levels4, FullCopy)
	v := addr.Virt(0x10000000)
	if err := pt.Map(v, 0x100<<3, 3, pte.FlagWrite); err != nil {
		t.Fatal(err)
	}
	res, err := pt.Walk(v + 5*addr.BasePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs != 4 {
		t.Errorf("full-copy walk should cost 4 refs, got %d", res.MemRefs)
	}
	if res.PFN != 0x100<<3 || res.Order != 3 {
		t.Errorf("full-copy result: %+v", res)
	}
	if pt.Stats().AliasExtras != 0 {
		t.Error("full-copy should never count alias extras")
	}
}

func TestTailoredLevel1Order(t *testing.T) {
	// 8 MB page (order 11): 4 PD slots at level 1.
	pt := New(addr.Levels4, ExtraLookup)
	v := addr.Virt(0x40000000) // 1G-aligned, so order-11 aligned
	pfn := addr.PFN(1) << 20   // order-11 aligned frame
	if err := pt.Map(v, pfn, 11, 0); err != nil {
		t.Fatal(err)
	}
	// Access in first 2M chunk: true PDE, 3 refs.
	res, err := pt.Walk(v + 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs != 3 || res.Level != 1 || res.Order != 11 {
		t.Errorf("level-1 true walk: %+v", res)
	}
	// Access in third 2M chunk: alias PDE, 4 refs.
	res, err = pt.Walk(v + 2*(2<<20) + 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs != 4 || !res.Alias {
		t.Errorf("level-1 alias walk: %+v", res)
	}
	if res.PFN != pfn {
		t.Errorf("pfn=%#x want %#x", res.PFN, pfn)
	}
}

func TestMapAlignmentErrors(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	if err := pt.Map(0x1000, 0, 3, 0); err == nil {
		t.Error("misaligned virt accepted")
	}
	if err := pt.Map(0x8000, 1, 3, 0); err == nil {
		t.Error("misaligned frame accepted")
	}
	if err := pt.Map(0, 0, -1, 0); err == nil {
		t.Error("invalid order accepted")
	}
}

func TestMapConflict(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	if err := pt.Map(0x2000, 5, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x2000, 6, 0, 0); err == nil {
		t.Error("double map accepted")
	}
	// A tailored page overlapping the existing 4K page must be rejected.
	if err := pt.Map(0x0000, 0, 2, 0); err == nil {
		t.Error("overlapping tailored map accepted")
	}
}

func TestMapConflictWithChildTable(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	// Map a 4K page, creating a leaf table under the first PD slot.
	if err := pt.Map(0x1000, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	// A 2M map over the same region must fail (live child mappings).
	if err := pt.Map(0x0, 0, addr.Order2M, 0); err == nil {
		t.Error("2M map over live 4K mappings accepted")
	}
	// After unmapping the 4K page, the empty child is pruned and the 2M
	// map succeeds — this is the promotion path.
	if _, _, _, err := pt.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x0, 0, addr.Order2M, 0); err != nil {
		t.Errorf("2M map after unmap failed: %v", err)
	}
}

func TestUnmapTailoredClearsAllSlots(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	v := addr.Virt(0x10000000)
	if err := pt.Map(v, 0x800, 4, 0); err != nil { // 64K: 16 slots
		t.Fatal(err)
	}
	vpn, pfn, order, err := pt.Unmap(v + 7*addr.BasePageSize) // via an alias
	if err != nil {
		t.Fatal(err)
	}
	if vpn != v.PageNumber() || pfn != 0x800 || order != 4 {
		t.Errorf("unmap returned %v %v %v", vpn, pfn, order)
	}
	for i := addr.Virt(0); i < 16; i++ {
		if _, err := pt.Walk(v + i*addr.BasePageSize); !errors.Is(err, ErrNotMapped) {
			t.Errorf("slot %d still mapped", i)
		}
	}
}

func TestRemapAfterUnmap(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	v := addr.Virt(0x10000000)
	if err := pt.Map(v, 0x800, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := pt.Unmap(v); err != nil {
		t.Fatal(err)
	}
	// Promotion: remap the same region at a larger order.
	if err := pt.Map(v, 0x800, 3, 0); err != nil {
		t.Fatal(err)
	}
	res, err := pt.Walk(v + 7*addr.BasePageSize)
	if err != nil || res.Order != 3 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestAccessedDirtyBits(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	v := addr.Virt(0x3000)
	pt.Map(v, 3, 0, pte.FlagWrite)
	upd, err := pt.SetAccessedDirty(v, false)
	if err != nil || !upd {
		t.Fatalf("first access: upd=%v err=%v", upd, err)
	}
	// Sticky: second read access needs no update.
	upd, _ = pt.SetAccessedDirty(v, false)
	if upd {
		t.Error("second read updated A again")
	}
	// First write sets D.
	upd, _ = pt.SetAccessedDirty(v, true)
	if !upd {
		t.Error("first write did not update D")
	}
	upd, _ = pt.SetAccessedDirty(v, true)
	if upd {
		t.Error("second write updated again")
	}
	res, _ := pt.Lookup(v)
	if res.Flags&pte.FlagAccessed == 0 || res.Flags&pte.FlagDirty == 0 {
		t.Errorf("flags=%#x", res.Flags)
	}
}

func TestAccessedDirtyOnTailoredViaAlias(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	v := addr.Virt(0x10000000)
	pt.Map(v, 0x800, 3, pte.FlagWrite)
	// Touch through an alias address: A/D land on the true PTE.
	upd, err := pt.SetAccessedDirty(v+6*addr.BasePageSize, true)
	if err != nil || !upd {
		t.Fatalf("upd=%v err=%v", upd, err)
	}
	res, _ := pt.Lookup(v)
	if res.Flags&pte.FlagDirty == 0 {
		t.Error("dirty bit missing on true PTE")
	}
}

func TestProtect(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	v := addr.Virt(0x5000)
	pt.Map(v, 9, 0, pte.FlagWrite)
	if err := pt.Protect(v, 0); err != nil { // CoW downgrade: read-only
		t.Fatal(err)
	}
	res, _ := pt.Lookup(v)
	if res.Flags&pte.FlagWrite != 0 {
		t.Error("write bit survived Protect")
	}
	if res.PFN != 9 {
		t.Error("Protect corrupted PFN")
	}
}

func TestRelocate(t *testing.T) {
	for _, strat := range []AliasStrategy{ExtraLookup, FullCopy} {
		pt := New(addr.Levels4, strat)
		v := addr.Virt(0x10000000)
		pt.Map(v, 0x100<<2, 2, pte.FlagWrite)
		if err := pt.Relocate(v, 0x200<<2); err != nil {
			t.Fatal(err)
		}
		res, err := pt.Walk(v + 3*addr.BasePageSize)
		if err != nil {
			t.Fatal(err)
		}
		if res.PFN != 0x200<<2 {
			t.Errorf("%v: pfn=%#x after relocate", strat, res.PFN)
		}
		if res.Order != 2 {
			t.Errorf("%v: order=%d after relocate", strat, res.Order)
		}
		if err := pt.Relocate(v, 0x201); err == nil {
			t.Errorf("%v: misaligned relocate accepted", strat)
		}
	}
}

func TestMappedPagesEnumeration(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	pt.Map(0x1000, 1, 0, 0)
	pt.Map(0x10000000, 0x800, 3, 0)
	pt.Map(0x40000000, 0x40000, addr.Order2M, 0)
	type rec struct {
		vpn addr.VPN
		o   addr.Order
	}
	var got []rec
	pt.MappedPages(func(vpn addr.VPN, pfn addr.PFN, o addr.Order, flags uint64) {
		got = append(got, rec{vpn, o})
	})
	want := []rec{{1, 0}, {0x10000, 3}, {0x40000, 9}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("page %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestFiveLevelWalk(t *testing.T) {
	pt := New(addr.Levels5, ExtraLookup)
	// An address beyond the 48-bit range, valid under LA57.
	v := addr.Virt(1) << 50
	if err := pt.Map(v, 7, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := pt.Walk(v)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs != 5 {
		t.Errorf("5-level 4K walk refs=%d, want 5", res.MemRefs)
	}
}

func TestStatsAccumulate(t *testing.T) {
	pt := New(addr.Levels4, ExtraLookup)
	pt.Map(0x10000000, 0x800, 3, 0) // 1 true + 7 alias writes
	if pt.Stats().PTEWrites != 8 {
		t.Errorf("PTEWrites=%d, want 8", pt.Stats().PTEWrites)
	}
	pt.Walk(0x10000000)
	pt.Walk(0x10001000)
	s := pt.Stats()
	if s.Walks != 2 {
		t.Errorf("walks=%d", s.Walks)
	}
	if s.WalkRefs != 4+5 {
		t.Errorf("walkRefs=%d, want 9", s.WalkRefs)
	}
	if s.Nodes < 4 {
		t.Errorf("nodes=%d", s.Nodes)
	}
}

func TestFullCopyADUpdatesAllSlots(t *testing.T) {
	pt := New(addr.Levels4, FullCopy)
	v := addr.Virt(0x10000000)
	pt.Map(v, 0x800, 2, pte.FlagWrite) // 4 slots
	w0 := pt.Stats().PTEWrites
	pt.SetAccessedDirty(v, true)
	delta := pt.Stats().PTEWrites - w0
	if delta != 4 {
		t.Errorf("full-copy A/D update wrote %d PTEs, want 4", delta)
	}
	// The copies must reflect the new A/D state: walk via a copy slot.
	res, err := pt.Walk(v + 2*addr.BasePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flags&pte.FlagDirty == 0 {
		t.Error("copy slot missing dirty bit")
	}
}

// Property-style: random non-overlapping tailored mappings all walk back
// correctly from every constituent base page.
func TestRandomTailoredMappingsWalkCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pt := New(addr.Levels4, ExtraLookup)
	type page struct {
		v   addr.Virt
		pfn addr.PFN
		o   addr.Order
	}
	var pages []page
	// Carve disjoint 1G-aligned regions so mappings never collide.
	for i := 0; i < 40; i++ {
		o := addr.Order(rng.Intn(12))
		v := addr.Virt(uint64(i+1) << 30)
		pfn := addr.PFN(uint64(i) << 18).AlignDown(o)
		if err := pt.Map(v, pfn, o, 0); err != nil {
			t.Fatalf("map %d (order %d): %v", i, o, err)
		}
		pages = append(pages, page{v, pfn, o})
	}
	for _, p := range pages {
		for probe := 0; probe < 4; probe++ {
			off := addr.Virt(rng.Uint64() % p.o.PageSize())
			res, err := pt.Walk(p.v + off)
			if err != nil {
				t.Fatalf("walk %#x: %v", uint64(p.v+off), err)
			}
			if res.Order != p.o || res.PFN != p.pfn || res.VPN != p.v.PageNumber() {
				t.Fatalf("walk %#x => %+v, want order %d pfn %#x", uint64(p.v+off), res, p.o, p.pfn)
			}
			wantRefs := 4
			if p.o >= addr.Order2M {
				wantRefs = 3
			}
			if p.o == addr.Order1G {
				wantRefs = 2
			}
			aliasExtra := 0
			if res.Alias {
				aliasExtra = 1
			}
			if res.MemRefs != wantRefs+aliasExtra {
				t.Fatalf("walk %#x: refs=%d want %d (+alias %d)", uint64(p.v+off), res.MemRefs, wantRefs, aliasExtra)
			}
		}
	}
}

func BenchmarkWalk4K(b *testing.B) {
	pt := New(addr.Levels4, ExtraLookup)
	for i := 0; i < 512; i++ {
		pt.Map(addr.Virt(i)<<12, addr.PFN(i), 0, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Walk(addr.Virt(i&511) << 12)
	}
}

func BenchmarkWalkTailoredAlias(b *testing.B) {
	pt := New(addr.Levels4, ExtraLookup)
	pt.Map(0, 0, 8, 0) // 1 MB page, 256 slots
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Walk(addr.Virt(i&255) << 12)
	}
}

// Randomized shadow test: random map/unmap/relocate sequences against a
// reference dictionary, under both alias strategies, verifying every walk.
func TestRandomOpsShadow(t *testing.T) {
	for _, strat := range []AliasStrategy{ExtraLookup, FullCopy} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			pt := New(addr.Levels4, strat)
			type page struct {
				v   addr.Virt
				pfn addr.PFN
				o   addr.Order
			}
			// Slots are disjoint 16 MB-aligned lanes; each holds at most
			// one page at a time.
			const lanes = 64
			live := make(map[int]*page)
			nextPFN := addr.PFN(1 << 20)
			for step := 0; step < 3000; step++ {
				lane := rng.Intn(lanes)
				p, ok := live[lane]
				switch {
				case !ok: // map a fresh page in this lane
					o := addr.Order(rng.Intn(13)) // up to 16 MB
					v := addr.Virt(uint64(lane+1) << 26).AlignDown(o)
					pfn := nextPFN.AlignDown(o) + addr.PFN(o.Pages())
					pfn = pfn.AlignDown(o)
					nextPFN = pfn + addr.PFN(o.Pages())
					if err := pt.Map(v, pfn, o, 0); err != nil {
						t.Fatalf("map lane %d order %d: %v", lane, o, err)
					}
					live[lane] = &page{v, pfn, o}
				case rng.Intn(3) == 0: // unmap
					if _, _, _, err := pt.Unmap(p.v); err != nil {
						t.Fatal(err)
					}
					delete(live, lane)
				case rng.Intn(3) == 0: // relocate
					npfn := nextPFN.AlignDown(p.o) + addr.PFN(p.o.Pages())
					npfn = npfn.AlignDown(p.o)
					nextPFN = npfn + addr.PFN(p.o.Pages())
					if err := pt.Relocate(p.v, npfn); err != nil {
						t.Fatal(err)
					}
					p.pfn = npfn
				default: // verify a random offset
					off := addr.Virt(rng.Uint64() % p.o.PageSize())
					res, err := pt.Walk(p.v + off)
					if err != nil {
						t.Fatalf("walk lane %d: %v", lane, err)
					}
					if res.PFN != p.pfn || res.Order != p.o || res.VPN != p.v.PageNumber() {
						t.Fatalf("lane %d: walk=%+v, want pfn=%#x o=%d", lane, res, p.pfn, p.o)
					}
				}
			}
			// Final sweep: everything still mapped must walk correctly;
			// everything unmapped must miss.
			for lane := 0; lane < lanes; lane++ {
				v := addr.Virt(uint64(lane+1) << 26)
				res, err := pt.Walk(v)
				if p, ok := live[lane]; ok {
					if err != nil || res.PFN != p.pfn {
						t.Fatalf("final lane %d: %+v %v", lane, res, err)
					}
				} else if err == nil {
					t.Fatalf("final lane %d: unmapped page walked", lane)
				}
			}
		})
	}
}

// A page inside a larger mapped page would be shadowed by it: Map must
// reject it without building a table under the larger page's entry.
func TestMapInsideLargerPageRejected(t *testing.T) {
	const gig = addr.Virt(1) << 30
	cases := []struct {
		name  string
		outer addr.Order
		inner addr.Order
		off   addr.Virt // inner page's offset into the outer page
	}{
		{"4K-in-2M", addr.Order2M, 0, 5 * addr.BasePageSize},
		{"32K-in-2M", addr.Order2M, 3, 8 * addr.BasePageSize},
		{"4K-in-1G", addr.Order1G, 0, 5 * addr.BasePageSize},
		{"32K-in-1G", addr.Order1G, 3, 3<<21 + 8*addr.BasePageSize},
		{"4M-in-1G", addr.Order1G, 10, 4 << 21},
	}
	for _, strat := range []AliasStrategy{ExtraLookup, FullCopy} {
		for _, tc := range cases {
			t.Run(strat.String()+"/"+tc.name, func(t *testing.T) {
				pt := New(addr.Levels4, strat)
				if err := pt.Map(gig, addr.PFN(1)<<18, tc.outer, pte.FlagWrite); err != nil {
					t.Fatal(err)
				}
				v := gig + tc.off
				before, err := pt.Walk(v)
				if err != nil {
					t.Fatal(err)
				}
				nodes := pt.Stats().Nodes
				if err := pt.Map(v, addr.PFN(1)<<20, tc.inner, 0); err == nil {
					t.Fatalf("%v page at %#x inside a %v page accepted", tc.inner, uint64(v), tc.outer)
				}
				if got := pt.Stats().Nodes; got != nodes {
					t.Errorf("rejected Map built tables: Nodes %d -> %d", nodes, got)
				}
				if after, err := pt.Walk(v); err != nil || after != before {
					t.Errorf("Walk after rejected Map = %+v, %v; want %+v", after, err, before)
				}
			})
		}
	}
}

// BenchmarkFirstTouch runs the page-table side of a first touch — the
// failed walk, the map, the retry walk and the A/D update — for each 4 KB
// page of four leaf tables, starting over on an empty table.
func BenchmarkFirstTouch(b *testing.B) {
	const pages = 4 * addr.SlotsPerTable
	var pt *Table
	for i := 0; i < b.N; i++ {
		p := i % pages
		if p == 0 {
			pt = New(addr.Levels4, ExtraLookup)
		}
		v := addr.Virt(1)<<30 + addr.Virt(p)<<addr.BasePageShift
		pt.Walk(v)
		pt.Map(v, addr.PFN(p), 0, pte.FlagWrite)
		pt.Walk(v)
		pt.SetAccessedDirty(v, true)
	}
}
