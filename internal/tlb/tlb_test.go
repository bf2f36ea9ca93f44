package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tps/internal/addr"
)

func TestEntryCoversTranslate(t *testing.T) {
	e := Entry{VPN: 0x100, PFN: 0x800, Order: 3} // 32K page, 8 base pages
	for i := addr.VPN(0); i < 8; i++ {
		if !e.Covers(0x100 + i) {
			t.Errorf("entry should cover vpn %#x", 0x100+i)
		}
		if got := e.Translate(0x100 + i); got != 0x800+addr.PFN(i) {
			t.Errorf("Translate(%#x)=%#x", 0x100+i, got)
		}
	}
	if e.Covers(0xff) || e.Covers(0x108) {
		t.Error("entry covers out-of-range vpn")
	}
}

func TestSetAssocBasicHitMiss(t *testing.T) {
	tl := NewSetAssoc("L1D-4K", 16, 4, 0)
	if _, hit := tl.Lookup(5); hit {
		t.Fatal("empty TLB hit")
	}
	tl.Insert(Entry{VPN: 5, PFN: 50, Order: 0})
	e, hit := tl.Lookup(5)
	if !hit || e.PFN != 50 {
		t.Fatalf("hit=%v e=%v", hit, e)
	}
	s := tl.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Errorf("stats=%+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate=%f", s.HitRate())
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// 1 set, 2 ways: third insert evicts the least recently used.
	tl := NewSetAssoc("tiny", 1, 2, 0)
	tl.Insert(Entry{VPN: 1, PFN: 1})
	tl.Insert(Entry{VPN: 2, PFN: 2})
	tl.Lookup(1) // make VPN 1 most recent
	tl.Insert(Entry{VPN: 3, PFN: 3})
	if _, hit := tl.Probe(2); hit {
		t.Error("VPN 2 should have been evicted (LRU)")
	}
	if _, hit := tl.Probe(1); !hit {
		t.Error("VPN 1 should have survived")
	}
	if tl.Stats().Evictions != 1 {
		t.Errorf("evictions=%d", tl.Stats().Evictions)
	}
}

func TestSetAssocIndexingSeparatesSets(t *testing.T) {
	tl := NewSetAssoc("l1", 4, 1, 0)
	// VPNs 0..3 go to different sets; all four must coexist.
	for v := addr.VPN(0); v < 4; v++ {
		tl.Insert(Entry{VPN: v, PFN: addr.PFN(v) + 100})
	}
	for v := addr.VPN(0); v < 4; v++ {
		if _, hit := tl.Probe(v); !hit {
			t.Errorf("vpn %d missing", v)
		}
	}
	// VPN 4 aliases with VPN 0 (same set) and evicts it.
	tl.Insert(Entry{VPN: 4, PFN: 104})
	if _, hit := tl.Probe(0); hit {
		t.Error("vpn 0 should have been evicted by aliasing vpn 4")
	}
}

func TestSetAssocMultiSizeSTLB(t *testing.T) {
	// Skylake-ish unified L2: 4K and 2M entries.
	tl := NewSetAssoc("STLB", 128, 12, 0, addr.Order2M)
	tl.Insert(Entry{VPN: 0x12345, PFN: 0x999, Order: 0})
	tl.Insert(Entry{VPN: 0x200, PFN: 0x400, Order: addr.Order2M}) // covers 0x200..0x3ff
	if e, hit := tl.Lookup(0x12345); !hit || e.Order != 0 {
		t.Errorf("4K lookup: hit=%v e=%v", hit, e)
	}
	if e, hit := tl.Lookup(0x3ff); !hit || e.Order != addr.Order2M {
		t.Errorf("2M lookup: hit=%v e=%v", hit, e)
	}
	if _, hit := tl.Lookup(0x400); hit {
		t.Error("vpn just past the 2M page should miss")
	}
}

func TestSetAssocInsertUnsupportedOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unsupported order")
		}
	}()
	tl := NewSetAssoc("l1-4k", 16, 4, 0)
	tl.Insert(Entry{VPN: 0, PFN: 0, Order: 5})
}

func TestSetAssocInsertReplacesInPlace(t *testing.T) {
	tl := NewSetAssoc("l1", 4, 2, 0)
	tl.Insert(Entry{VPN: 8, PFN: 1, Flags: 0})
	tl.Insert(Entry{VPN: 8, PFN: 1, Flags: 0x20}) // refreshed flags
	if tl.Stats().Fills != 1 {
		t.Errorf("re-insert should not count as a new fill: fills=%d", tl.Stats().Fills)
	}
	e, _ := tl.Probe(8)
	if e.Flags != 0x20 {
		t.Errorf("flags not refreshed: %#x", e.Flags)
	}
}

func TestSetAssocInvalidatePage(t *testing.T) {
	tl := NewSetAssoc("l1", 16, 4, 0, addr.Order2M)
	tl.Insert(Entry{VPN: 0x200, PFN: 0x200, Order: addr.Order2M})
	tl.InvalidatePage(0x2ff) // any vpn inside the 2M page
	if _, hit := tl.Probe(0x200); hit {
		t.Error("2M entry should be gone after INVLPG inside it")
	}
	if tl.Stats().Invalidates != 1 {
		t.Errorf("invalidates=%d", tl.Stats().Invalidates)
	}
}

func TestSetAssocInvalidateRange(t *testing.T) {
	tl := NewSetAssoc("l1", 16, 4, 0)
	for v := addr.VPN(0); v < 8; v++ {
		tl.Insert(Entry{VPN: v, PFN: addr.PFN(v)})
	}
	tl.InvalidateRange(2, 5)
	for v := addr.VPN(0); v < 8; v++ {
		_, hit := tl.Probe(v)
		want := v < 2 || v >= 5
		if hit != want {
			t.Errorf("vpn %d: hit=%v want %v", v, hit, want)
		}
	}
}

func TestSetAssocFlush(t *testing.T) {
	tl := NewSetAssoc("l1", 16, 4, 0)
	for v := addr.VPN(0); v < 8; v++ {
		tl.Insert(Entry{VPN: v})
	}
	tl.Flush()
	for v := addr.VPN(0); v < 8; v++ {
		if _, hit := tl.Probe(v); hit {
			t.Errorf("vpn %d survived flush", v)
		}
	}
}

func TestFullyAssocMaskedMatch(t *testing.T) {
	tl := NewFullyAssoc("TPS", 32)
	// A 128K (order 5) tailored page at VPN 0x1000 0x20-aligned.
	tl.Insert(Entry{VPN: 0x1000, PFN: 0x5000, Order: 5})
	// Any VPN within the 32 base pages hits via the mask compare.
	for _, v := range []addr.VPN{0x1000, 0x100f, 0x101f} {
		e, hit := tl.Lookup(v)
		if !hit {
			t.Errorf("vpn %#x should hit", v)
			continue
		}
		if got := e.Translate(v); got != 0x5000+addr.PFN(v-0x1000) {
			t.Errorf("vpn %#x -> %#x", v, got)
		}
	}
	if _, hit := tl.Lookup(0x1020); hit {
		t.Error("vpn past the page hit")
	}
	if _, hit := tl.Lookup(0xfff); hit {
		t.Error("vpn before the page hit")
	}
}

func TestFullyAssocMixedSizesCoexist(t *testing.T) {
	tl := NewFullyAssoc("TPS", 32)
	orders := []addr.Order{1, 3, 5, 9, 12, 18}
	for i, o := range orders {
		vpn := addr.VPN(uint64(i+1) << 20).AlignDown(o)
		tl.Insert(Entry{VPN: vpn, PFN: addr.PFN(vpn), Order: o})
	}
	for i, o := range orders {
		vpn := addr.VPN(uint64(i+1) << 20).AlignDown(o)
		probe := vpn + addr.VPN(o.Pages()-1) // last base page of the entry
		if e, hit := tl.Probe(probe); !hit || e.Order != o {
			t.Errorf("order %d entry missing (hit=%v)", o, hit)
		}
	}
}

func TestFullyAssocLRU(t *testing.T) {
	tl := NewFullyAssoc("TPS", 2)
	tl.Insert(Entry{VPN: 0x10, Order: 0})
	tl.Insert(Entry{VPN: 0x20, Order: 0})
	tl.Lookup(0x10)
	tl.Insert(Entry{VPN: 0x30, Order: 0})
	if _, hit := tl.Probe(0x20); hit {
		t.Error("LRU entry 0x20 should be evicted")
	}
	if _, hit := tl.Probe(0x10); !hit {
		t.Error("recently used entry 0x10 evicted")
	}
}

func TestFullyAssocInvalidate(t *testing.T) {
	tl := NewFullyAssoc("TPS", 8)
	tl.Insert(Entry{VPN: 0x100, PFN: 1, Order: 4}) // covers 0x100..0x10f
	tl.Insert(Entry{VPN: 0x200, PFN: 2, Order: 0})
	tl.InvalidatePage(0x105)
	if _, hit := tl.Probe(0x100); hit {
		t.Error("tailored entry should be invalidated")
	}
	if _, hit := tl.Probe(0x200); !hit {
		t.Error("unrelated entry lost")
	}
	tl.InvalidateRange(0x200, 0x201)
	if _, hit := tl.Probe(0x200); hit {
		t.Error("range invalidate missed")
	}
}

func TestFullyAssocFlushAndStats(t *testing.T) {
	tl := NewFullyAssoc("TPS", 4)
	tl.Insert(Entry{VPN: 1})
	tl.Insert(Entry{VPN: 2})
	tl.Flush()
	if tl.Stats().Invalidates != 2 {
		t.Errorf("invalidates=%d", tl.Stats().Invalidates)
	}
	if _, hit := tl.Probe(1); hit {
		t.Error("entry survived flush")
	}
}

func TestFullyAssocReinsertRefreshes(t *testing.T) {
	tl := NewFullyAssoc("TPS", 4)
	tl.Insert(Entry{VPN: 0x40, Order: 2, Flags: 0})
	tl.Insert(Entry{VPN: 0x40, Order: 2, Flags: 7})
	if tl.Stats().Fills != 1 {
		t.Errorf("fills=%d, want 1", tl.Stats().Fills)
	}
	e, _ := tl.Probe(0x40)
	if e.Flags != 7 {
		t.Errorf("flags=%d", e.Flags)
	}
}

// Property: a fully-associative TLB with capacity >= working set never
// misses on re-reference (mask match must be exact for arbitrary orders).
func TestFullyAssocNoFalseEviction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewFullyAssoc("TPS", 64)
		type page struct {
			vpn addr.VPN
			o   addr.Order
		}
		var pages []page
		used := map[addr.VPN]bool{}
		for len(pages) < 32 {
			o := addr.Order(rng.Intn(10))
			vpn := addr.VPN(rng.Uint64() % (1 << 30)).AlignDown(o)
			// Avoid overlapping pages (distinct regions).
			if used[vpn.AlignDown(10)] {
				continue
			}
			used[vpn.AlignDown(10)] = true
			pages = append(pages, page{vpn, o})
			tl.Insert(Entry{VPN: vpn, PFN: addr.PFN(vpn), Order: o})
		}
		for _, p := range pages {
			off := addr.VPN(rng.Uint64() % p.o.Pages())
			if e, hit := tl.Probe(p.vpn + off); !hit || e.Order != p.o || e.VPN != p.vpn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: set-assoc and fully-assoc TLBs agree on hit/miss for a
// single-size workload when both have capacity >= distinct pages touched.
func TestOrganizationsAgreeWhenUnsaturated(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sa := NewSetAssoc("sa", 16, 4, 0) // 64 entries
	fa := NewFullyAssoc("fa", 64)
	vpns := make([]addr.VPN, 0, 32)
	for i := 0; i < 32; i++ {
		vpns = append(vpns, addr.VPN(rng.Uint64()%(1<<24)))
	}
	for pass := 0; pass < 3; pass++ {
		for _, v := range vpns {
			_, hitSA := sa.Lookup(v)
			_, hitFA := fa.Lookup(v)
			if !hitSA {
				sa.Insert(Entry{VPN: v, PFN: addr.PFN(v), Order: 0})
			}
			if !hitFA {
				fa.Insert(Entry{VPN: v, PFN: addr.PFN(v), Order: 0})
			}
			if pass > 0 && hitSA != hitFA {
				// With <= 4 distinct VPNs per set this can only diverge
				// on set-conflict evictions; 32 random VPNs over 16 sets
				// stay below 4 with the chosen seed.
				t.Fatalf("divergence on vpn %#x pass %d: sa=%v fa=%v", v, pass, hitSA, hitFA)
			}
		}
	}
}

func TestNewSetAssocValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSetAssoc("x", 3, 4, 0) },               // non-pow2 sets
		func() { NewSetAssoc("x", 0, 4, 0) },               // zero sets
		func() { NewSetAssoc("x", 4, 0, 0) },               // zero ways
		func() { NewSetAssoc("x", 4, 4) },                  // no orders
		func() { NewSetAssoc("x", 4, 4, addr.MaxOrder+1) }, // order out of range
		func() { NewSetAssoc("x", 4, 4, -1) },              // negative order
		func() { NewFullyAssoc("x", 0) },                   // zero entries
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkSetAssocLookup(b *testing.B) {
	tl := NewSetAssoc("L1D", 16, 4, 0)
	for v := addr.VPN(0); v < 64; v++ {
		tl.Insert(Entry{VPN: v, PFN: addr.PFN(v)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(addr.VPN(i) & 63)
	}
}

func BenchmarkFullyAssocLookup(b *testing.B) {
	tl := NewFullyAssoc("TPS", 32)
	for v := 0; v < 32; v++ {
		tl.Insert(Entry{VPN: addr.VPN(v << 9), Order: 9})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(addr.VPN(i) & 0x3fff)
	}
}
