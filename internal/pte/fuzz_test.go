package pte

import (
	"testing"

	"tps/internal/addr"
)

// FuzzPTERoundTrip throws arbitrary frame numbers, orders, flag words and
// virtual addresses at the tailored-entry constructors. The contract under
// fuzz: every input either returns an error or yields an entry whose
// Order/PFN/Translate decode round-trips exactly — and nothing ever
// panics. The validity predicate below mirrors the constructors' documented
// preconditions, so a disagreement in either direction (accepting garbage,
// rejecting a legal encoding) is a finding.
func FuzzPTERoundTrip(f *testing.F) {
	f.Add(uint64(0), 1, FlagWrite, uint64(0))
	f.Add(uint64(0x1000), 3, FlagWrite|FlagUser, uint64(0x7fff_dead_b000))
	f.Add(uint64(1)<<20, 9, FlagAccessed|FlagDirty, uint64(0x4000_0000))
	f.Add(uint64(1)<<22, int(addr.MaxOrder), FlagNX, ^uint64(0))
	f.Add(uint64(3), 2, uint64(0), uint64(0x2001)) // misaligned frame
	f.Add(uint64(0), 0, uint64(0), uint64(0))      // order too small
	f.Add(uint64(0), int(addr.MaxOrder)+1, uint64(0), uint64(0))
	f.Add(^uint64(0), 4, uint64(0), uint64(0))   // frame beyond PhysBits
	f.Add(uint64(0), 1, FlagTailored, uint64(0)) // structural flag bit
	f.Add(uint64(0), 1, FlagPresent|FlagPS|FlagAlias, uint64(0))
	f.Add(uint64(1)<<(addr.PhysBits-addr.BasePageShift), 1, uint64(0), uint64(0))

	f.Fuzz(func(t *testing.T, rawPFN uint64, rawOrder int, flags uint64, rawVirt uint64) {
		pfn := addr.PFN(rawPFN)
		order := addr.Order(rawOrder)
		v := addr.Virt(rawVirt)

		// Short-circuit order first: Aligned/PageSize shift by the
		// order, so they are only meaningful once it is in range.
		valid := order >= 1 && order <= addr.MaxOrder &&
			flags&^callerFlags == 0 &&
			pfn < maxPFN &&
			pfn.Aligned(order)

		e, err := MakeTailored(pfn, order, flags)
		if (err == nil) != valid {
			t.Fatalf("MakeTailored(%#x, %d, %#x): err=%v, want valid=%t", rawPFN, rawOrder, flags, err, valid)
		}
		if err == nil {
			if got := e.Order(0); got != order {
				t.Fatalf("Order round-trip: made order %d, decoded %d (entry %#x)", order, got, uint64(e))
			}
			if got := e.PFN(0); got != pfn {
				t.Fatalf("PFN round-trip: made %#x, decoded %#x (entry %#x)", pfn, got, uint64(e))
			}
			want := pfn.Addr() + addr.Phys(v.Offset(order))
			if got := e.Translate(v, 0); got != want {
				t.Fatalf("Translate(%#x): got %#x, want %#x", rawVirt, got, want)
			}
			if e.Alias() || !e.Tailored() || !e.Present() {
				t.Fatalf("true PTE type bits wrong: %s", e)
			}
		}

		aliasValid := order >= 1 && order <= addr.MaxOrder && flags&^callerFlags == 0
		a, err := MakeAlias(order, flags)
		if (err == nil) != aliasValid {
			t.Fatalf("MakeAlias(%d, %#x): err=%v, want valid=%t", rawOrder, flags, err, aliasValid)
		}
		if err == nil {
			if got := a.Order(0); got != order {
				t.Fatalf("alias Order round-trip: made %d, decoded %d", order, got)
			}
			if !a.Alias() || !a.Tailored() || !a.Present() {
				t.Fatalf("alias type bits wrong: %s", a)
			}
			if got := a.PFN(0); got != 0 {
				t.Fatalf("alias carries a frame number: %#x", got)
			}
		}
	})
}
