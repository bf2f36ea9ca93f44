package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"tps/internal/addr"
)

// The reference TLB is the slow, obviously-correct model the SoA
// structures are checked against: one slice of plain slots, an explicit
// LRU clock, no comparator arrays, no resident-order counters and no
// MRU-first probing. It models all three organizations; they differ only
// in which slots may hold an entry (candidates) and in the probe order.

type refSlot struct {
	valid bool
	e     Entry
	lru   uint64
}

type refKind int

const (
	refSetAssoc refKind = iota // sets x ways, slot = set*ways + way
	refFully                   // one candidate list: every slot
	refSkewed                  // ways banks of sets slots, slot = way*sets + index
)

type refTLB struct {
	kind       refKind
	sets, ways int
	orders     []addr.Order // probe order; set-associative: the accepted sizes
	slots      []refSlot
	clock      uint64
	stats      Stats
}

func newRefSetAssoc(sets, ways int, orders ...addr.Order) *refTLB {
	return &refTLB{kind: refSetAssoc, sets: sets, ways: ways, orders: orders, slots: make([]refSlot, sets*ways)}
}

func newRefFully(entries int) *refTLB {
	return &refTLB{kind: refFully, slots: make([]refSlot, entries)}
}

func newRefSkewed(ways, sets int) *refTLB {
	r := &refTLB{kind: refSkewed, sets: sets, ways: ways, slots: make([]refSlot, ways*sets)}
	for o := addr.Order(0); o <= addr.MaxOrder; o++ {
		r.orders = append(r.orders, o)
	}
	return r
}

// refSkewIndex is the skewed organization's per-way index function: an
// xorshift mix of the page-granular VPN, seeded per way.
func refSkewIndex(page uint64, w, sets int) int {
	x := page + uint64(w)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return int(x) & (sets - 1)
}

// candidates lists, in probe order, the slots that may hold an entry of
// order o based at base.
func (r *refTLB) candidates(o addr.Order, base addr.VPN) []int {
	var out []int
	switch r.kind {
	case refSetAssoc:
		set := int(uint64(base)>>uint(o)) % r.sets
		for w := 0; w < r.ways; w++ {
			out = append(out, set*r.ways+w)
		}
	case refFully:
		for i := range r.slots {
			out = append(out, i)
		}
	case refSkewed:
		for w := 0; w < r.ways; w++ {
			out = append(out, w*r.sets+refSkewIndex(uint64(base)>>uint(o), w, r.sets))
		}
	}
	return out
}

// find returns the slot a lookup of vpn hits, or -1. The fully
// associative TLB returns the first covering slot; the others probe one
// order at a time, in r.orders order.
func (r *refTLB) find(vpn addr.VPN) int {
	if r.kind == refFully {
		for i, s := range r.slots {
			if s.valid && s.e.Covers(vpn) {
				return i
			}
		}
		return -1
	}
	for _, o := range r.orders {
		base := vpn.AlignDown(o)
		for _, i := range r.candidates(o, base) {
			if s := r.slots[i]; s.valid && s.e.Order == o && s.e.VPN == base {
				return i
			}
		}
	}
	return -1
}

// Lookup returns the hit slot (or -1) and its entry.
func (r *refTLB) Lookup(vpn addr.VPN) (Entry, int, bool) {
	r.stats.Accesses++
	i := r.find(vpn)
	if i < 0 {
		r.stats.Misses++
		return Entry{}, -1, false
	}
	r.clock++
	r.slots[i].lru = r.clock
	r.stats.Hits++
	return r.slots[i].e, i, true
}

// Probe is Lookup without side effects.
func (r *refTLB) Probe(vpn addr.VPN) (Entry, bool) {
	if i := r.find(vpn); i >= 0 {
		return r.slots[i].e, true
	}
	return Entry{}, false
}

// Insert fills e and returns its slot. A resident copy of the same
// translation (same base and order) is refreshed in place. The skewed
// organization recognises that copy only when it is what a lookup of
// e.VPN returns, so a stale smaller entry at the same base makes a
// re-insert fill a second slot. Otherwise the entry goes to the first
// invalid candidate, else to the first least recently used one.
func (r *refTLB) Insert(e Entry) int {
	r.clock++
	cands := r.candidates(e.Order, e.VPN)
	same := func(i int) bool { s := r.slots[i]; return s.valid && s.e.Order == e.Order && s.e.VPN == e.VPN }
	in := -1
	if r.kind == refSkewed {
		if i := r.find(e.VPN); i >= 0 && same(i) {
			in = i
		}
	} else {
		for _, i := range cands {
			if same(i) {
				in = i
				break
			}
		}
	}
	if in >= 0 {
		r.slots[in].e = e
		r.slots[in].lru = r.clock
		return in
	}
	victim := -1
	for _, i := range cands {
		if !r.slots[i].valid {
			victim = i
			break
		}
		if victim < 0 || r.slots[i].lru < r.slots[victim].lru {
			victim = i
		}
	}
	if r.slots[victim].valid {
		r.stats.Evictions++
	}
	r.slots[victim] = refSlot{valid: true, e: e, lru: r.clock}
	r.stats.Fills++
	return victim
}

// invalidateIf drops every valid slot whose entry satisfies drop.
func (r *refTLB) invalidateIf(drop func(Entry) bool) {
	for i := range r.slots {
		if r.slots[i].valid && drop(r.slots[i].e) {
			r.slots[i].valid = false
			r.stats.Invalidates++
		}
	}
}

func (r *refTLB) InvalidatePage(vpn addr.VPN) {
	r.invalidateIf(func(e Entry) bool { return e.Covers(vpn) })
}

func (r *refTLB) InvalidateRange(start, end addr.VPN) {
	r.invalidateIf(func(e Entry) bool {
		return e.VPN < end && start < e.VPN+addr.VPN(e.Order.Pages())
	})
}

func (r *refTLB) Flush() { r.invalidateIf(func(Entry) bool { return true }) }

// group returns the slots whose LRU stamps compete with slot i's: its set
// for the set-associative TLB, every slot otherwise (skewed victims are
// chosen across banks).
func (r *refTLB) group(i int) (lo, hi int) {
	if r.kind == refSetAssoc {
		lo = i / r.ways * r.ways
		return lo, lo + r.ways
	}
	return 0, len(r.slots)
}

// ranks replaces each valid slot's LRU stamp by its rank within its
// group (0 = least recently used), so stamps from clocks that advance
// differently still compare equal when they order the slots alike.
// Invalid slots compare as empty, whatever they last held.
func (r *refTLB) ranks(slots []refSlot) []refSlot {
	out := append([]refSlot(nil), slots...)
	for i, s := range slots {
		if !s.valid {
			out[i] = refSlot{}
			continue
		}
		lo, hi := r.group(i)
		rank := uint64(0)
		for j := lo; j < hi; j++ {
			if slots[j].valid && slots[j].lru < s.lru {
				rank++
			}
		}
		out[i].lru = rank
	}
	return out
}

// overlaps counts unordered pairs of valid slots whose ranges intersect.
func (r *refTLB) overlaps() int {
	n := 0
	for i, a := range r.slots {
		for _, b := range r.slots[i+1:] {
			if a.valid && b.valid && a.e.VPN < b.e.VPN+addr.VPN(b.e.Order.Pages()) && b.e.VPN < a.e.VPN+addr.VPN(a.e.Order.Pages()) {
				n++
			}
		}
	}
	return n
}

// slotsOf reads a real structure's contents in the reference's slot
// numbering.
func slotsOf(tl TLB) []refSlot {
	out := make([]refSlot, tl.Capacity())
	tl.Resident(func(i int, e Entry, lru uint64) { out[i] = refSlot{valid: true, e: e, lru: lru} })
	return out
}

// diffTLB compares a structure with its reference after one step:
// counters, every slot's entry, LRU ranks, and the derived bookkeeping
// (resident-order counts, the overlap pair count).
func diffTLB(t *testing.T, step string, tl TLB, ref *refTLB) {
	t.Helper()
	if tl.Stats() != ref.stats {
		t.Fatalf("%s: stats %+v, reference %+v", step, tl.Stats(), ref.stats)
	}
	got, want := ref.ranks(slotsOf(tl)), ref.ranks(ref.slots)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: slot %d = %+v, reference %+v", step, i, got[i], want[i])
		}
	}
	switch x := tl.(type) {
	case *SetAssoc:
		for k, o := range x.orders {
			n := 0
			for _, s := range ref.slots {
				if s.valid && s.e.Order == o {
					n++
				}
			}
			if x.residents[k] != n {
				t.Fatalf("%s: %d resident entries of order %d, reference %d", step, x.residents[k], o, n)
			}
		}
	case *FullyAssoc:
		if n := ref.overlaps(); x.overlaps != n {
			t.Fatalf("%s: %d overlapping pairs, reference %d", step, x.overlaps, n)
		}
	case *Skewed:
		var n [addr.MaxOrder + 1]int
		for _, s := range ref.slots {
			if s.valid {
				n[s.e.Order]++
			}
		}
		if x.residents != n {
			t.Fatalf("%s: resident orders %v, reference %v", step, x.residents, n)
		}
	}
}

// TestTLBDifferentialAgainstReference drives each TLB organization and
// the reference through seeded random sequences of lookups, known-miss
// credits, inserts (fresh, re-inserted and overlapping), page and range
// invalidations and flushes, and requires identical hits, victims,
// counters, contents and LRU order at every step.
func TestTLBDifferentialAgainstReference(t *testing.T) {
	allOrders := func(max addr.Order) []addr.Order {
		var out []addr.Order
		for o := addr.Order(0); o <= max; o++ {
			out = append(out, o)
		}
		return out
	}
	cases := []struct {
		name   string
		tl     TLB
		ref    *refTLB
		orders []addr.Order // orders the test inserts
		bits   uint         // VPN domain: [0, 2^bits)
	}{
		{"L1D-4K", NewSetAssoc("L1D-4K", 16, 4, 0), newRefSetAssoc(16, 4, 0), []addr.Order{0}, 9},
		{"L1D-2M", NewSetAssoc("L1D-2M", 8, 4, addr.Order2M), newRefSetAssoc(8, 4, addr.Order2M), []addr.Order{addr.Order2M}, 15},
		{"L1D-CoLT", NewSetAssoc("L1D-CoLT", 16, 4, 0, 1, 2, 3), newRefSetAssoc(16, 4, 0, 1, 2, 3), []addr.Order{0, 1, 2, 3}, 10},
		{"STLB", NewSetAssoc("STLB", 128, 12, 0, addr.Order2M), newRefSetAssoc(128, 12, 0, addr.Order2M), []addr.Order{0, addr.Order2M}, 13},
		{"STLB-TPS", NewSetAssoc("STLB", 128, 12, allOrders(addr.MaxOrder)...), newRefSetAssoc(128, 12, allOrders(addr.MaxOrder)...), allOrders(addr.MaxOrder), 21},
		{"STLB-tiny", NewSetAssoc("tiny", 4, 2, 0, 3, 5), newRefSetAssoc(4, 2, 0, 3, 5), []addr.Order{0, 3, 5}, 9},
		{"STLB-1G", NewSetAssoc("STLB-1G", 4, 4, addr.Order1G), newRefSetAssoc(4, 4, addr.Order1G), []addr.Order{addr.Order1G}, 23},
		{"L1D-TPS", NewFullyAssoc("L1D-TPS", 32), newRefFully(32), allOrders(12), 14},
		{"L1D-1G", NewFullyAssoc("L1D-1G", 4), newRefFully(4), allOrders(6), 9},
		{"L1D-TPS-skewed", NewSkewed("L1D-TPS-skewed", 4, 8), newRefSkewed(4, 8), allOrders(12), 14},
		{"skewed-tiny", NewSkewed("tiny", 2, 4), newRefSkewed(2, 4), allOrders(5), 8},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			tl, ref := tc.tl, tc.ref
			var inserted []Entry
			// pick returns a VPN: mostly inside a recent entry, so that
			// lookups hit and invalidations find something.
			pick := func() addr.VPN {
				if len(inserted) > 0 && rng.Intn(4) != 0 {
					e := inserted[len(inserted)-1-rng.Intn(min(len(inserted), 64))]
					return e.VPN + addr.VPN(rng.Int63n(int64(e.Order.Pages())))
				}
				return addr.VPN(rng.Int63n(1 << tc.bits))
			}
			for step := 0; step < 4000; step++ {
				var desc string
				switch op := rng.Intn(100); {
				case op < 40:
					vpn := pick()
					desc = fmt.Sprintf("step %d Lookup(%#x)", step, vpn)
					re, rw, rhit := ref.Lookup(vpn)
					var e Entry
					w, hit := -2, false
					switch x := tl.(type) {
					case *SetAssoc:
						e, w, hit = x.LookupWay(vpn)
					case *FullyAssoc:
						e, w, hit = x.LookupWay(vpn)
					default:
						e, hit = tl.Lookup(vpn)
						w = rw
					}
					if hit != rhit || e != re || w != rw {
						t.Fatalf("%s = %+v,way %d,%v, reference %+v,way %d,%v", desc, e, w, hit, re, rw, rhit)
					}
				case op < 50:
					// A probe the caller knows misses, credited without
					// the scan; the reference runs the real lookup.
					vpn := pick()
					desc = fmt.Sprintf("step %d CreditMiss(%#x)", step, vpn)
					e, hit := tl.Probe(vpn)
					re, rhit := ref.Probe(vpn)
					if hit != rhit || e != re {
						t.Fatalf("%s: Probe = %+v,%v, reference %+v,%v", desc, e, hit, re, rhit)
					}
					if hit {
						continue
					}
					tl.CreditMiss()
					ref.Lookup(vpn)
				case op < 85:
					var e Entry
					if len(inserted) > 0 && rng.Intn(5) == 0 {
						// Re-insert a known translation with new flags (the
						// A/D refresh), or a different size at its base.
						e = inserted[rng.Intn(len(inserted))]
						if rng.Intn(2) == 0 {
							e.Order = tc.orders[rng.Intn(len(tc.orders))]
							e.VPN = e.VPN.AlignDown(e.Order)
							e.PFN = addr.PFN(e.VPN) ^ 0x55500000
						}
						e.Flags = uint64(rng.Intn(16))
					} else {
						o := tc.orders[0]
						for k := 1; k < len(tc.orders) && rng.Intn(2) == 0; k++ {
							o = tc.orders[k]
						}
						vpn := pick().AlignDown(o)
						e = Entry{VPN: vpn, PFN: addr.PFN(rng.Int63n(1<<20)) << uint(o), Order: o, Flags: uint64(rng.Intn(16))}
					}
					desc = fmt.Sprintf("step %d Insert(%+v)", step, e)
					rw := ref.Insert(e)
					switch x := tl.(type) {
					case *SetAssoc:
						if w := x.InsertWay(e); w != rw {
							t.Fatalf("%s landed in way %d, reference %d", desc, w, rw)
						}
					case *FullyAssoc:
						if w := x.InsertWay(e); w != rw {
							t.Fatalf("%s landed in way %d, reference %d", desc, w, rw)
						}
					default:
						tl.Insert(e)
					}
					inserted = append(inserted, e)
				case op < 93:
					vpn := pick()
					desc = fmt.Sprintf("step %d InvalidatePage(%#x)", step, vpn)
					tl.InvalidatePage(vpn)
					ref.InvalidatePage(vpn)
				case op < 99:
					start := pick()
					end := start + addr.VPN(rng.Int63n(1<<(tc.bits-3))+1)
					desc = fmt.Sprintf("step %d InvalidateRange(%#x, %#x)", step, start, end)
					tl.InvalidateRange(start, end)
					ref.InvalidateRange(start, end)
				default:
					desc = fmt.Sprintf("step %d Flush", step)
					tl.Flush()
					ref.Flush()
				}
				diffTLB(t, desc, tl, ref)
			}
		})
	}
}
