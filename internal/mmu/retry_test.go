package mmu

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tps/internal/addr"
	"tps/internal/pagetable"
	"tps/internal/pte"
	"tps/internal/tlb"
)

// tableSidecar is a range-TLB stand-in: it translates the mapped base
// pages of one VPN window straight from the page table.
type tableSidecar struct {
	table      *pagetable.Table
	start, end addr.VPN
}

func (s tableSidecar) Lookup(vpn addr.VPN) (tlb.Entry, bool) {
	if vpn < s.start || vpn >= s.end {
		return tlb.Entry{}, false
	}
	res, err := s.table.Lookup(vpn.Addr())
	if err != nil {
		return tlb.Entry{}, false
	}
	return tlb.Entry{VPN: vpn, PFN: res.PFN + addr.PFN(vpn-res.VPN), Flags: res.Flags}, true
}

func (tableSidecar) Name() string { return "table" }

// retryFrame is the frame every mapping of vpn uses, so a stale smaller
// entry left by a promotion still translates correctly.
func retryFrame(vpn addr.VPN) addr.PFN { return addr.PFN(vpn) + 1<<20 }

// retryBase is the first VPN of the test's address range.
const retryBase = addr.VPN(1) << 28

// slotState is one resident TLB entry: structure, slot, entry, LRU stamp.
type slotState struct {
	tlb, slot int
	e         tlb.Entry
	lru       uint64
}

// mmuState is everything the retry must leave as a full Translate does.
type mmuState struct {
	stats Stats
	tlbs  []tlb.Stats
	slots []slotState
	pwc   []uint64
	tc    []tcEntry
}

func stateOf(m *MMU) mmuState {
	s := mmuState{stats: m.Stats()}
	for k, t := range append(m.L1TLBs(), m.STLBs()...) {
		s.tlbs = append(s.tlbs, t.Stats())
		t.Resident(func(i int, e tlb.Entry, lru uint64) {
			s.slots = append(s.slots, slotState{k, i, e, lru})
		})
	}
	for _, c := range m.hw.pwc {
		if c != nil {
			s.pwc = append(append(s.pwc, c.keys...), c.lrus...)
		}
	}
	if m.hw.tc != nil {
		s.tc = m.hw.tc.ents
	}
	return s
}

func diffStates(t *testing.T, desc string, a, b mmuState) {
	t.Helper()
	switch {
	case a.stats != b.stats:
		t.Fatalf("%s: stats %+v, full %+v", desc, a.stats, b.stats)
	case !slices.Equal(a.tlbs, b.tlbs):
		t.Fatalf("%s: TLB stats %+v, full %+v", desc, a.tlbs, b.tlbs)
	case !slices.Equal(a.slots, b.slots):
		t.Fatalf("%s: TLB contents\n%v\nfull\n%v", desc, a.slots, b.slots)
	case !slices.Equal(a.pwc, b.pwc):
		t.Fatalf("%s: paging-structure caches differ", desc)
	case !slices.Equal(a.tc, b.tc):
		t.Fatalf("%s: translation-cache lines differ", desc)
	}
}

// TestRetryAfterFaultDifferential drives two MMUs over twin page tables
// through one seeded sequence of references, demand mappings,
// promotions (a larger page over smaller ones, no shootdown, as the OS
// does) and unmaps with shootdown. Where a translation fails with
// ErrNotMapped, the page is mapped and one MMU retries with
// RetryAfterFault while the other translates in full. Results, counters,
// TLB contents with LRU stamps, paging-structure caches and
// translation-cache lines must agree after every step.
func TestRetryAfterFaultDifferential(t *testing.T) {
	type config struct {
		name    string
		cfg     Config
		orders  []addr.Order // page sizes the test maps
		sidecar bool
		alias   pagetable.AliasStrategy
	}
	tps := DefaultConfig(OrgTPS)
	skewed := tps
	skewed.TPSTLBSkewed = true
	virt := tps
	virt.Virtualized = true
	configs := []config{
		{"conventional", DefaultConfig(OrgConventional), []addr.Order{0, 0, 0, addr.Order2M}, false, pagetable.ExtraLookup},
		{"conventional+sidecar", DefaultConfig(OrgConventional), []addr.Order{0}, true, pagetable.ExtraLookup},
		{"colt", DefaultConfig(OrgCoLT), []addr.Order{0, 0, 1, 2, 3, addr.Order2M}, false, pagetable.ExtraLookup},
		{"tps", tps, []addr.Order{0, 0, 1, 3, 4, 6, addr.Order2M}, false, pagetable.ExtraLookup},
		{"tps-fullcopy", tps, []addr.Order{0, 2, 5, 7}, false, pagetable.FullCopy},
		{"tps-skewed", skewed, []addr.Order{0, 0, 1, 3, 4, 6}, false, pagetable.ExtraLookup},
		{"tps-virtualized", virt, []addr.Order{0, 4, 9}, false, pagetable.ExtraLookup},
	}
	for ci, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci) + 100))
			var tables [2]*pagetable.Table
			var mmus [2]*MMU
			// A small translation cache keeps the per-step comparison
			// cheap; its lines still fill, serve and drop.
			c.cfg.TransCache = 512
			for i := range mmus {
				tables[i] = pagetable.New(addr.Levels4, c.alias)
				var sc Sidecar
				if c.sidecar {
					sc = tableSidecar{tables[i], retryBase, retryBase + 1<<12}
				}
				mmus[i] = New(c.cfg, tables[i], sc, nil)
			}
			fast, full := mmus[0], mmus[1]
			// mapped reports whether any base page of [start, end) is mapped.
			mapped := func(start, end addr.VPN) bool {
				for v := start; v < end; v++ {
					if _, err := tables[0].Lookup(v.Addr()); err == nil {
						return true
					}
				}
				return false
			}
			mapBoth := func(base addr.VPN, o addr.Order) {
				for _, pt := range tables {
					if err := pt.Map(base.Addr(), retryFrame(base), o, pte.FlagWrite|pte.FlagUser); err != nil {
						t.Fatal(err)
					}
				}
			}
			unmapBoth := func(start, end addr.VPN) {
				for _, pt := range tables {
					for v := start; v < end; v++ {
						if _, err := pt.Lookup(v.Addr()); err == nil {
							if _, _, _, err := pt.Unmap(v.Addr()); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			recent := retryBase
			pick := func() addr.VPN {
				if rng.Intn(3) != 0 {
					return recent + addr.VPN(rng.Intn(64))
				}
				return retryBase + addr.VPN(rng.Intn(1<<14))
			}
			faults := 0
			for step := 0; step < 6000; step++ {
				var desc string
				switch op := rng.Intn(100); {
				case op < 85:
					vpn := pick()
					v := vpn.Addr() + addr.Virt(rng.Intn(addr.BasePageSize))
					write := rng.Intn(3) == 0
					desc = fmt.Sprintf("step %d: reference %#x (write %v)", step, uint64(v), write)
					got, err := fast.Translate(v, write)
					want, werr := full.Translate(v, write)
					if errors.Is(err, pagetable.ErrNotMapped) && errors.Is(werr, pagetable.ErrNotMapped) {
						// Demand-map the largest size the test uses that
						// covers vpn without overlapping a mapping.
						o := c.orders[rng.Intn(len(c.orders))]
						for o > 0 && mapped(vpn.AlignDown(o), vpn.AlignDown(o)+addr.VPN(o.Pages())) {
							o--
						}
						mapBoth(vpn.AlignDown(o), o)
						faults++
						got, err = fast.RetryAfterFault(v, write)
						want, werr = full.Translate(v, write)
					}
					if err != nil || werr != nil || got != want {
						t.Fatalf("%s: %+v,%v, full %+v,%v", desc, got, err, want, werr)
					}
					recent = vpn
				case op < 95:
					// Promote: one larger page over whatever is mapped
					// around vpn, without a shootdown.
					vpn := pick()
					o := c.orders[rng.Intn(len(c.orders))]
					base, end := vpn.AlignDown(o), vpn.AlignDown(o)+addr.VPN(o.Pages())
					if res, err := tables[0].Lookup(base.Addr()); err == nil && res.Order >= o {
						continue // a page at least this large is already there
					}
					desc = fmt.Sprintf("step %d: promote %#x to order %d", step, base, o)
					unmapBoth(base, end)
					mapBoth(base, o)
				default:
					vpn := pick()
					res, err := tables[0].Lookup(vpn.Addr())
					if err != nil {
						continue
					}
					desc = fmt.Sprintf("step %d: unmap %#x order %d", step, res.VPN, res.Order)
					unmapBoth(res.VPN, res.VPN+addr.VPN(res.Order.Pages()))
					for _, m := range mmus {
						m.ShootdownRange(res.VPN, res.VPN+addr.VPN(res.Order.Pages()))
					}
				}
				diffStates(t, desc, stateOf(fast), stateOf(full))
			}
			if faults < 100 {
				t.Fatalf("only %d demand mappings: the retry was barely exercised", faults)
			}
		})
	}
}
