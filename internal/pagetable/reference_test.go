package pagetable

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tps/internal/addr"
	"tps/internal/pte"
)

// refTable is the page table as it was before leaf tables dropped their
// child arrays and operations started sharing one descent: every table
// carries a full child array, every operation descends from the root, and
// PTE updates find their table with a second descent (Lookup, then
// tableFor). The only change from that version is the bugfix Table also
// has: Map refuses to descend past a present entry. It is the oracle of
// TestPageTableDifferentialAgainstReference.
type refTable struct {
	levels   int
	strategy AliasStrategy
	root     *refNode
	stats    Stats
}

type refNode struct {
	entries  [addr.SlotsPerTable]pte.Entry
	children [addr.SlotsPerTable]*refNode
}

func newRefTable(levels int, strategy AliasStrategy) *refTable {
	t := &refTable{levels: levels, strategy: strategy, root: &refNode{}}
	t.stats.Nodes = 1
	return t
}

func (t *refTable) Stats() Stats { return t.stats }

func (t *refTable) descend(n *refNode, idx uint, create bool) *refNode {
	if n.children[idx] == nil && create {
		n.children[idx] = &refNode{}
		t.stats.Nodes++
	}
	return n.children[idx]
}

// tableFor returns nil where a present entry lies on the way down.
func (t *refTable) tableFor(v addr.Virt, level int, create bool) *refNode {
	n := t.root
	for lvl := t.levels - 1; lvl > level; lvl-- {
		if n.entries[v.TableIndex(lvl)].Present() {
			return nil
		}
		n = t.descend(n, v.TableIndex(lvl), create)
		if n == nil {
			return nil
		}
	}
	return n
}

func (t *refTable) Map(v addr.Virt, pfn addr.PFN, order addr.Order, flags uint64) error {
	if !order.Valid() {
		return fmt.Errorf("ref: invalid order %d", order)
	}
	if !v.Aligned(order) {
		return fmt.Errorf("ref: virt %#x not aligned to %v", uint64(v), order)
	}
	if !pfn.Aligned(order) {
		return fmt.Errorf("ref: frame %#x not aligned to %v", uint64(pfn), order)
	}
	level, slots := leafLevel(order)
	n := t.tableFor(v, level, true)
	if n == nil {
		return fmt.Errorf("ref: virt %#x inside a larger page", uint64(v))
	}
	base := v.TableIndex(level)
	for i := uint64(0); i < slots; i++ {
		idx := base + uint(i)
		if n.entries[idx].Present() {
			return fmt.Errorf("ref: slot %d at level %d already mapped", idx, level)
		}
		if c := n.children[idx]; c != nil && !refSubtreeEmpty(c) {
			return fmt.Errorf("ref: slot %d at level %d has live child mappings", idx, level)
		}
	}
	for i := uint64(0); i < slots; i++ {
		n.children[base+uint(i)] = nil
	}

	var entry pte.Entry
	var err error
	tailored := slots > 1 || (order > 0 && order != addr.Order2M && order != addr.Order1G)
	if tailored {
		entry, err = pte.MakeTailored(pfn, order, flags)
		if err != nil {
			return err
		}
	} else {
		entry = pte.MakeConventional(pfn, order, flags)
	}
	n.entries[base] = entry
	t.stats.PTEWrites++
	for i := uint64(1); i < slots; i++ {
		idx := base + uint(i)
		if t.strategy == FullCopy {
			n.entries[idx] = entry | pte.Entry(pte.FlagAlias)
		} else {
			a, err := pte.MakeAlias(order, flags&pte.FlagNX)
			if err != nil {
				return err
			}
			n.entries[idx] = a
		}
		t.stats.PTEWrites++
	}
	return nil
}

func (t *refTable) Unmap(v addr.Virt) (addr.VPN, addr.PFN, addr.Order, error) {
	res, err := t.Lookup(v)
	if err != nil {
		return 0, 0, 0, err
	}
	level, slots := leafLevel(res.Order)
	start := res.VPN.Addr()
	n := t.tableFor(start, level, false)
	base := start.TableIndex(level)
	for i := uint64(0); i < slots; i++ {
		n.entries[base+uint(i)] = pte.Zero
		t.stats.PTEWrites++
	}
	return res.VPN, res.PFN, res.Order, nil
}

func (t *refTable) Lookup(v addr.Virt) (WalkResult, error) {
	n := t.root
	for lvl := t.levels - 1; lvl >= 0; lvl-- {
		idx := v.TableIndex(lvl)
		e := n.entries[idx]
		if e.Present() {
			order := e.Order(lvl)
			if e.Alias() && t.strategy == ExtraLookup {
				e = n.entries[v.AlignDown(order).TableIndex(lvl)]
				if !e.Present() || e.Alias() {
					return WalkResult{}, fmt.Errorf("ref: dangling alias at %#x", uint64(v))
				}
			}
			return WalkResult{
				VPN:   v.AlignDown(order).PageNumber(),
				PFN:   e.PFN(lvl),
				Order: order,
				Flags: uint64(e) & (pte.FlagWrite | pte.FlagUser | pte.FlagNX | pte.FlagAccessed | pte.FlagDirty),
				Level: lvl,
			}, nil
		}
		if n.children[idx] == nil {
			return WalkResult{}, ErrNotMapped
		}
		n = n.children[idx]
	}
	return WalkResult{}, ErrNotMapped
}

func refSubtreeEmpty(n *refNode) bool {
	for i := 0; i < addr.SlotsPerTable; i++ {
		if n.entries[i].Present() {
			return false
		}
		if c := n.children[i]; c != nil && !refSubtreeEmpty(c) {
			return false
		}
	}
	return true
}

func (t *refTable) Walk(v addr.Virt) (WalkResult, error) {
	t.stats.Walks++
	refs := 0
	n := t.root
	for lvl := t.levels - 1; lvl >= 0; lvl-- {
		idx := v.TableIndex(lvl)
		refs++
		e := n.entries[idx]
		if e.Present() {
			order := e.Order(lvl)
			alias := e.Alias()
			if alias && t.strategy == ExtraLookup {
				refs++
				t.stats.AliasExtras++
				e = n.entries[v.AlignDown(order).TableIndex(lvl)]
				if !e.Present() || e.Alias() {
					return WalkResult{}, fmt.Errorf("ref: dangling alias at %#x", uint64(v))
				}
			}
			t.stats.WalkRefs += uint64(refs)
			return WalkResult{
				VPN:     v.AlignDown(order).PageNumber(),
				PFN:     e.PFN(lvl),
				Order:   order,
				Flags:   uint64(e) & (pte.FlagWrite | pte.FlagUser | pte.FlagNX | pte.FlagAccessed | pte.FlagDirty),
				MemRefs: refs,
				Level:   lvl,
				Alias:   alias,
			}, nil
		}
		if n.children[idx] == nil {
			t.stats.WalkRefs += uint64(refs)
			return WalkResult{MemRefs: refs}, ErrNotMapped
		}
		n = n.children[idx]
	}
	t.stats.WalkRefs += uint64(refs)
	return WalkResult{MemRefs: refs}, ErrNotMapped
}

func (t *refTable) SetAccessedDirty(v addr.Virt, write bool) (bool, error) {
	res, err := t.Lookup(v)
	if err != nil {
		return false, err
	}
	level, slots := leafLevel(res.Order)
	start := res.VPN.Addr()
	n := t.tableFor(start, level, false)
	base := start.TableIndex(level)
	e := n.entries[base]
	updated := false
	if !e.Accessed() {
		e = e.SetAccessed()
		updated = true
	}
	if write && !e.Dirty() {
		e = e.SetDirty()
		updated = true
	}
	if !updated {
		return false, nil
	}
	n.entries[base] = e
	t.stats.PTEWrites++
	t.stats.ADUpdates++
	if t.strategy == FullCopy {
		for i := uint64(1); i < slots; i++ {
			n.entries[base+uint(i)] = e | pte.Entry(pte.FlagAlias)
			t.stats.PTEWrites++
		}
	}
	return true, nil
}

func (t *refTable) Protect(v addr.Virt, flags uint64) error {
	res, err := t.Lookup(v)
	if err != nil {
		return err
	}
	level, slots := leafLevel(res.Order)
	start := res.VPN.Addr()
	n := t.tableFor(start, level, false)
	base := start.TableIndex(level)
	const permMask = pte.FlagWrite | pte.FlagUser | pte.FlagNX
	ne := pte.Entry((uint64(n.entries[base]) &^ permMask) | (flags & permMask))
	n.entries[base] = ne
	t.stats.PTEWrites++
	if t.strategy == FullCopy {
		for i := uint64(1); i < slots; i++ {
			n.entries[base+uint(i)] = ne | pte.Entry(pte.FlagAlias)
			t.stats.PTEWrites++
		}
	}
	return nil
}

func (t *refTable) Relocate(v addr.Virt, newPFN addr.PFN) error {
	res, err := t.Lookup(v)
	if err != nil {
		return err
	}
	level, slots := leafLevel(res.Order)
	start := res.VPN.Addr()
	n := t.tableFor(start, level, false)
	base := start.TableIndex(level)
	ne, err := n.entries[base].WithPFN(newPFN, level)
	if err != nil {
		return err
	}
	n.entries[base] = ne
	t.stats.PTEWrites++
	if t.strategy == FullCopy {
		for i := uint64(1); i < slots; i++ {
			n.entries[base+uint(i)] = ne | pte.Entry(pte.FlagAlias)
			t.stats.PTEWrites++
		}
	}
	return nil
}

func (t *refTable) MappedPages(fn func(addr.VPN, addr.PFN, addr.Order, uint64)) {
	t.visit(t.root, t.levels-1, 0, fn)
}

func (t *refTable) visit(n *refNode, lvl int, prefix addr.Virt, fn func(addr.VPN, addr.PFN, addr.Order, uint64)) {
	shift := uint(addr.BasePageShift + lvl*addr.LevelBits)
	for idx := 0; idx < addr.SlotsPerTable; idx++ {
		va := prefix | addr.Virt(uint64(idx)<<shift)
		e := n.entries[idx]
		if e.Present() && !e.Alias() {
			fn(va.PageNumber(), e.PFN(lvl), e.Order(lvl), uint64(e))
		}
		if n.children[idx] != nil {
			t.visit(n.children[idx], lvl-1, va, fn)
		}
	}
}

// TestPageTableDifferentialAgainstReference drives Table and refTable
// through seeded random sequences of maps of every order, unmaps, walks,
// lookups, A/D updates, protections and relocations, under both alias
// strategies at four and five levels. Addresses come from a few 1 GB
// regions, each with four hot 2 MB regions whose small pages crowd the
// first slots of one leaf table, so neighbours share leaf tables, 2 MB and
// larger maps prune emptied ones, and walks reach emptied but unpruned
// tables. Every result, error (and ErrNotMapped identity) and Stats value
// must match at every step, and the mapped pages at the end.
func TestPageTableDifferentialAgainstReference(t *testing.T) {
	for _, levels := range []int{addr.Levels4, addr.Levels5} {
		for _, strat := range []AliasStrategy{ExtraLookup, FullCopy} {
			t.Run(fmt.Sprintf("%d-level/%v", levels, strat), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(10*levels) + int64(strat)))
				pt, ref := New(levels, strat), newRefTable(levels, strat)
				regions := []addr.Virt{1 << 30, 3 << 30, 1<<39 | 1<<30}
				if levels == addr.Levels5 {
					regions = append(regions, 1<<48|2<<30)
				}
				// hot returns one of four 2 MB regions at the start of a
				// region, half the time the one used last.
				var last addr.Virt
				hot := func() addr.Virt {
					if last == 0 || rng.Intn(2) == 0 {
						last = regions[rng.Intn(len(regions))] + addr.Virt(rng.Intn(4))*addr.Virt(addr.Order2M.PageSize())
					}
					return last
				}
				// order draws a page order: mostly pages of one leaf table.
				order := func() addr.Order {
					switch r := rng.Intn(20); {
					case r < 12:
						return addr.Order(rng.Intn(5))
					case r < 17:
						return addr.Order(5 + rng.Intn(5))
					default:
						return addr.Order(10 + rng.Intn(9))
					}
				}
				// page returns an order-aligned address: pages below 2 MB
				// in the first 16 slots of a hot region's leaf table, larger
				// pages over a hot region.
				page := func(o addr.Order) addr.Virt {
					v := hot()
					if o < addr.Order2M {
						v += addr.Virt(rng.Intn(max(1, 16>>o))) << (addr.BasePageShift + uint(o))
					}
					return v.AlignDown(o)
				}
				// probe returns an address in a hot region, mostly in the
				// first 16 slots of its leaf table.
				probe := func() addr.Virt {
					slot := rng.Intn(16)
					if rng.Intn(8) == 0 {
						slot = rng.Intn(addr.SlotsPerTable)
					}
					return hot() + addr.Virt(slot)<<addr.BasePageShift + addr.Virt(rng.Intn(addr.BasePageSize))
				}
				flags := func() uint64 {
					var f uint64
					for _, bit := range []uint64{pte.FlagWrite, pte.FlagUser, pte.FlagNX} {
						if rng.Intn(2) == 0 {
							f |= bit
						}
					}
					return f
				}
				same := func(desc string, err, rerr error) {
					t.Helper()
					if (err == nil) != (rerr == nil) || errors.Is(err, ErrNotMapped) != errors.Is(rerr, ErrNotMapped) {
						t.Fatalf("%s: error %v, reference %v", desc, err, rerr)
					}
				}
				for step := 0; step < 20000; step++ {
					var desc string
					switch op := rng.Intn(100); {
					case op < 20:
						o := order()
						v := page(o)
						pfn := addr.PFN(rng.Int63n(1 << 24)).AlignDown(o)
						f := flags()
						desc = fmt.Sprintf("step %d Map(%#x, %#x, %d, %#x)", step, uint64(v), uint64(pfn), o, f)
						same(desc, pt.Map(v, pfn, o, f), ref.Map(v, pfn, o, f))
					case op < 45:
						v := probe()
						desc = fmt.Sprintf("step %d Unmap(%#x)", step, uint64(v))
						vpn, pfn, o, err := pt.Unmap(v)
						rvpn, rpfn, ro, rerr := ref.Unmap(v)
						same(desc, err, rerr)
						if vpn != rvpn || pfn != rpfn || o != ro {
							t.Fatalf("%s = %#x,%#x,%d, reference %#x,%#x,%d", desc, vpn, pfn, o, rvpn, rpfn, ro)
						}
					case op < 65:
						v := probe()
						desc = fmt.Sprintf("step %d Walk(%#x)", step, uint64(v))
						res, err := pt.Walk(v)
						rres, rerr := ref.Walk(v)
						same(desc, err, rerr)
						if res != rres {
							t.Fatalf("%s = %+v, reference %+v", desc, res, rres)
						}
					case op < 73:
						v := probe()
						desc = fmt.Sprintf("step %d Lookup(%#x)", step, uint64(v))
						res, err := pt.Lookup(v)
						rres, rerr := ref.Lookup(v)
						same(desc, err, rerr)
						if res != rres {
							t.Fatalf("%s = %+v, reference %+v", desc, res, rres)
						}
					case op < 85:
						v, write := probe(), rng.Intn(2) == 0
						desc = fmt.Sprintf("step %d SetAccessedDirty(%#x, %v)", step, uint64(v), write)
						upd, err := pt.SetAccessedDirty(v, write)
						rupd, rerr := ref.SetAccessedDirty(v, write)
						same(desc, err, rerr)
						if upd != rupd {
							t.Fatalf("%s = %v, reference %v", desc, upd, rupd)
						}
					case op < 92:
						v, f := probe(), flags()
						desc = fmt.Sprintf("step %d Protect(%#x, %#x)", step, uint64(v), f)
						same(desc, pt.Protect(v, f), ref.Protect(v, f))
					default:
						// A frame aligned to the covering page's order, or
						// now and then a misaligned one.
						v := probe()
						pfn := addr.PFN(rng.Int63n(1 << 24))
						if res, err := ref.Lookup(v); err == nil && rng.Intn(4) != 0 {
							pfn = pfn.AlignDown(res.Order)
						}
						desc = fmt.Sprintf("step %d Relocate(%#x, %#x)", step, uint64(v), uint64(pfn))
						same(desc, pt.Relocate(v, pfn), ref.Relocate(v, pfn))
					}
					if s, rs := pt.Stats(), ref.Stats(); s != rs {
						t.Fatalf("%s: stats %+v, reference %+v", desc, s, rs)
					}
				}
				type mapping struct {
					vpn   addr.VPN
					pfn   addr.PFN
					o     addr.Order
					flags uint64
				}
				var got, want []mapping
				pt.MappedPages(func(vpn addr.VPN, pfn addr.PFN, o addr.Order, f uint64) {
					got = append(got, mapping{vpn, pfn, o, f})
				})
				ref.MappedPages(func(vpn addr.VPN, pfn addr.PFN, o addr.Order, f uint64) {
					want = append(want, mapping{vpn, pfn, o, f})
				})
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("MappedPages = %v, reference %v", got, want)
				}
				t.Logf("%d mappings at the end, %d tables", len(got), pt.Stats().Nodes)
			})
		}
	}
}
