// Package pagetable implements the hierarchical radix page table with the
// Tailored Page Sizes extensions (§III-A1, Figs. 4-6).
//
// The tree follows x86-64: four (optionally five) levels of 512-entry
// tables, each level consuming nine virtual-address bits. Conventional
// leaves exist at level 0 (4 KB), level 1 with the PS bit (2 MB), and level
// 2 with the PS bit (1 GB). TPS adds tailored leaves:
//
//   - orders 1-8 live at level 0 and span 2..256 slots of one leaf table;
//   - order 9 is the conventional 2 MB PS entry (TPS reuses it);
//   - orders 10-17 live at level 1 and span 2..256 PD slots;
//   - order 18 is the conventional 1 GB PS entry.
//
// A tailored page occupying multiple slots stores one "true" PTE in the
// slot of its first (page-aligned) address; the remaining slots hold alias
// PTEs. With the ExtraLookup strategy an alias costs the walker one extra
// memory access to fetch the true PTE at the page-aligned virtual address
// (Fig. 6). With the FullCopy strategy every slot holds a complete copy of
// the translation, trading PTE-update cost for that access (§III-A1).
package pagetable

import (
	"fmt"

	"tps/internal/addr"
	"tps/internal/pte"
)

// AliasStrategy selects how multi-slot tailored pages maintain their
// non-true slots.
type AliasStrategy int

const (
	// ExtraLookup stores size-only alias PTEs; walks landing on an alias
	// pay one additional memory access (the paper's primary design).
	ExtraLookup AliasStrategy = iota
	// FullCopy replicates the true PTE into every spanned slot; walks
	// never pay the extra access but every PTE update touches all copies.
	FullCopy
)

// String renders the strategy name.
func (s AliasStrategy) String() string {
	if s == FullCopy {
		return "full-copy"
	}
	return "extra-lookup"
}

// Stats counts page-table work, which feeds the OS system-time model.
type Stats struct {
	Walks       uint64 // Walk invocations
	WalkRefs    uint64 // page-table memory references issued by walks
	AliasExtras uint64 // extra accesses caused by alias PTEs
	PTEWrites   uint64 // individual entry writes (true + alias + copies)
	Nodes       uint64 // page-table pages allocated
	ADUpdates   uint64 // in-memory A/D bit store operations
}

// WalkResult describes a completed page walk.
type WalkResult struct {
	// Entry is the translation found: first VPN/PFN of the page, order,
	// and the current in-memory flags of the true PTE.
	VPN   addr.VPN
	PFN   addr.PFN
	Order addr.Order
	Flags uint64
	// MemRefs is the number of page-table memory accesses the walk
	// performed, before any MMU-cache skipping (the MMU layer subtracts
	// cached upper levels). Includes the alias extra access.
	MemRefs int
	// Level is the tree level where the leaf was found (0, 1, or 2).
	Level int
	// Alias reports whether the walk landed on an alias PTE first.
	Alias bool
}

type node struct {
	entries  [addr.SlotsPerTable]pte.Entry
	children [addr.SlotsPerTable]*node
}

// Table is one address space's page table.
type Table struct {
	levels   int
	strategy AliasStrategy
	root     *node
	stats    Stats
}

// New creates an empty page table with the given depth (addr.Levels4 or
// addr.Levels5) and alias strategy.
func New(levels int, strategy AliasStrategy) *Table {
	if levels != addr.Levels4 && levels != addr.Levels5 {
		panic(fmt.Sprintf("pagetable: unsupported depth %d", levels))
	}
	t := &Table{levels: levels, strategy: strategy, root: &node{}}
	t.stats.Nodes = 1
	return t
}

// Levels returns the tree depth.
func (t *Table) Levels() int { return t.levels }

// Strategy returns the alias maintenance strategy.
func (t *Table) Strategy() AliasStrategy { return t.strategy }

// Stats returns a copy of the counters.
func (t *Table) Stats() Stats { return t.stats }

// leafLevel returns the tree level at which a page of the given order is
// installed, and the number of table slots it spans there.
func leafLevel(order addr.Order) (level int, slots uint64) {
	switch {
	case order < addr.Order2M:
		return 0, uint64(1) << uint(order)
	case order == addr.Order2M:
		return 1, 1
	case order < addr.Order1G:
		return 1, uint64(1) << uint(order-addr.Order2M)
	default:
		return 2, 1
	}
}

// descend returns the child table at the given level index, allocating it
// if create is set.
func (t *Table) descend(n *node, idx uint, create bool) *node {
	if n.children[idx] == nil && create {
		n.children[idx] = &node{}
		t.stats.Nodes++
	}
	return n.children[idx]
}

// tableFor walks down to the table holding the leaf entries for a page of
// the given order starting at v, allocating intermediate tables as needed.
func (t *Table) tableFor(v addr.Virt, level int, create bool) *node {
	n := t.root
	for lvl := t.levels - 1; lvl > level; lvl-- {
		n = t.descend(n, v.TableIndex(lvl), create)
		if n == nil {
			return nil
		}
	}
	return n
}

// Map installs a mapping of the given order for the page containing v.
// v and pfn must be order-aligned. Installing over any present slot is an
// error: the OS must unmap first (promotion does exactly that).
func (t *Table) Map(v addr.Virt, pfn addr.PFN, order addr.Order, flags uint64) error {
	if !order.Valid() {
		return fmt.Errorf("pagetable: invalid order %d", order)
	}
	if !v.Aligned(order) {
		return fmt.Errorf("pagetable: virt %#x not aligned to %v", uint64(v), order)
	}
	if !pfn.Aligned(order) {
		return fmt.Errorf("pagetable: frame %#x not aligned to %v", uint64(pfn), order)
	}
	level, slots := leafLevel(order)
	n := t.tableFor(v, level, true)
	base := v.TableIndex(level)

	// Reject conflicts before writing anything. A child table emptied by
	// earlier unmaps (the promotion path unmaps constituent pages first)
	// is pruned; a child with live mappings is a conflict.
	for i := uint64(0); i < slots; i++ {
		idx := base + uint(i)
		if n.entries[idx].Present() {
			return fmt.Errorf("pagetable: slot %d at level %d already mapped", idx, level)
		}
		if c := n.children[idx]; c != nil {
			if !subtreeEmpty(c) {
				return fmt.Errorf("pagetable: slot %d at level %d has live child mappings", idx, level)
			}
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

// Unmap removes the page containing v, clearing true and alias slots.
// It returns the removed mapping's first VPN, frame, and order so the OS
// can release physical memory and shoot down TLBs.
func (t *Table) Unmap(v addr.Virt) (addr.VPN, addr.PFN, addr.Order, error) {
	res, err := t.lookup(v)
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

// lookup finds the true leaf entry covering v without counting a walk.
func (t *Table) lookup(v addr.Virt) (WalkResult, error) {
	n := t.root
	for lvl := t.levels - 1; lvl >= 0; lvl-- {
		idx := v.TableIndex(lvl)
		e := n.entries[idx]
		if e.Present() {
			order := e.Order(lvl)
			if e.Alias() && t.strategy == ExtraLookup {
				// Alias slots span a single table, so the true PTE lives
				// in this same node at the page-aligned index.
				trueV := v.AlignDown(order)
				e = n.entries[trueV.TableIndex(lvl)]
				if !e.Present() || e.Alias() {
					return WalkResult{}, fmt.Errorf("pagetable: dangling alias at %#x", uint64(v))
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

// ErrNotMapped is returned when no present mapping covers the address.
var ErrNotMapped = fmt.Errorf("pagetable: address not mapped")

// subtreeEmpty reports whether a table and all its descendants hold no
// present entries.
func subtreeEmpty(n *node) bool {
	for i := 0; i < addr.SlotsPerTable; i++ {
		if n.entries[i].Present() {
			return false
		}
		if c := n.children[i]; c != nil && !subtreeEmpty(c) {
			return false
		}
	}
	return true
}

// Lookup returns the mapping covering v without performing (or counting) a
// hardware walk. The OS uses it for bookkeeping.
func (t *Table) Lookup(v addr.Virt) (WalkResult, error) { return t.lookup(v) }

// Walk performs a hardware page walk for v, counting one memory reference
// per level touched plus the alias extra access when the leaf is an alias
// PTE under the ExtraLookup strategy (Fig. 6). The MMU layer models
// paging-structure caches by discounting upper-level references; Walk
// itself reports the uncached count.
func (t *Table) Walk(v addr.Virt) (WalkResult, error) {
	t.stats.Walks++
	refs := 0
	n := t.root
	for lvl := t.levels - 1; lvl >= 0; lvl-- {
		idx := v.TableIndex(lvl)
		refs++ // reading this level's entry
		e := n.entries[idx]
		if e.Present() {
			order := e.Order(lvl)
			alias := e.Alias()
			if alias && t.strategy == ExtraLookup {
				// One more access with the page-offset bits zeroed: fetch
				// the true PTE at the page-aligned virtual address.
				refs++
				t.stats.AliasExtras++
				trueV := v.AlignDown(order)
				e = n.entries[trueV.TableIndex(lvl)]
				if !e.Present() || e.Alias() {
					return WalkResult{}, fmt.Errorf("pagetable: dangling alias at %#x", uint64(v))
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

// SetAccessedDirty sets the A (and for writes, D) bit of the true PTE
// covering v. It returns true if an in-memory PTE update was required
// (i.e. a bit was newly set) — the sticky behaviour §III-C1 relies on.
// Under FullCopy, the update must touch every spanned slot.
func (t *Table) SetAccessedDirty(v addr.Virt, write bool) (bool, error) {
	res, err := t.lookup(v)
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

// Protect rewrites the permission flags of the page covering v (e.g. for
// copy-on-write downgrades). Under FullCopy all spanned slots are updated;
// under ExtraLookup only the true PTE carries permissions.
func (t *Table) Protect(v addr.Virt, flags uint64) error {
	res, err := t.lookup(v)
	if err != nil {
		return err
	}
	level, slots := leafLevel(res.Order)
	start := res.VPN.Addr()
	n := t.tableFor(start, level, false)
	base := start.TableIndex(level)
	e := n.entries[base]
	const permMask = pte.FlagWrite | pte.FlagUser | pte.FlagNX
	ne := pte.Entry((uint64(e) &^ permMask) | (flags & permMask))
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

// Relocate rewrites the frame number of the page covering v (compaction
// migration). The new frame must be order-aligned.
func (t *Table) Relocate(v addr.Virt, newPFN addr.PFN) error {
	res, err := t.lookup(v)
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

// MappedPages calls fn for every true mapping in the table, in ascending
// virtual order. fn receives the first VPN, first PFN, order and flags.
func (t *Table) MappedPages(fn func(addr.VPN, addr.PFN, addr.Order, uint64)) {
	t.visit(t.root, t.levels-1, 0, fn)
}

func (t *Table) visit(n *node, lvl int, prefix addr.Virt, fn func(addr.VPN, addr.PFN, addr.Order, uint64)) {
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
