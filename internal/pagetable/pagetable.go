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

// node is one page-table page. Its child array is allocated the first
// time the table gains a child, so leaf (level-0) tables hold only their
// entries. It is the first field, so the garbage collector scans one word
// of a table rather than its entries.
type node struct {
	children *[addr.SlotsPerTable]*node
	entries  [addr.SlotsPerTable]pte.Entry
}

// child returns the table below slot idx, or nil.
func (n *node) child(idx uint) *node {
	if n.children == nil {
		return nil
	}
	return n.children[idx]
}

// leafShift is log2 of the span of one leaf table: 2 MB.
const leafShift = addr.BasePageShift + addr.LevelBits

// Table is one address space's page table.
type Table struct {
	levels   int
	strategy AliasStrategy
	root     *node
	stats    Stats

	// leaf is the last level-0 table a descent reached and leafTag the
	// 2 MB region it maps (v >> leafShift). Descents for that region start
	// there. A reachable leaf table has no present entry above it (Map
	// neither installs one over a live child nor descends past one), so a
	// descent from the root would read one non-present entry per upper
	// level to get to it. Only Map at level 1 or 2 drops child tables from
	// the tree, and it clears leaf.
	leaf    *node
	leafTag uint64
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
// (and the parent's child array) if needed.
func (t *Table) descend(n *node, idx uint) *node {
	if n.children == nil {
		n.children = new([addr.SlotsPerTable]*node)
	}
	c := n.children[idx]
	if c == nil {
		c = &node{}
		n.children[idx] = c
		t.stats.Nodes++
	}
	return c
}

// seek descends toward v from the memoised leaf table when v lies in its
// region, else from the root. It stops at the first level whose entry for
// v is present or has no table below it, and returns that table and level:
// a descent from the root reads one entry per level down to it.
func (t *Table) seek(v addr.Virt) (*node, int) {
	if t.leaf != nil && uint64(v)>>leafShift == t.leafTag {
		return t.leaf, 0
	}
	n := t.root
	for lvl := t.levels - 1; lvl > 0; lvl-- {
		idx := v.TableIndex(lvl)
		c := n.child(idx)
		if c == nil || n.entries[idx].Present() {
			return n, lvl
		}
		n = c
	}
	t.leaf, t.leafTag = n, uint64(v)>>leafShift
	return n, 0
}

// tableFor returns the table holding the leaf entries for a page of the
// given order starting at v, allocating tables on the way as needed. It
// refuses to pass a present entry: a page inside a larger mapped page
// would be shadowed by it.
func (t *Table) tableFor(v addr.Virt, level int) (*node, error) {
	n, lvl := t.root, t.levels-1
	if level == 0 {
		n, lvl = t.seek(v)
	}
	for ; lvl > level; lvl-- {
		idx := v.TableIndex(lvl)
		if n.entries[idx].Present() {
			return nil, fmt.Errorf("pagetable: virt %#x lies inside a page mapped at level %d", uint64(v), lvl)
		}
		n = t.descend(n, idx)
	}
	if level == 0 {
		t.leaf, t.leafTag = n, uint64(v)>>leafShift
	}
	return n, nil
}

// Map installs a mapping of the given order for the page containing v.
// v and pfn must be order-aligned. Installing over any present slot, or
// inside a larger mapped page, is an error: the OS must unmap first
// (promotion does exactly that).
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
	n, err := t.tableFor(v, level)
	if err != nil {
		return err
	}
	base := v.TableIndex(level)

	// Reject conflicts before writing anything. A child table emptied by
	// earlier unmaps (the promotion path unmaps constituent pages first)
	// is pruned; a child with live mappings is a conflict.
	for i := uint64(0); i < slots; i++ {
		idx := base + uint(i)
		if n.entries[idx].Present() {
			return fmt.Errorf("pagetable: slot %d at level %d already mapped", idx, level)
		}
		if c := n.child(idx); c != nil {
			if !subtreeEmpty(c) {
				return fmt.Errorf("pagetable: slot %d at level %d has live child mappings", idx, level)
			}
		}
	}
	if n.children != nil {
		for i := uint64(0); i < slots; i++ {
			n.children[base+uint(i)] = nil
		}
	}
	if level > 0 {
		// The pruned tables may include the memoised leaf table.
		t.leaf = nil
	}

	var entry pte.Entry
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
	n, slot, res, err := t.find(v)
	if err != nil {
		return 0, 0, 0, err
	}
	_, slots := leafLevel(res.Order)
	for i := uint64(0); i < slots; i++ {
		n.entries[slot+uint(i)] = pte.Zero
		t.stats.PTEWrites++
	}
	return res.VPN, res.PFN, res.Order, nil
}

// find returns the true leaf entry covering v without counting a walk,
// with the table that holds it and its slot. Alias slots span a single
// table, so the true PTE lives in the table where the descent ended, at
// the page-aligned index.
func (t *Table) find(v addr.Virt) (*node, uint, WalkResult, error) {
	n, lvl := t.seek(v)
	e := n.entries[v.TableIndex(lvl)]
	if !e.Present() {
		return nil, 0, WalkResult{}, ErrNotMapped
	}
	order := e.Order(lvl)
	slot := v.AlignDown(order).TableIndex(lvl)
	if e.Alias() && t.strategy == ExtraLookup {
		e = n.entries[slot]
		if !e.Present() || e.Alias() {
			return nil, 0, WalkResult{}, fmt.Errorf("pagetable: dangling alias at %#x", uint64(v))
		}
	}
	return n, slot, WalkResult{
		VPN:   v.AlignDown(order).PageNumber(),
		PFN:   e.PFN(lvl),
		Order: order,
		Flags: uint64(e) & (pte.FlagWrite | pte.FlagUser | pte.FlagNX | pte.FlagAccessed | pte.FlagDirty),
		Level: lvl,
	}, nil
}

// ErrNotMapped is returned when no present mapping covers the address.
var ErrNotMapped = fmt.Errorf("pagetable: address not mapped")

// subtreeEmpty reports whether a table and all its descendants hold no
// present entries.
func subtreeEmpty(n *node) bool {
	for i := uint(0); i < addr.SlotsPerTable; i++ {
		if n.entries[i].Present() {
			return false
		}
		if c := n.child(i); c != nil && !subtreeEmpty(c) {
			return false
		}
	}
	return true
}

// Lookup returns the mapping covering v without performing (or counting) a
// hardware walk. The OS uses it for bookkeeping.
func (t *Table) Lookup(v addr.Virt) (WalkResult, error) {
	_, _, res, err := t.find(v)
	return res, err
}

// Walk performs a hardware page walk for v, counting one memory reference
// per level touched plus the alias extra access when the leaf is an alias
// PTE under the ExtraLookup strategy (Fig. 6). The MMU layer models
// paging-structure caches by discounting upper-level references; Walk
// itself reports the uncached count.
func (t *Table) Walk(v addr.Virt) (WalkResult, error) {
	t.stats.Walks++
	n, lvl := t.seek(v)
	refs := t.levels - lvl
	e := n.entries[v.TableIndex(lvl)]
	if !e.Present() {
		t.stats.WalkRefs += uint64(refs)
		return WalkResult{MemRefs: refs}, ErrNotMapped
	}
	order := e.Order(lvl)
	alias := e.Alias()
	if alias && t.strategy == ExtraLookup {
		// One more access with the page-offset bits zeroed: fetch the true
		// PTE at the page-aligned virtual address.
		refs++
		t.stats.AliasExtras++
		e = n.entries[v.AlignDown(order).TableIndex(lvl)]
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

// store writes e as the true PTE in slot of n, a page of the given order;
// under FullCopy it refreshes every copy as well.
func (t *Table) store(n *node, slot uint, order addr.Order, e pte.Entry) {
	n.entries[slot] = e
	t.stats.PTEWrites++
	if t.strategy == FullCopy {
		_, slots := leafLevel(order)
		for i := uint64(1); i < slots; i++ {
			n.entries[slot+uint(i)] = e | pte.Entry(pte.FlagAlias)
			t.stats.PTEWrites++
		}
	}
}

// SetAccessedDirty sets the A (and for writes, D) bit of the true PTE
// covering v. It returns true if an in-memory PTE update was required
// (i.e. a bit was newly set) — the sticky behaviour §III-C1 relies on.
// Under FullCopy, the update must touch every spanned slot.
func (t *Table) SetAccessedDirty(v addr.Virt, write bool) (bool, error) {
	n, slot, res, err := t.find(v)
	if err != nil {
		return false, err
	}
	e := n.entries[slot]
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
	t.stats.ADUpdates++
	t.store(n, slot, res.Order, e)
	return true, nil
}

// Protect rewrites the permission flags of the page covering v (e.g. for
// copy-on-write downgrades). Under FullCopy all spanned slots are updated;
// under ExtraLookup only the true PTE carries permissions.
func (t *Table) Protect(v addr.Virt, flags uint64) error {
	n, slot, res, err := t.find(v)
	if err != nil {
		return err
	}
	const permMask = pte.FlagWrite | pte.FlagUser | pte.FlagNX
	t.store(n, slot, res.Order, pte.Entry((uint64(n.entries[slot])&^permMask)|(flags&permMask)))
	return nil
}

// Relocate rewrites the frame number of the page covering v (compaction
// migration). The new frame must be order-aligned.
func (t *Table) Relocate(v addr.Virt, newPFN addr.PFN) error {
	n, slot, res, err := t.find(v)
	if err != nil {
		return err
	}
	ne, err := n.entries[slot].WithPFN(newPFN, res.Level)
	if err != nil {
		return err
	}
	t.store(n, slot, res.Order, ne)
	return nil
}

// MappedPages calls fn for every true mapping in the table, in ascending
// virtual order. fn receives the first VPN, first PFN, order and flags.
func (t *Table) MappedPages(fn func(addr.VPN, addr.PFN, addr.Order, uint64)) {
	t.visit(t.root, t.levels-1, 0, fn)
}

func (t *Table) visit(n *node, lvl int, prefix addr.Virt, fn func(addr.VPN, addr.PFN, addr.Order, uint64)) {
	shift := uint(addr.BasePageShift + lvl*addr.LevelBits)
	for idx := uint(0); idx < addr.SlotsPerTable; idx++ {
		va := prefix | addr.Virt(uint64(idx)<<shift)
		e := n.entries[idx]
		if e.Present() && !e.Alias() {
			fn(va.PageNumber(), e.PFN(lvl), e.Order(lvl), uint64(e))
		}
		if c := n.child(idx); c != nil {
			t.visit(c, lvl-1, va, fn)
		}
	}
}
