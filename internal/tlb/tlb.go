// Package tlb implements the translation-lookaside-buffer structures of the
// paper's microarchitecture (§III-A2, Fig. 7):
//
//   - SetAssoc: a conventional set-associative TLB for one or more fixed
//     page sizes with true LRU, used for the split L1 TLBs (64-entry 4 KB,
//     32-entry 2 MB, 4-entry 1 GB) and the unified L2 STLB.
//   - FullyAssoc: the paper's any-page-size TPS TLB. Each entry carries a
//     page-mask field populated at fill time; an incoming VPN is masked
//     with the entry's mask before the tag compare, adding a single gate
//     delay. 32 entries fully associative, as productized AMD L1 designs.
//
// All TLBs operate on base-granularity virtual page numbers; an entry of
// order k covers 2^k consecutive base VPNs.
//
// Both structures use a struct-of-arrays layout: tags, masks, orders,
// frames, flags, and LRU stamps live in parallel slices instead of a
// packed entry struct. A probe therefore scans one contiguous tag (or
// tag+mask) array — the cache-line-dense, SIMD-friendly arrangement — and
// only touches the payload arrays on a hit. Validity is encoded in the tag
// itself (invalidTag marks an empty slot), so the scan needs no separate
// valid-bit load.
package tlb

import (
	"fmt"

	"tps/internal/addr"
)

// Entry is one cached translation.
type Entry struct {
	VPN   addr.VPN   // first base page of the mapped page (order-aligned)
	PFN   addr.PFN   // first base frame (order-aligned)
	Order addr.Order // page size
	Flags uint64     // cached PTE flags (pte.Flag* bits: W, A, D, ...)
}

// Covers reports whether the entry translates the given base VPN.
func (e Entry) Covers(vpn addr.VPN) bool {
	return vpn.AlignDown(e.Order) == e.VPN
}

// Translate produces the base PFN for a covered VPN.
func (e Entry) Translate(vpn addr.VPN) addr.PFN {
	return e.PFN + addr.PFN(vpn-e.VPN)
}

// Stats counts TLB traffic.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	Invalidates uint64
}

// HitRate returns hits/accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// TLB is the interface shared by all TLB organizations.
type TLB interface {
	// Lookup finds an entry covering vpn, updating LRU and stats.
	Lookup(vpn addr.VPN) (Entry, bool)
	// Probe is Lookup without LRU or stat side effects.
	Probe(vpn addr.VPN) (Entry, bool)
	// CreditMiss replays the effects of a Lookup the caller knows would
	// miss (access and miss counters), without the probe.
	CreditMiss()
	// Insert fills the entry, evicting LRU if needed.
	Insert(e Entry)
	// InvalidatePage drops any entry covering vpn (INVLPG).
	InvalidatePage(vpn addr.VPN)
	// InvalidateRange drops entries overlapping [start, end).
	InvalidateRange(start, end addr.VPN)
	// Flush drops everything.
	Flush()
	// Resident calls f for every valid entry, in slot order, with its slot
	// index and LRU stamp (larger is more recent). Inspection only: no
	// LRU or stat side effects.
	Resident(f func(slot int, e Entry, lru uint64))
	// Stats returns the traffic counters accumulated so far.
	Stats() Stats
	// Name identifies the TLB in reports.
	Name() string
	// Capacity returns the number of entries.
	Capacity() int
}

// invalidTag marks an empty comparator slot: a masked VPN can never equal
// all-ones (virtual addresses stay far below 2^63), and an invalid slot's
// mask is 0, which zeroes every incoming VPN.
const invalidTag = ^uint64(0)

// OrderMask returns ^(pages-1) for o: the page-mask comparator input of
// Fig. 7, exported so the mmu's front-line translation cache can verify a
// remembered FullyAssoc way against the live comparator arrays.
func OrderMask(o addr.Order) uint64 { return ^(uint64(1)<<uint(o) - 1) }

// --- Set-associative TLB ---

// SetAssoc is a set-associative TLB. It supports a fixed set of page
// orders; lookups probe once per order that currently has resident entries
// (the standard simulator treatment of the multiple-page-size indexing
// problem the paper's §II-A describes).
//
// Layout: way w of set s lives at index s*ways+w of the parallel arrays.
// tags[i] is the entry's (order-aligned) base VPN, or invalidTag for an
// empty slot; ords/pfns/flags/lrus carry the payload.
type SetAssoc struct {
	name   string
	sets   int
	ways   int
	orders []addr.Order

	tags  []uint64
	ords  []addr.Order
	pfns  []addr.PFN
	flags []uint64
	lrus  []uint64

	tick uint64
	// single marks a one-page-size TLB (the common L1 case): find can skip
	// the per-order loop and the per-way order compare.
	single bool
	// residents[i] counts valid entries of orders[i], so lookups skip
	// probes for absent sizes.
	residents []int
	// slots[o] is the index of order o in orders, or -1 when the TLB does
	// not accept order o.
	slots [addr.MaxOrder + 1]int8
	stats Stats
}

// NewSetAssoc builds a set-associative TLB with the given geometry.
// sets must be a power of two. The orders list gives the page sizes the
// TLB accepts (e.g. just order 0 for the 4 KB L1, or 0 and 9 for the
// Skylake unified STLB).
func NewSetAssoc(name string, sets, ways int, orders ...addr.Order) *SetAssoc {
	if sets <= 0 || !addr.IsPow2(uint64(sets)) {
		panic(fmt.Sprintf("tlb: sets %d must be a positive power of two", sets))
	}
	if ways <= 0 {
		panic("tlb: ways must be positive")
	}
	if len(orders) == 0 {
		panic("tlb: at least one page order required")
	}
	n := sets * ways
	t := &SetAssoc{
		name:      name,
		sets:      sets,
		ways:      ways,
		orders:    append([]addr.Order(nil), orders...),
		tags:      make([]uint64, n),
		ords:      make([]addr.Order, n),
		pfns:      make([]addr.PFN, n),
		flags:     make([]uint64, n),
		lrus:      make([]uint64, n),
		single:    len(orders) == 1,
		residents: make([]int, len(orders)),
	}
	for i := range t.tags {
		t.tags[i] = invalidTag
	}
	for o := range t.slots {
		t.slots[o] = -1
	}
	for i, o := range orders {
		if !o.Valid() {
			panic(fmt.Sprintf("tlb %s: invalid page order %d", name, o))
		}
		if t.slots[o] < 0 {
			t.slots[o] = int8(i)
		}
	}
	return t
}

// Name implements TLB.
func (t *SetAssoc) Name() string { return t.name }

// Capacity implements TLB.
func (t *SetAssoc) Capacity() int { return t.sets * t.ways }

// Stats implements TLB.
func (t *SetAssoc) Stats() Stats { return t.stats }

// WayReady reports whether way w currently holds tag with all `need` flag
// bits set — the condition under which a Lookup producing this way could
// be served without any flag-maintenance side effects. Meaningful only
// for single-size TLBs, where a tag match alone identifies a translation.
func (t *SetAssoc) WayReady(w int, tag, need uint64) bool {
	return t.tags[w] == tag && t.flags[w]&need == need
}

func (t *SetAssoc) index(vpn addr.VPN, o addr.Order) int {
	return int(uint64(vpn)>>uint(o)) & (t.sets - 1)
}

func (t *SetAssoc) orderSlot(o addr.Order) int {
	if !o.Valid() {
		return -1
	}
	return int(t.slots[o])
}

func (t *SetAssoc) entryAt(w int) Entry {
	return Entry{VPN: addr.VPN(t.tags[w]), PFN: t.pfns[w], Order: t.ords[w], Flags: t.flags[w]}
}

// Lookup implements TLB.
func (t *SetAssoc) Lookup(vpn addr.VPN) (Entry, bool) {
	e, _, ok := t.LookupWay(vpn)
	return e, ok
}

// LookupWay is Lookup, additionally reporting which way satisfied the hit
// (-1 on miss) so the caller can remember and later re-credit it.
func (t *SetAssoc) LookupWay(vpn addr.VPN) (Entry, int, bool) {
	t.stats.Accesses++
	if w := t.find(vpn); w >= 0 {
		t.tick++
		t.lrus[w] = t.tick
		t.stats.Hits++
		return t.entryAt(w), w, true
	}
	t.stats.Misses++
	return Entry{}, -1, false
}

// CreditHit replays the exact state effects of a Lookup that hit way w —
// tick advance, LRU stamp, access and hit counters — without the probe.
// The mmu's translation cache uses it (after verifying the way still
// holds the remembered tag) to keep modeled state bit-identical while
// skipping the scan. Calling it with a way a Lookup would not have hit
// breaks stat fidelity; it is the caller's job to verify first.
func (t *SetAssoc) CreditHit(w int) {
	t.stats.Accesses++
	t.tick++
	t.lrus[w] = t.tick
	t.stats.Hits++
}

// CreditMiss replays the state effects of a Lookup that missed: access and
// miss counters (a missing probe touches no LRU state).
func (t *SetAssoc) CreditMiss() {
	t.stats.Accesses++
	t.stats.Misses++
}

// Probe implements TLB.
func (t *SetAssoc) Probe(vpn addr.VPN) (Entry, bool) {
	if w := t.find(vpn); w >= 0 {
		return t.entryAt(w), true
	}
	return Entry{}, false
}

// find returns the way index holding a translation for vpn, or -1.
func (t *SetAssoc) find(vpn addr.VPN) int {
	if t.single {
		// One page size: no order loop, and every resident entry has that
		// order, so the tag compare alone decides.
		if t.residents[0] == 0 {
			return -1
		}
		o := t.orders[0]
		base := uint64(vpn.AlignDown(o))
		s := t.index(vpn, o) * t.ways
		tags := t.tags[s : s+t.ways]
		for w := range tags {
			if tags[w] == base {
				return s + w
			}
		}
		return -1
	}
	for i, o := range t.orders {
		if t.residents[i] == 0 {
			continue
		}
		base := uint64(vpn.AlignDown(o))
		s := t.index(vpn, o) * t.ways
		tags := t.tags[s : s+t.ways]
		for w := range tags {
			// Same-tag entries of a different order (a larger page whose
			// base coincides) are rejected by the order compare.
			if tags[w] == base && t.ords[s+w] == o {
				return s + w
			}
		}
	}
	return -1
}

// Insert implements TLB. Inserting a translation already present replaces
// it in place (refreshing flags), so fills after permission upgrades work.
func (t *SetAssoc) Insert(e Entry) { t.InsertWay(e) }

// InsertWay is Insert, additionally reporting the way the entry landed in.
func (t *SetAssoc) InsertWay(e Entry) int {
	slot := t.orderSlot(e.Order)
	if slot < 0 {
		panic(fmt.Sprintf("tlb %s: unsupported page order %d", t.name, e.Order))
	}
	t.tick++
	s := t.index(e.VPN, e.Order) * t.ways
	// One scan finds the way holding e, the first invalid way and the
	// least recently used way (strict <, first occurrence).
	vi, lru := -1, 0
	tags, ords, lrus := t.tags[s:s+t.ways], t.ords[s:s+t.ways], t.lrus[s:s+t.ways]
	for w, tag := range tags {
		// An entry's tag is never invalidTag, so a tag match is a valid way.
		if tag == uint64(e.VPN) && ords[w] == e.Order {
			t.pfns[s+w] = e.PFN
			t.flags[s+w] = e.Flags
			lrus[w] = t.tick
			return s + w
		}
		if tag == invalidTag && vi < 0 {
			vi = s + w
		}
		if lrus[w] < lrus[lru] {
			lru = w
		}
	}
	// Victim: the first invalid way if any, else the least recently used.
	if vi < 0 {
		vi = s + lru
	}
	if t.tags[vi] != invalidTag {
		t.residents[t.orderSlot(t.ords[vi])]--
		t.stats.Evictions++
	}
	t.tags[vi] = uint64(e.VPN)
	t.ords[vi] = e.Order
	t.pfns[vi] = e.PFN
	t.flags[vi] = e.Flags
	t.lrus[vi] = t.tick
	t.residents[slot]++
	t.stats.Fills++
	return vi
}

// Resident implements TLB; slot s*ways+w is way w of set s.
func (t *SetAssoc) Resident(f func(slot int, e Entry, lru uint64)) {
	for i, tag := range t.tags {
		if tag != invalidTag {
			f(i, t.entryAt(i), t.lrus[i])
		}
	}
}

// InvalidatePage implements TLB.
func (t *SetAssoc) InvalidatePage(vpn addr.VPN) {
	for i, o := range t.orders {
		if t.residents[i] == 0 {
			continue
		}
		base := uint64(vpn.AlignDown(o))
		s := t.index(vpn, o) * t.ways
		for w := s; w < s+t.ways; w++ {
			if t.tags[w] == base && t.ords[w] == o {
				t.tags[w] = invalidTag
				t.residents[i]--
				t.stats.Invalidates++
			}
		}
	}
}

// InvalidateRange implements TLB.
func (t *SetAssoc) InvalidateRange(start, end addr.VPN) {
	for w := range t.tags {
		if t.tags[w] == invalidTag {
			continue
		}
		eStart := addr.VPN(t.tags[w])
		eEnd := eStart + addr.VPN(t.ords[w].Pages())
		if eStart < end && start < eEnd {
			t.tags[w] = invalidTag
			t.residents[t.orderSlot(t.ords[w])]--
			t.stats.Invalidates++
		}
	}
}

// Flush implements TLB.
func (t *SetAssoc) Flush() {
	for w := range t.tags {
		if t.tags[w] != invalidTag {
			t.tags[w] = invalidTag
			t.stats.Invalidates++
		}
	}
	for i := range t.residents {
		t.residents[i] = 0
	}
}

// --- Fully associative any-size TLB (the TPS TLB) ---

// FullyAssoc is the paper's TPS TLB: fully associative, any page size, with
// a page-mask field per entry. The incoming VPN is masked with each entry's
// mask before tag compare (Fig. 7).
//
// Layout: masks[i] is ^(pages-1) for the entry's order and tags[i] is its
// (order-aligned) base VPN — the literal hardware comparator inputs of
// Fig. 7. An invalid slot holds tags[i] = invalidTag with masks[i] = 0,
// which no masked VPN can equal, so validity needs no extra branch. The
// ords/pfns/flags/lrus payload arrays are only touched on a hit.
type FullyAssoc struct {
	name string

	tags  []uint64
	masks []uint64
	ords  []addr.Order
	pfns  []addr.PFN
	flags []uint64
	lrus  []uint64

	tick uint64
	// mru is the index of the last entry that hit: Lookup probes it before
	// the linear scan, the software analogue of a way predictor.
	mru int
	// overlaps counts unordered pairs of valid entries whose VPN ranges
	// intersect. Promotion deliberately leaves stale smaller-order entries
	// resident next to the new larger entry (§III-C2: no shootdown on
	// promotion), and when such a pair exists, *which* covering entry a
	// lookup returns — the scan's first match — determines the Flags the
	// MMU sees and the LRU slot that gets refreshed. The MRU shortcut is
	// therefore only taken when overlaps is zero, where any covering entry
	// is provably unique and first-match == MRU-match, keeping every stat
	// and LRU decision bit-identical to the plain scan.
	overlaps int
	// gen counts structural changes: any event that could alter which way
	// a Lookup returns (victim install, invalidate, flush). Hits and
	// in-place refreshes leave it unchanged — LRU, MRU, and flag updates
	// never affect lookup outcomes. The mmu's translation cache stamps
	// each line with the gen at fill time; an equal gen at serve time
	// proves the scan's first match is still the remembered way, even with
	// overlapping entries resident.
	gen   uint64
	stats Stats
}

// NewFullyAssoc builds a fully associative any-page-size TLB.
func NewFullyAssoc(name string, entries int) *FullyAssoc {
	if entries <= 0 {
		panic("tlb: entries must be positive")
	}
	t := &FullyAssoc{
		name:  name,
		tags:  make([]uint64, entries),
		masks: make([]uint64, entries),
		ords:  make([]addr.Order, entries),
		pfns:  make([]addr.PFN, entries),
		flags: make([]uint64, entries),
		lrus:  make([]uint64, entries),
	}
	for i := range t.tags {
		t.tags[i] = invalidTag
	}
	return t
}

// Name implements TLB.
func (t *FullyAssoc) Name() string { return t.name }

// Capacity implements TLB.
func (t *FullyAssoc) Capacity() int { return len(t.tags) }

// Stats implements TLB.
func (t *FullyAssoc) Stats() Stats { return t.stats }

func (t *FullyAssoc) entryAt(i int) Entry {
	return Entry{VPN: addr.VPN(t.tags[i]), PFN: t.pfns[i], Order: t.ords[i], Flags: t.flags[i]}
}

// Gen returns the structural-change counter (see the field comment).
func (t *FullyAssoc) Gen() uint64 { return t.gen }

// WayReady reports whether a Lookup that previously hit way w at
// structural generation gen would still hit it and complete without
// flag-maintenance side effects: the structure is unchanged (same gen, so
// the scan's first match is unchanged) and way w's flags carry all `need`
// bits. The mmu's translation cache verifies a remembered way with this
// before crediting a hit.
func (t *FullyAssoc) WayReady(w int, need, gen uint64) bool {
	return t.gen == gen && t.flags[w]&need == need
}

// Lookup implements TLB. The masked compare is the hardware page-mask
// match: vpn & mask == tag, where mask = ^(pages-1) for the entry's size.
func (t *FullyAssoc) Lookup(vpn addr.VPN) (Entry, bool) {
	e, _, ok := t.LookupWay(vpn)
	return e, ok
}

// LookupWay is Lookup, additionally reporting the hit way (-1 on miss).
func (t *FullyAssoc) LookupWay(vpn addr.VPN) (Entry, int, bool) {
	t.stats.Accesses++
	uv := uint64(vpn)
	if t.overlaps == 0 {
		// MRU-first: no overlapping entries resident, so a covering entry
		// is unique and checking the last hit first cannot change which
		// entry (or which stats) a lookup produces.
		if i := t.mru; uv&t.masks[i] == t.tags[i] {
			t.tick++
			t.lrus[i] = t.tick
			t.stats.Hits++
			return t.entryAt(i), i, true
		}
	}
	tags, masks := t.tags, t.masks
	for i := range tags {
		if uv&masks[i] == tags[i] {
			t.tick++
			t.lrus[i] = t.tick
			t.mru = i
			t.stats.Hits++
			return t.entryAt(i), i, true
		}
	}
	t.stats.Misses++
	return Entry{}, -1, false
}

// CreditHit replays the exact state effects of a Lookup that hit way w:
// tick advance, LRU stamp, MRU update, access and hit counters. As with
// SetAssoc.CreditHit, the caller must have verified (WayReady) that a real
// Lookup would have hit exactly this way.
func (t *FullyAssoc) CreditHit(w int) {
	t.stats.Accesses++
	t.tick++
	t.lrus[w] = t.tick
	t.mru = w
	t.stats.Hits++
}

// CreditMiss replays the state effects of a Lookup that missed: access and
// miss counters (a missing probe touches neither LRU nor MRU state).
func (t *FullyAssoc) CreditMiss() {
	t.stats.Accesses++
	t.stats.Misses++
}

// Probe implements TLB.
func (t *FullyAssoc) Probe(vpn addr.VPN) (Entry, bool) {
	uv := uint64(vpn)
	for i := range t.tags {
		if uv&t.masks[i] == t.tags[i] {
			return t.entryAt(i), true
		}
	}
	return Entry{}, false
}

// drop invalidates entry i, keeping the overlap pair count and comparator
// arrays consistent.
func (t *FullyAssoc) drop(i int) {
	t.overlaps += t.overlapDelta(i, invalidTag, 0)
	t.gen++
	t.tags[i] = invalidTag
	t.masks[i] = 0
	t.stats.Invalidates++
}

// Insert implements TLB.
func (t *FullyAssoc) Insert(e Entry) { t.InsertWay(e) }

// InsertWay is Insert, additionally reporting the way the entry landed in.
func (t *FullyAssoc) InsertWay(e Entry) int {
	t.tick++
	// One scan finds the slot holding e, the first invalid slot and the
	// least recently used slot (strict <, first occurrence).
	vi, lru := -1, 0
	tags, lrus := t.tags, t.lrus
	for i, tag := range tags {
		if tag == uint64(e.VPN) && t.ords[i] == e.Order {
			// Same translation re-filled in place: the covered range is
			// unchanged, so the overlap count is too.
			t.pfns[i] = e.PFN
			t.flags[i] = e.Flags
			lrus[i] = t.tick
			return i
		}
		if tag == invalidTag && vi < 0 {
			vi = i
		}
		if lrus[i] < lrus[lru] {
			lru = i
		}
	}
	// Victim: the first invalid slot if any, else the least recently used.
	if vi < 0 {
		vi = lru
	}
	if t.tags[vi] != invalidTag {
		t.stats.Evictions++
	}
	t.overlaps += t.overlapDelta(vi, uint64(e.VPN), OrderMask(e.Order))
	t.gen++
	t.tags[vi] = uint64(e.VPN)
	t.masks[vi] = OrderMask(e.Order)
	t.ords[vi] = e.Order
	t.pfns[vi] = e.PFN
	t.flags[vi] = e.Flags
	t.lrus[vi] = t.tick
	t.stats.Fills++
	return vi
}

// overlapDelta is the change in the overlaps pair count when slot i's
// entry (or empty slot) gives way to the entry with the given tag and
// mask, in one pass. Entries are order-aligned, so two of them intersect
// exactly when one contains the other's base: a&mb == b or b&ma == a. An
// empty slot (invalidTag, mask 0) passes neither test against any entry,
// so the fill path passes the new entry and drop passes an empty slot.
func (t *FullyAssoc) overlapDelta(i int, tag, mask uint64) int {
	oldTag, oldMask := t.tags[i], t.masks[i]
	d := 0
	for j, b := range t.tags {
		if j == i {
			continue
		}
		mb := t.masks[j]
		if tag&mb == b || b&mask == tag {
			d++
		}
		if oldTag&mb == b || b&oldMask == oldTag {
			d--
		}
	}
	return d
}

// Resident implements TLB.
func (t *FullyAssoc) Resident(f func(slot int, e Entry, lru uint64)) {
	for i, tag := range t.tags {
		if tag != invalidTag {
			f(i, t.entryAt(i), t.lrus[i])
		}
	}
}

// InvalidatePage implements TLB.
func (t *FullyAssoc) InvalidatePage(vpn addr.VPN) {
	for i := range t.tags {
		if t.tags[i] != invalidTag && t.entryAt(i).Covers(vpn) {
			t.drop(i)
		}
	}
}

// InvalidateRange implements TLB.
func (t *FullyAssoc) InvalidateRange(start, end addr.VPN) {
	for i := range t.tags {
		if t.tags[i] == invalidTag {
			continue
		}
		eStart := addr.VPN(t.tags[i])
		eEnd := eStart + addr.VPN(t.ords[i].Pages())
		if eStart < end && start < eEnd {
			t.drop(i)
		}
	}
}

// Flush implements TLB.
func (t *FullyAssoc) Flush() {
	t.gen++
	for i := range t.tags {
		if t.tags[i] != invalidTag {
			t.tags[i] = invalidTag
			t.masks[i] = 0
			t.stats.Invalidates++
		}
	}
	t.overlaps = 0
}
