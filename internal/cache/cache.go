// Package cache models the data-cache hierarchy of Table I: a 32 KB 8-way
// L1D and a 2 MB 16-way last-level cache with 64-byte lines, plus DRAM.
// The cycle model uses it to price each memory reference; page-walk
// references are priced separately by the MMU/CPU layers.
package cache

import (
	"math/bits"

	"tps/internal/addr"
)

// LineShift is log2 of the 64-byte cache line.
const LineShift = 6

// Cache is one set-associative, true-LRU, physically indexed cache level.
//
// The tag store is one flat array: set s is the row
// tags[s*ways : (s+1)*ways], kept in recency order with the most recently
// used way first and the LRU way last. A word holds tag+1, so 0 is an
// empty way and never matches a lookup. A hit rotates the hit word to the
// front; a miss shifts the row down by one, dropping the last word, and
// writes the new tag at the front.
//
// A Cache never invalidates a line, so the empty words of a row are always
// a suffix. That is what makes the miss path true LRU: while a set has an
// empty way, the word the shift drops is empty, never a valid line.
type Cache struct {
	ways     int
	setMask  uint64
	setShift uint
	tags     []uint64
	accesses uint64
	misses   uint64
}

// New builds a cache of the given total size and associativity with
// 64-byte lines. size must give a power-of-two set count.
func New(sizeBytes, ways int) *Cache {
	if ways <= 0 {
		panic("cache: associativity must be positive")
	}
	sets := sizeBytes / (ways << LineShift)
	if sets <= 0 || !addr.IsPow2(uint64(sets)) {
		panic("cache: set count must be a positive power of two")
	}
	return &Cache{
		ways:     ways,
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros64(uint64(sets))),
		tags:     make([]uint64, sets*ways),
	}
}

// Access looks up (and on miss, fills) the line containing p. It reports
// whether the access hit.
func (c *Cache) Access(p addr.Phys) bool {
	c.accesses++
	lineAddr := uint64(p) >> LineShift
	base := int(lineAddr&c.setMask) * c.ways
	row := c.tags[base : base+c.ways : base+c.ways]
	want := lineAddr>>c.setShift + 1
	for i, w := range row {
		if w == want {
			// Hits sit near the front, and so short a move is cheaper
			// as a loop than as a memmove call.
			for ; i > 0; i-- {
				row[i] = row[i-1]
			}
			row[0] = want
			return true
		}
	}
	c.misses++
	copy(row[1:], row)
	row[0] = want
	return false
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Latencies prices accesses by the level that hits (Table I).
type Latencies struct {
	L1   uint64 // L1D hit
	LLC  uint64 // LLC hit (L1 miss)
	DRAM uint64 // memory access (LLC miss)
}

// DefaultLatencies returns the Table I timing at 3.2 GHz.
func DefaultLatencies() Latencies {
	return Latencies{L1: 4, LLC: 14, DRAM: 220}
}

// Hierarchy is the two-level data hierarchy plus DRAM.
type Hierarchy struct {
	L1D *Cache
	LLC *Cache
	Lat Latencies
}

// NewHierarchy builds the Table I hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		L1D: New(32<<10, 8),
		LLC: New(2<<20, 16),
		Lat: DefaultLatencies(),
	}
}

// Latency performs an access at physical address p and returns its load-to
// -use latency in cycles.
func (h *Hierarchy) Latency(p addr.Phys) uint64 {
	if h.L1D.Access(p) {
		return h.Lat.L1
	}
	if h.LLC.Access(p) {
		return h.Lat.LLC
	}
	return h.Lat.DRAM
}

// WalkRefLatency prices one page-walk memory reference: walker accesses
// hit the data hierarchy too ("currently available processors cache PTEs
// in the data cache hierarchy", §V). The walk ref is priced through the
// LLC only (PTE lines rarely live in L1D).
func (h *Hierarchy) WalkRefLatency(p addr.Phys) uint64 {
	if h.LLC.Access(p) {
		return h.Lat.LLC
	}
	return h.Lat.DRAM
}
