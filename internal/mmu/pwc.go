package mmu

import "tps/internal/addr"

// PWCache is one paging-structure (MMU) cache: a small fully associative
// cache of non-leaf page-table entries for a single tree level, keyed by
// the virtual-address prefix above that level's index (§II-A "MMU Cache").
// A hit lets the walker skip reading every level at or above the cached
// one, resuming directly below it.
//
// keys[i] is slot i's key, or pwcInvalid when the slot is empty; lrus[i]
// is its LRU stamp. A key is resident at most once (Insert refreshes a
// resident key in place), so a probe may start anywhere: it checks the
// slot of the last match first, which consecutive walks of one region
// hit, then scans.
type PWCache struct {
	level  int
	keys   []uint64
	lrus   []uint64
	mru    int
	tick   uint64
	hits   uint64
	misses uint64
}

// pwcInvalid marks an empty slot. Keys drop at least the 21 low bits of
// a 64-bit address, so no key is all ones.
const pwcInvalid = ^uint64(0)

// NewPWCache creates a paging-structure cache for the given non-leaf level
// (1 = PDE, 2 = PDPTE, 3 = PML4E, 4 = PML5E) with the given entry count.
func NewPWCache(level, entries int) *PWCache {
	c := &PWCache{level: level, keys: make([]uint64, entries), lrus: make([]uint64, entries)}
	c.Flush()
	return c
}

// key extracts the VA prefix identifying one entry at this cache's level:
// all translated bits above the level's table index... i.e. the VPN bits
// from the level's shift upward.
func (c *PWCache) key(v addr.Virt) uint64 {
	return uint64(v) >> (addr.BasePageShift + uint(c.level)*addr.LevelBits)
}

// find returns the slot holding key k, or -1.
func (c *PWCache) find(k uint64) int {
	if c.keys[c.mru] == k {
		return c.mru
	}
	for i, key := range c.keys {
		if key == k {
			c.mru = i
			return i
		}
	}
	return -1
}

// Lookup reports whether the non-leaf entry covering v at this level is
// cached.
func (c *PWCache) Lookup(v addr.Virt) bool {
	if i := c.find(c.key(v)); i >= 0 {
		c.tick++
		c.lrus[i] = c.tick
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Insert caches the non-leaf entry covering v at this level. The victim
// is the first empty slot, else the least recently used (first of equals).
func (c *PWCache) Insert(v addr.Virt) {
	k := c.key(v)
	c.tick++
	if i := c.find(k); i >= 0 {
		c.lrus[i] = c.tick
		return
	}
	victim := -1
	for i, key := range c.keys {
		if key == pwcInvalid {
			victim = i
			break
		}
		if victim < 0 || c.lrus[i] < c.lrus[victim] {
			victim = i
		}
	}
	c.keys[victim] = k
	c.lrus[victim] = c.tick
}

// InvalidateRange drops cached entries whose subtree overlaps [start, end)
// (in base VPNs). Used on unmap/shootdown.
func (c *PWCache) InvalidateRange(start, end addr.VPN) {
	span := addr.VPN(1) << (uint(c.level) * addr.LevelBits)
	for i, key := range c.keys {
		if key == pwcInvalid {
			continue
		}
		eStart := addr.VPN(key) << (uint(c.level) * addr.LevelBits)
		eEnd := eStart + span
		if eStart < end && start < eEnd {
			c.keys[i] = pwcInvalid
		}
	}
}

// Flush empties the cache.
func (c *PWCache) Flush() {
	for i := range c.keys {
		c.keys[i] = pwcInvalid
	}
}

// HitRate returns the cache's hit rate.
func (c *PWCache) HitRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}
