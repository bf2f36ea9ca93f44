package mmu

import (
	"fmt"
	"math/rand"
	"testing"

	"tps/internal/addr"
)

// refPWC is the plain reference model of a paging-structure cache: one
// slice of slots with explicit valid bits, scanned in order, no MRU probe.
type refPWC struct {
	level        int
	slots        []refPWCSlot
	tick         uint64
	hits, misses uint64
}

type refPWCSlot struct {
	key   uint64
	valid bool
	lru   uint64
}

func (c *refPWC) key(v addr.Virt) uint64 {
	return uint64(v) >> (addr.BasePageShift + uint(c.level)*addr.LevelBits)
}

func (c *refPWC) Lookup(v addr.Virt) bool {
	k := c.key(v)
	for i := range c.slots {
		if c.slots[i].valid && c.slots[i].key == k {
			c.tick++
			c.slots[i].lru = c.tick
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

func (c *refPWC) Insert(v addr.Virt) {
	k := c.key(v)
	c.tick++
	victim := -1
	for i, s := range c.slots {
		if s.valid && s.key == k {
			c.slots[i].lru = c.tick
			return
		}
		if victim < 0 || (c.slots[victim].valid && (!s.valid || s.lru < c.slots[victim].lru)) {
			victim = i
		}
	}
	c.slots[victim] = refPWCSlot{key: k, valid: true, lru: c.tick}
}

func (c *refPWC) InvalidateRange(start, end addr.VPN) {
	span := addr.VPN(1) << (uint(c.level) * addr.LevelBits)
	for i, s := range c.slots {
		eStart := addr.VPN(s.key) << (uint(c.level) * addr.LevelBits)
		if s.valid && eStart < end && start < eStart+span {
			c.slots[i].valid = false
		}
	}
}

func (c *refPWC) Flush() {
	for i := range c.slots {
		c.slots[i].valid = false
	}
}

// TestPWCacheDifferentialAgainstReference drives each paging-structure
// cache level and the reference through seeded lookups, inserts, range
// invalidations and flushes, and requires identical hits, counters,
// contents and LRU stamps at every step.
func TestPWCacheDifferentialAgainstReference(t *testing.T) {
	for _, tc := range []struct{ level, entries int }{{1, 32}, {2, 16}, {3, 16}, {4, 16}, {1, 2}} {
		t.Run(fmt.Sprintf("level%d-%d", tc.level, tc.entries), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.level*100 + tc.entries)))
			c := NewPWCache(tc.level, tc.entries)
			ref := &refPWC{level: tc.level, slots: make([]refPWCSlot, tc.entries)}
			shift := addr.BasePageShift + uint(tc.level)*addr.LevelBits
			// Keys from a domain of about twice the capacity, so the
			// cache both hits and evicts.
			va := func() addr.Virt {
				return addr.Virt(rng.Int63n(int64(2*tc.entries+3))<<shift | rng.Int63n(1<<shift))
			}
			for step := 0; step < 20000; step++ {
				var desc string
				switch op := rng.Intn(100); {
				case op < 50:
					v := va()
					desc = fmt.Sprintf("step %d Lookup(%#x)", step, uint64(v))
					if got, want := c.Lookup(v), ref.Lookup(v); got != want {
						t.Fatalf("%s = %v, reference %v", desc, got, want)
					}
				case op < 95:
					v := va()
					desc = fmt.Sprintf("step %d Insert(%#x)", step, uint64(v))
					c.Insert(v)
					ref.Insert(v)
				case op < 99:
					start := addr.VPN(va().PageNumber())
					end := start + addr.VPN(rng.Int63n(4<<(shift-addr.BasePageShift))+1)
					desc = fmt.Sprintf("step %d InvalidateRange(%#x, %#x)", step, start, end)
					c.InvalidateRange(start, end)
					ref.InvalidateRange(start, end)
				default:
					desc = fmt.Sprintf("step %d Flush", step)
					c.Flush()
					ref.Flush()
				}
				if c.hits != ref.hits || c.misses != ref.misses || c.tick != ref.tick {
					t.Fatalf("%s: hits/misses/tick %d/%d/%d, reference %d/%d/%d",
						desc, c.hits, c.misses, c.tick, ref.hits, ref.misses, ref.tick)
				}
				for i, s := range ref.slots {
					valid := c.keys[i] != pwcInvalid
					if valid != s.valid || valid && (c.keys[i] != s.key || c.lrus[i] != s.lru) {
						t.Fatalf("%s: slot %d = key %#x lru %d, reference %+v", desc, i, c.keys[i], c.lrus[i], s)
					}
				}
			}
		})
	}
}
