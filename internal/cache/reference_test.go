package cache

// Differential test of the packed, recency-ordered tag rows against the
// plain true-LRU cache they replace: one []line slice per set, an LRU
// stamp per way, the victim chosen by scanning for an empty way or the
// oldest stamp. Its Access is kept exactly as it was, so any
// divergence in hit/miss order or counts is a fault of the packed layout.

import (
	"math/rand"
	"testing"

	"tps/internal/addr"
)

// refCache is the reference true-LRU cache.
type refCache struct {
	sets     int
	ways     int
	tick     uint64
	data     [][]line
	accesses uint64
	misses   uint64
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64
}

func newRefCache(sizeBytes, ways int) *refCache {
	sets := sizeBytes / (ways << LineShift)
	c := &refCache{sets: sets, ways: ways, data: make([][]line, sets)}
	for i := range c.data {
		c.data[i] = make([]line, ways)
	}
	return c
}

func (c *refCache) Access(p addr.Phys) bool {
	c.accesses++
	lineAddr := uint64(p) >> LineShift
	set := c.data[lineAddr&uint64(c.sets-1)]
	tag := lineAddr / uint64(c.sets)
	c.tick++
	var victim *line
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			w.lru = c.tick
			return true
		}
		if victim == nil || !w.valid || (victim.valid && w.lru < victim.lru) {
			if victim == nil || victim.valid {
				victim = w
			}
		}
	}
	c.misses++
	victim.tag = tag
	victim.valid = true
	victim.lru = c.tick
	return false
}

func (c *refCache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// walkRefAddr mirrors the cycle model's synthetic page-walk line address
// for the level-th walk reference of v: a hash of v's table-node prefix,
// confined to a 64 MB region at 1<<45.
func walkRefAddr(v uint64, level int) addr.Phys {
	prefix := v >> (addr.BasePageShift + uint(level)*addr.LevelBits)
	h := prefix*0x9e3779b97f4a7c15 + uint64(level)*0xbf58476d1ce4e5b9
	const walkRegion = uint64(1) << 45
	return addr.Phys(walkRegion | (h & (64<<20 - 1) &^ 7))
}

// diffStream names one seeded address stream for a geometry.
type diffStream struct {
	name string
	next func(r *rand.Rand) addr.Phys
}

func diffStreams(sizeBytes, ways int) []diffStream {
	sets := uint64(sizeBytes / (ways << LineShift))
	lines := int(sets) * ways
	// A pool of 2*ways+1 distinct tags per set, over a handful of sets:
	// every set sees more lines than it holds, so hits at every recency
	// position, evictions and re-fills all happen.
	conflictTags := uint64(2*ways + 1)
	conflictSets := sets
	if conflictSets > 4 {
		conflictSets = 4
	}
	// Random 46-bit addresses, half of them fresh and half re-drawn from
	// the last 2×capacity addresses, so lines are reused at every recency
	// distance rather than only missing.
	recent := make([]addr.Phys, 0, 2*lines)
	return []diffStream{
		{"set-conflict", func(r *rand.Rand) addr.Phys {
			set := uint64(r.Int63n(int64(conflictSets)))
			tag := uint64(r.Int63n(int64(conflictTags)))
			off := uint64(r.Int63n(1 << LineShift))
			return addr.Phys((tag*sets+set)<<LineShift | off)
		}},
		{"walk-region", func(r *rand.Rand) addr.Phys {
			// Walks of pages in a 4 GB region above 2^40, the mmap base.
			v := uint64(1)<<40 + uint64(r.Int63n(1<<20))<<addr.BasePageShift
			return walkRefAddr(v, r.Intn(addr.Levels4))
		}},
		{"random-46bit", func(r *rand.Rand) addr.Phys {
			if len(recent) > 0 && r.Intn(2) == 0 {
				return recent[r.Intn(len(recent))]
			}
			p := addr.Phys(uint64(r.Int63()) & (1<<46 - 1))
			if len(recent) < cap(recent) {
				recent = append(recent, p)
			} else {
				recent[r.Intn(len(recent))] = p
			}
			return p
		}},
	}
}

func TestCacheDifferentialAgainstReference(t *testing.T) {
	geometries := []struct {
		name            string
		sizeBytes, ways int
	}{
		{"L1D-32K-8way", 32 << 10, 8},
		{"LLC-2M-16way", 2 << 20, 16},
		{"direct-mapped-4K", 4 << 10, 1},
		{"2set-2way", 256, 2},
	}
	const steps = 200000
	for _, g := range geometries {
		for i, s := range diffStreams(g.sizeBytes, g.ways) {
			t.Run(g.name+"/"+s.name, func(t *testing.T) {
				got, want := New(g.sizeBytes, g.ways), newRefCache(g.sizeBytes, g.ways)
				r := rand.New(rand.NewSource(int64(42 + i)))
				hits := 0
				for step := 0; step < steps; step++ {
					p := s.next(r)
					h, wh := got.Access(p), want.Access(p)
					if h != wh {
						t.Fatalf("step %d addr %#x: hit=%v, reference %v", step, uint64(p), h, wh)
					}
					if h {
						hits++
					}
				}
				if got.accesses != want.accesses || got.misses != want.misses {
					t.Errorf("accesses/misses = %d/%d, reference %d/%d",
						got.accesses, got.misses, want.accesses, want.misses)
				}
				if got.MissRate() != want.MissRate() {
					t.Errorf("MissRate = %v, reference %v", got.MissRate(), want.MissRate())
				}
				t.Logf("%d steps, %d hits", steps, hits)
			})
		}
	}
}
