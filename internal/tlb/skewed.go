package tlb

import (
	"fmt"

	"tps/internal/addr"
)

// way is one packed TLB slot. The SetAssoc and FullyAssoc structures use
// struct-of-arrays layouts instead; the skewed organization keeps the
// packed form because each of its ways is an independently indexed bank,
// so there is no contiguous tag array to scan anyway.
type way struct {
	entry Entry
	valid bool
	lru   uint64
}

// Skewed is a skewed-associative any-page-size TLB, the alternative
// organization §III-A2 mentions (citing Seznec [53] and
// prediction-based designs [44]). Each way uses a different hash of the
// masked virtual page number, so entries that conflict in one way rarely
// conflict in another — approaching fully associative behaviour with
// set-associative lookup cost. Like the fully associative TPS TLB, every
// entry carries its page order and the incoming VPN is masked before the
// tag compare.
//
// Lookup cost: one probe per way per page order resident in the TLB (the
// same multiple-size indexing compromise the set-associative STLB model
// makes).
type Skewed struct {
	name  string
	sets  int
	ways  []([]way) // ways[w][set]
	tick  uint64
	stats Stats
	// residents[o] counts entries of each order for probe skipping.
	residents [addr.MaxOrder + 1]int
}

// NewSkewed builds a skewed-associative any-size TLB with the given
// number of ways and sets per way (capacity = ways*sets). sets must be a
// power of two.
func NewSkewed(name string, ways, sets int) *Skewed {
	if ways <= 0 || sets <= 0 || !addr.IsPow2(uint64(sets)) {
		panic(fmt.Sprintf("tlb: skewed geometry %dx%d invalid", ways, sets))
	}
	s := &Skewed{name: name, sets: sets, ways: make([][]way, ways)}
	for w := range s.ways {
		s.ways[w] = make([]way, sets)
	}
	return s
}

// Name implements TLB.
func (s *Skewed) Name() string { return s.name }

// Capacity implements TLB.
func (s *Skewed) Capacity() int { return len(s.ways) * s.sets }

// Stats implements TLB.
func (s *Skewed) Stats() Stats { return s.stats }

// skewHash computes way w's index for a page-granular VPN: an xorshift
// mix seeded per way (hardware uses cheap inter-bank XOR functions; any
// good mix reproduces the conflict-spreading property).
func (s *Skewed) skewHash(pageVPN uint64, w int) int {
	x := pageVPN + uint64(w)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return int(x) & (s.sets - 1)
}

func (s *Skewed) find(vpn addr.VPN) *way {
	for o := addr.Order(0); o <= addr.MaxOrder; o++ {
		if s.residents[o] == 0 {
			continue
		}
		base := vpn.AlignDown(o)
		for w := range s.ways {
			cand := &s.ways[w][s.skewHash(uint64(base)>>uint(o), w)]
			if cand.valid && cand.entry.Order == o && cand.entry.VPN == base {
				return cand
			}
		}
	}
	return nil
}

// Lookup implements TLB.
func (s *Skewed) Lookup(vpn addr.VPN) (Entry, bool) {
	s.stats.Accesses++
	if w := s.find(vpn); w != nil {
		s.tick++
		w.lru = s.tick
		s.stats.Hits++
		return w.entry, true
	}
	s.stats.Misses++
	return Entry{}, false
}

// CreditMiss replays the state effects of a Lookup that missed: access and
// miss counters.
func (s *Skewed) CreditMiss() {
	s.stats.Accesses++
	s.stats.Misses++
}

// Probe implements TLB.
func (s *Skewed) Probe(vpn addr.VPN) (Entry, bool) {
	if w := s.find(vpn); w != nil {
		return w.entry, true
	}
	return Entry{}, false
}

// Insert implements TLB: the entry lands in its least-recently-used
// candidate slot across all ways (invalid slots first).
func (s *Skewed) Insert(e Entry) {
	s.tick++
	if w := s.find(e.VPN); w != nil && w.entry.Order == e.Order && w.entry.VPN == e.VPN {
		w.entry = e
		w.lru = s.tick
		return
	}
	pageVPN := uint64(e.VPN) >> uint(e.Order)
	var victim *way
	for w := range s.ways {
		cand := &s.ways[w][s.skewHash(pageVPN, w)]
		if victim == nil || !cand.valid || (victim.valid && cand.lru < victim.lru) {
			if victim == nil || victim.valid {
				victim = cand
			}
		}
	}
	if victim.valid {
		s.residents[victim.entry.Order]--
		s.stats.Evictions++
	}
	victim.entry = e
	victim.valid = true
	victim.lru = s.tick
	s.residents[e.Order]++
	s.stats.Fills++
}

// Resident implements TLB; slot w*sets+i is index i of way w.
func (s *Skewed) Resident(f func(slot int, e Entry, lru uint64)) {
	for w := range s.ways {
		for i, c := range s.ways[w] {
			if c.valid {
				f(w*s.sets+i, c.entry, c.lru)
			}
		}
	}
}

// InvalidatePage implements TLB.
func (s *Skewed) InvalidatePage(vpn addr.VPN) {
	for o := addr.Order(0); o <= addr.MaxOrder; o++ {
		if s.residents[o] == 0 {
			continue
		}
		base := vpn.AlignDown(o)
		for w := range s.ways {
			cand := &s.ways[w][s.skewHash(uint64(base)>>uint(o), w)]
			if cand.valid && cand.entry.Order == o && cand.entry.VPN == base {
				cand.valid = false
				s.residents[o]--
				s.stats.Invalidates++
			}
		}
	}
}

// InvalidateRange implements TLB.
func (s *Skewed) InvalidateRange(start, end addr.VPN) {
	for w := range s.ways {
		for i := range s.ways[w] {
			c := &s.ways[w][i]
			if !c.valid {
				continue
			}
			eStart := c.entry.VPN
			eEnd := eStart + addr.VPN(c.entry.Order.Pages())
			if eStart < end && start < eEnd {
				c.valid = false
				s.residents[c.entry.Order]--
				s.stats.Invalidates++
			}
		}
	}
}

// Flush implements TLB.
func (s *Skewed) Flush() {
	for w := range s.ways {
		for i := range s.ways[w] {
			if s.ways[w][i].valid {
				s.ways[w][i].valid = false
				s.stats.Invalidates++
			}
		}
	}
	for o := range s.residents {
		s.residents[o] = 0
	}
}
