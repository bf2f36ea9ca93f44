package sim

// counters.add walks every counter field by reflection. The test here
// holds it to the hand-written per-type helpers it replaced, which stay
// below as the reference.

import (
	"math/rand"
	"reflect"
	"testing"

	"tps/internal/colt"
	"tps/internal/mmu"
	"tps/internal/rmm"
	"tps/internal/vmm"
)

// subMMU subtracts warmup counters from a final snapshot.
func subMMU(a, b mmu.Stats) mmu.Stats {
	a.Accesses -= b.Accesses
	a.L1Hits -= b.L1Hits
	a.L1Misses -= b.L1Misses
	a.STLBHits -= b.STLBHits
	a.STLBMisses -= b.STLBMisses
	a.SidecarHits -= b.SidecarHits
	a.Walks -= b.Walks
	a.WalkRefs -= b.WalkRefs
	a.AliasExtras -= b.AliasExtras
	a.NestedRefs -= b.NestedRefs
	for i := range a.PWCHits {
		a.PWCHits[i] -= b.PWCHits[i]
	}
	a.ADWrites -= b.ADWrites
	return a
}

// addMMU sums two stat blocks (SMT aggregation).
func addMMU(a, b mmu.Stats) mmu.Stats {
	a.Accesses += b.Accesses
	a.L1Hits += b.L1Hits
	a.L1Misses += b.L1Misses
	a.STLBHits += b.STLBHits
	a.STLBMisses += b.STLBMisses
	a.SidecarHits += b.SidecarHits
	a.Walks += b.Walks
	a.WalkRefs += b.WalkRefs
	a.AliasExtras += b.AliasExtras
	a.NestedRefs += b.NestedRefs
	for i := range a.PWCHits {
		a.PWCHits[i] += b.PWCHits[i]
	}
	a.ADWrites += b.ADWrites
	return a
}

// addOS sums OS stat blocks (SMT aggregation).
func addOS(a, b vmm.Stats) vmm.Stats {
	a.Mmaps += b.Mmaps
	a.Munmaps += b.Munmaps
	a.Faults += b.Faults
	a.DemandPages += b.DemandPages
	a.Reservations += b.Reservations
	a.FallbackBlocks += b.FallbackBlocks
	a.Promotions += b.Promotions
	a.PageMerges += b.PageMerges
	a.Compactions += b.Compactions
	a.RelocatedPages += b.RelocatedPages
	a.ZeroedPages += b.ZeroedPages
	a.SysCycles += b.SysCycles
	a.Cow.Clones += b.Cow.Clones
	a.Cow.Faults += b.Cow.Faults
	a.Cow.CopiedPages += b.Cow.CopiedPages
	a.Cow.SplitPages += b.Cow.SplitPages
	return a
}

// addRMM sums Range TLB stat blocks.
func addRMM(a, b rmm.Stats) rmm.Stats {
	a.Lookups += b.Lookups
	a.Hits += b.Hits
	a.TableFills += b.TableFills
	a.TableRefs += b.TableRefs
	a.Misses += b.Misses
	return a
}

// addCoLT sums coalescing stat blocks.
func addCoLT(a, b colt.Stats) colt.Stats {
	a.Fills += b.Fills
	a.Coalesced += b.Coalesced
	a.PagesSpanned += b.PagesSpanned
	return a
}

// randomCounters fills every counter with a random value, so sums and
// differences wrap around as often as not.
func randomCounters(r *rand.Rand) counters {
	var c counters
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(r.Uint64())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		}
	}
	fill(reflect.ValueOf(&c).Elem())
	return c
}

// TestCountersAddMatchesHandWrittenHelpers adds and subtracts random
// counter snapshots through counters.add and through the per-type helpers.
// The helpers subtract only MMU counters; for every block, adding b back to
// a - b must give a, which with a checked sum pins the difference.
func TestCountersAddMatchesHandWrittenHelpers(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := randomCounters(r), randomCounters(r)
		want := counters{
			MMU:  addMMU(a.MMU, b.MMU),
			OS:   addOS(a.OS, b.OS),
			RMM:  addRMM(a.RMM, b.RMM),
			CoLT: addCoLT(a.CoLT, b.CoLT),
		}
		sum := a
		sum.add(b, false)
		if sum != want {
			t.Fatalf("add:\n%+v\n+ %+v\n= %+v, want %+v", a, b, sum, want)
		}

		diff := a
		diff.add(b, true)
		if diff.MMU != subMMU(a.MMU, b.MMU) {
			t.Fatalf("subtract MMU:\n%+v\n- %+v\n= %+v, want %+v", a.MMU, b.MMU, diff.MMU, subMMU(a.MMU, b.MMU))
		}
		back := diff
		back.add(b, false)
		if back != a {
			t.Fatalf("subtract then add:\n%+v\n- %+v\n+ same = %+v, want the first", a, b, back)
		}
	}
}
