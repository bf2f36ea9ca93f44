// Package fragstate reproduces the fragmented-memory study of §IV-B
// (Figs. 15 and 16). The paper dumps /proc/buddyinfo and per-process
// pagemaps from a heavily loaded server to obtain a realistic fragmented
// initial state; here the same state is produced mechanistically, by
// driving the buddy allocator through an allocation/free churn that leaves
// used and free blocks interspersed — the cause of external fragmentation
// §III-B2 describes.
//
// The resulting free-memory contiguity profile has the paper's Fig. 15
// shape: full coverage at 4 KB, gradually declining through the
// intermediate tailored sizes, and only a small fraction usable at the
// conventional 2 MB+ sizes.
package fragstate

import (
	"math/rand"
	"sync"

	"tps/internal/addr"
	"tps/internal/buddy"
)

// Params controls the churn.
type Params struct {
	// TargetFreeFraction is the fraction of memory left free when the
	// churn finishes ("free memory utilization raised to allow just
	// enough for our benchmarks to run", §IV-B).
	TargetFreeFraction float64
	// MaxBlockOrder bounds the allocation sizes of the simulated load
	// (server daemons allocate mostly small blocks).
	MaxBlockOrder addr.Order
	// SmallBias in (0,1) weights allocations toward small orders: each
	// successive order is chosen with probability (1-SmallBias) of the
	// previous.
	SmallBias float64
	// Seed drives the churn deterministically.
	Seed int64
}

// DefaultParams models the paper's heavily loaded test server.
func DefaultParams() Params {
	return Params{
		TargetFreeFraction: 0.35,
		MaxBlockOrder:      addr.Order2M,
		SmallBias:          0.5,
		Seed:               1,
	}
}

// snapshots holds one fragmented allocator per key, built by the first
// Fragment that needs it and never changed afterwards; Fragment copies it.
var snapshots = struct {
	sync.Mutex
	m map[snapshotKey]*buddy.Allocator
}{m: map[snapshotKey]*buddy.Allocator{}}

// snapshotKey is everything the churn's result depends on.
type snapshotKey struct {
	p     Params
	pages uint64
}

// Fragment puts a fresh allocator (all memory free, no operation counted)
// into the fragmented steady state churn builds for p and its size, and
// panics if a is not fresh. The state depends on nothing else, so each
// process churns once per (normalized p, frame count) and every later
// call copies the result, operation counters included.
func Fragment(a *buddy.Allocator, p Params) {
	if a.FreePages() != a.TotalPages() || a.Stats() != (buddy.Stats{}) {
		panic("fragstate: Fragment needs a fresh allocator")
	}
	if !(p.TargetFreeFraction > 0 && p.TargetFreeFraction < 1) {
		p.TargetFreeFraction = 0.35
	}
	if !(p.SmallBias > 0 && p.SmallBias < 1) {
		p.SmallBias = 0.5
	}
	if p.MaxBlockOrder <= 0 || p.MaxBlockOrder > buddy.MaxOrder {
		p.MaxBlockOrder = addr.Order2M
	}
	k := snapshotKey{p, a.TotalPages()}
	snapshots.Lock()
	snap, ok := snapshots.m[k]
	if !ok {
		snap = buddy.New(k.pages)
		churn(snap, p)
		snapshots.m[k] = snap
	}
	snapshots.Unlock()
	a.CopyFrom(snap)
}

// churn drives a fresh allocator into a fragmented steady state: fill
// memory nearly full with a mix of block sizes, then free a random subset
// until the target free fraction is reached. The surviving allocations are
// the resident "server load"; the freed holes form the scattered
// contiguity TPS can still exploit. p must be normalized (see Fragment).
func churn(a *buddy.Allocator, p Params) {
	rng := rand.New(rand.NewSource(p.Seed))

	// Fill phase: allocate until nearly full.
	var held []addr.PFN
	lowWater := a.TotalPages() / 50 // stop at 2% free
	for a.FreePages() > lowWater {
		o := addr.Order(0)
		for o < p.MaxBlockOrder && rng.Float64() > p.SmallBias {
			o++
		}
		pfn, err := a.Alloc(o)
		if err != nil {
			break
		}
		held = append(held, pfn)
	}

	// Free phase: release random holdings until the target free fraction.
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	target := uint64(float64(a.TotalPages()) * p.TargetFreeFraction)
	for _, pfn := range held {
		if a.FreePages() >= target {
			break
		}
		// Frees of random neighbours occasionally merge, producing the
		// intermediate contiguity levels of Fig. 15.
		_ = a.Free(pfn)
	}
}

// PreFragment returns a hook suitable for sim.Options.PreFragment.
func PreFragment(p Params) func(*buddy.Allocator) {
	return func(a *buddy.Allocator) { Fragment(a, p) }
}
