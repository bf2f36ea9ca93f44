package sim

// S4 of PR 7: the translation cache's reconciliation invariant under
// adversarial mutation. A randomized workload interleaves mmap, reference
// bursts (whose faults drive reservation, promotion, and CoW machinery),
// munmap, and — in one variant — the compaction daemon (relocation, page
// merging, full TLB flushes). Running it with the cache enabled and
// disabled must produce bit-identical Results: a single stale serve would
// skew a hit counter or an LRU and diverge the statistics.

import (
	"math/rand"
	"reflect"
	"testing"

	"tps/internal/addr"
	"tps/internal/trace"
	"tps/internal/workload"
)

// churnWorkload: regions come and go while references hammer the
// survivors. Region sizes straddle the promotion thresholds (sub-2M,
// 2M-aligned, multi-2M) so TPS/THP promote and demote continuously, and
// munmapped regions are immediately replaced so the address space and the
// TLBs keep recycling translations.
func churnWorkload(regions int, refsPerRound uint64) workload.Workload {
	return workload.Workload{
		Name: "churn", TLBIntensive: true,
		FootprintBytes: uint64(regions) * (4 << 20),
		Run: func(s trace.Sink, refs uint64, seed int64) error {
			r := rand.New(rand.NewSource(seed))
			sizes := []uint64{256 << 10, 2 << 20, 4 << 20, 6 << 20}
			type region struct {
				base addr.Virt
				size uint64
			}
			var live []region
			newRegion := func() error {
				size := sizes[r.Intn(len(sizes))]
				base, err := s.Mmap(size)
				if err != nil {
					return err
				}
				live = append(live, region{base, size})
				// Fault the region in with writes so promotion candidates
				// reach their utilization threshold.
				for off := uint64(0); off < size; off += addr.BasePageSize {
					if err := s.Ref(trace.Ref{Addr: base + addr.Virt(off), Write: true, Gap: 8}); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < regions; i++ {
				if err := newRegion(); err != nil {
					return err
				}
			}
			trace.AnnouncePhase(s, trace.MainPhase)
			var n uint64
			for n < refs {
				switch r.Intn(10) {
				case 0: // replace a random region: munmap + fresh mmap
					i := r.Intn(len(live))
					if err := s.Munmap(live[i].base); err != nil {
						return err
					}
					live = append(live[:i], live[i+1:]...)
					if err := newRegion(); err != nil {
						return err
					}
				default: // a reference burst over a random live region
					reg := live[r.Intn(len(live))]
					for k := uint64(0); k < refsPerRound; k++ {
						a := reg.base + addr.Virt(uint64(r.Int63())%reg.size&^7)
						if err := s.Ref(trace.Ref{Addr: a, Write: k%4 == 0, Gap: 3}); err != nil {
							return err
						}
						n++
					}
				}
			}
			return nil
		},
	}
}

// TestTransCacheChurnBitIdentical: for every registered scheme, the
// randomized churn run with the translation cache enabled is bit-identical
// to the cache-disabled run — every counter, census bucket, and derived
// metric.
func TestTransCacheChurnBitIdentical(t *testing.T) {
	w := churnWorkload(6, 512)
	for _, setup := range Setups() {
		for _, seed := range []int64{1, 42} {
			opts := Options{Setup: setup, Refs: 80000, Seed: seed, MemoryPages: 1 << 19}
			cached, err := Run(w, opts)
			if err != nil {
				t.Fatalf("%v seed %d cached: %v", setup, seed, err)
			}
			opts.TransCache = -1
			plain, err := Run(w, opts)
			if err != nil {
				t.Fatalf("%v seed %d uncached: %v", setup, seed, err)
			}
			if !reflect.DeepEqual(cached, plain) {
				t.Errorf("%v seed %d: cache-enabled run diverged from cache-disabled:\n%+v\nvs\n%+v",
					setup, seed, cached, plain)
			}
		}
	}
}

// TestTransCacheChurnCompaction adds the compaction daemon — relocations,
// reservation re-homing, merge-aware growth, and the full TLB flushes they
// trigger — to the churn, for the TPS setups whose kernels exercise it.
func TestTransCacheChurnCompaction(t *testing.T) {
	w := churnWorkload(6, 512)
	for _, setup := range []Setup{SetupTHP, SetupTPS, SetupSvnapot} {
		opts := Options{
			Setup: setup, Refs: 60000, Seed: 9, MemoryPages: 1 << 19,
			CompactEvery: 7000,
		}
		cached, err := Run(w, opts)
		if err != nil {
			t.Fatalf("%v cached: %v", setup, err)
		}
		opts.TransCache = -1
		plain, err := Run(w, opts)
		if err != nil {
			t.Fatalf("%v uncached: %v", setup, err)
		}
		if !reflect.DeepEqual(cached, plain) {
			t.Errorf("%v: compaction churn diverged with cache enabled:\n%+v\nvs\n%+v", setup, cached, plain)
		}
	}
}

// TestTransCacheSmallSizes shrinks the cache to force index conflicts
// (many VPNs per line, constant replacement) — the refill paths get no
// hiding room at 64 lines.
func TestTransCacheSmallSizes(t *testing.T) {
	w := churnWorkload(4, 256)
	for _, entries := range []int{64, 1024} {
		opts := Options{Setup: SetupTPS, Refs: 40000, Seed: 5, MemoryPages: 1 << 19, TransCache: entries}
		small, err := Run(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.TransCache = -1
		plain, err := Run(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(small, plain) {
			t.Errorf("%d-entry cache diverged from disabled:\n%+v\nvs\n%+v", entries, small, plain)
		}
	}
}
