package vmm

// The demand-fault path is what every cell pays while its footprint warms
// up: a fault's bookkeeping (reservation lookup, frame choice, promotion
// cascade, buddy allocation) and the retried translation must not
// allocate. The page table still allocates a node when a fault first
// enters a new table page: at most one allocation per 512 faults.

import (
	"testing"

	"tps/internal/addr"
	"tps/internal/buddy"
	"tps/internal/fragstate"
	"tps/internal/mmu"
)

// faultPolicies are the demand-paged policies with the MMU each runs on.
var faultPolicies = []struct {
	policy Policy
	org    mmu.Organization
}{
	{PolicyBase4K, mmu.OrgConventional},
	{PolicyTHP, mmu.OrgConventional},
	{PolicyTPS, mmu.OrgTPS},
}

// faultRegionPages is a 256 MB mapping.
const faultRegionPages = 1 << 16

// touchChunk is the number of pages one call of a firstTouches entry
// touches: the simulator hands TouchPages sweeps in chunks of this size.
const touchChunk = 512

// firstTouches are the three ways into the demand-fault path, each
// touching n consecutive pages from v: Access, as the simulator takes it
// for a single reference (a translation that fails in the walk, the
// fault, then the retry from the walk); the public Fault alone, with its
// coverage check; and TouchPages, the page loop a warm-up sweep runs as,
// without and with the per-page Results the cycle model prices.
var firstTouches = []struct {
	name  string
	touch func(k *Kernel, v addr.Virt, n uint64) error
}{
	{"access", func(k *Kernel, v addr.Virt, n uint64) error {
		for ; n > 0; n, v = n-1, v+addr.BasePageSize {
			if _, err := k.Access(v, true); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fault", func(k *Kernel, v addr.Virt, n uint64) error {
		for ; n > 0; n, v = n-1, v+addr.BasePageSize {
			if err := k.Fault(v, true); err != nil {
				return err
			}
		}
		return nil
	}},
	{"touch", func(k *Kernel, v addr.Virt, n uint64) error { return k.TouchPages(v, n, nil) }},
	{"touch+results", func(k *Kernel, v addr.Virt, n uint64) error { return k.TouchPages(v, n, touchResults[:n]) }},
}

// touchResults is the caller-owned buffer the touch+results case fills.
var touchResults = make([]mmu.Result, touchChunk)

func TestFaultAllocs(t *testing.T) {
	for _, tc := range faultPolicies {
		t.Run(tc.policy.String(), func(t *testing.T) {
			for _, ft := range firstTouches {
				t.Run(ft.name, func(t *testing.T) {
					k, _ := newSystem(t, DefaultConfig(tc.policy), 2*faultRegionPages, tc.org)
					base, err := k.Mmap(faultRegionPages*addr.BasePageSize, 0)
					if err != nil {
						t.Fatal(err)
					}
					var next uint64
					// AllocsPerRun makes one warm-up call before the measured
					// ones: together they fault in every page of the region
					// once, a chunk per call.
					got := testing.AllocsPerRun(faultRegionPages/touchChunk-1, func() {
						if err := ft.touch(k, base+addr.Virt(next*addr.BasePageSize), touchChunk); err != nil {
							t.Fatal(err)
						}
						next += touchChunk
					})
					if next != faultRegionPages || k.Stats().Faults != faultRegionPages {
						t.Fatalf("%d first touches, %d faults; want %d of each", next, k.Stats().Faults, faultRegionPages)
					}
					// The one allocation a chunk may make is the leaf table
					// node its 512 aligned pages enter.
					if got > 1 {
						t.Errorf("a chunk of %d first touches allocates %.2f times, want at most 1 (its page-table node)", touchChunk, got)
					}
				})
			}
		})
	}
}

// BenchmarkFault measures one first touch of a page (ns and allocations
// per fault) through Access, through Fault alone and through TouchPages,
// touching a 256 MB mapping in chunks of touchChunk pages and remapping it
// when exhausted, on fresh memory and on the standard fragmented start of
// Figs. 15/16.
func BenchmarkFault(b *testing.B) {
	for _, mem := range []struct {
		name string
		frag bool
	}{{"fresh", false}, {"fragstate", true}} {
		for _, tc := range faultPolicies {
			for _, ft := range firstTouches {
				b.Run(mem.name+"/"+tc.policy.String()+"/"+ft.name, func(b *testing.B) {
					bud := buddy.New(1 << 20)
					if mem.frag {
						fragstate.Fragment(bud, fragstate.DefaultParams())
					}
					k := New(DefaultConfig(tc.policy), bud)
					m := mmu.New(mmu.DefaultConfig(tc.org), k.Table(), nil, nil)
					k.AttachMMU(m)
					var base addr.Virt
					b.ReportAllocs()
					b.ResetTimer()
					for i := uint64(0); i < uint64(b.N); {
						page := i % faultRegionPages
						if page == 0 {
							b.StopTimer()
							if base != 0 {
								if err := k.Munmap(base); err != nil {
									b.Fatal(err)
								}
							}
							var err error
							if base, err = k.Mmap(faultRegionPages*addr.BasePageSize, 0); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
						}
						n := min(touchChunk, uint64(b.N)-i, faultRegionPages-page)
						if err := ft.touch(k, base+addr.Virt(page*addr.BasePageSize), n); err != nil {
							b.Fatal(err)
						}
						i += n
					}
				})
			}
		}
	}
}

// TestTouchPagesDifferentialAgainstAccess holds TouchPages' per-page Results to
// those of one Access per page, on two identical systems: a first sweep
// over pages that scattered reads have partly faulted in, then a second
// over the same pages, all touched by then. Promotions at threshold 0.5
// map pages no reference has touched. Every Result, and the kernel and
// MMU counters after each sweep, must be equal.
func TestTouchPagesDifferentialAgainstAccess(t *testing.T) {
	thresholdHalf := DefaultConfig(PolicyTPS)
	thresholdHalf.PromotionThreshold = 0.5
	for _, tc := range []struct {
		name string
		cfg  Config
		org  mmu.Organization
	}{
		{"base4k", DefaultConfig(PolicyBase4K), mmu.OrgConventional},
		{"thp", DefaultConfig(PolicyTHP), mmu.OrgConventional},
		{"tps", DefaultConfig(PolicyTPS), mmu.OrgTPS},
		{"tps/threshold=0.5", thresholdHalf, mmu.OrgTPS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pages = 3*touchChunk + 77
			touch, touchMMU := newSystem(t, tc.cfg, 1<<14, tc.org)
			access, accessMMU := newSystem(t, tc.cfg, 1<<14, tc.org)
			var base addr.Virt
			for _, k := range []*Kernel{touch, access} {
				b, err := k.Mmap(pages*addr.BasePageSize+100, 0)
				if err != nil {
					t.Fatal(err)
				}
				base = b
				for i := uint64(0); i < pages; i += 1 + i%37 {
					if _, err := k.Access(base+addr.Virt(i*addr.BasePageSize+8), false); err != nil {
						t.Fatal(err)
					}
				}
			}
			out := make([]mmu.Result, touchChunk)
			for sweep := 0; sweep < 2; sweep++ {
				for first := uint64(0); first < pages; first += touchChunk {
					n := min(touchChunk, pages-first)
					v := base + addr.Virt(first*addr.BasePageSize)
					if err := touch.TouchPages(v, n, out[:n]); err != nil {
						t.Fatal(err)
					}
					for i := uint64(0); i < n; i++ {
						want, err := access.Access(v+addr.Virt(i*addr.BasePageSize), true)
						if err != nil {
							t.Fatal(err)
						}
						if out[i] != want {
							t.Fatalf("sweep %d, page %d: TouchPages reported %+v, Access %+v", sweep, first+i, out[i], want)
						}
					}
				}
				if touch.Stats() != access.Stats() || touchMMU.Stats() != accessMMU.Stats() {
					t.Errorf("sweep %d: counters diverged\ntouch:  %+v %+v\naccess: %+v %+v",
						sweep, touch.Stats(), touchMMU.Stats(), access.Stats(), accessMMU.Stats())
				}
			}
		})
	}
}
