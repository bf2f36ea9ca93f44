package vmm

// The demand-fault path is what every cell pays while its footprint warms
// up: a fault's bookkeeping (reservation lookup, frame choice, promotion
// cascade, buddy allocation) and the retried translation must not
// allocate. The page table still allocates a node when a fault first
// enters a new table page, which averages out to well under one
// allocation per fault.

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

// firstTouches are the two ways into the demand-fault path: Access, as the
// simulator takes it (a translation that fails in the walk, the fault,
// then the retry from the walk), and the public Fault alone, with its
// coverage check.
var firstTouches = []struct {
	name  string
	touch func(k *Kernel, v addr.Virt) error
}{
	{"access", func(k *Kernel, v addr.Virt) error { _, err := k.Access(v, true); return err }},
	{"fault", func(k *Kernel, v addr.Virt) error { return k.Fault(v, true) }},
}

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
					// ones: together they fault in every page of the region once.
					got := testing.AllocsPerRun(faultRegionPages-1, func() {
						if err := ft.touch(k, base+addr.Virt(next*addr.BasePageSize)); err != nil {
							t.Fatal(err)
						}
						next++
					})
					if next != faultRegionPages || k.Stats().Faults != faultRegionPages {
						t.Fatalf("%d first touches, %d faults; want %d of each", next, k.Stats().Faults, faultRegionPages)
					}
					if got != 0 {
						t.Errorf("a first touch allocates %.2f times, want 0", got)
					}
				})
			}
		})
	}
}

// BenchmarkFault measures one first touch of a page (ns and allocations
// per fault) through Access and through Fault alone, touching a 256 MB
// mapping page by page and remapping it when exhausted, on fresh memory
// and on the standard fragmented start of Figs. 15/16.
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
					for i := 0; i < b.N; i++ {
						page := uint64(i) % faultRegionPages
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
						if err := ft.touch(k, base+addr.Virt(page*addr.BasePageSize)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
