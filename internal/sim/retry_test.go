package sim

// The demand-fault retry (vmm.Kernel.Resolve -> mmu.RetryAfterFault)
// skips the L1 and STLB probes of the faulting reference's second
// attempt. Its premise is that no TLB or translation-cache line ever
// covers an unmapped page, so a translation that fails with
// pagetable.ErrNotMapped failed in the walk, after every probe missed.
// The tests here check the premise under every scheme, and check the
// retry against the full re-translation it replaces.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tps/internal/addr"
	"tps/internal/fragstate"
	"tps/internal/mmu"
	"tps/internal/pagetable"
	"tps/internal/scheme"
	"tps/internal/tlb"
	"tps/internal/trace"
	"tps/internal/vmm"
)

// region is one live mapping the tests drive references into.
type region struct {
	base  addr.Virt
	pages uint64
}

// randomPages draws a mapping size: small, a few MB, or around the 2 MB
// and tailored-page boundaries.
func randomPages(rng *rand.Rand) uint64 {
	switch rng.Intn(3) {
	case 0:
		return 1 + uint64(rng.Intn(24))
	case 1:
		return 300 + uint64(rng.Intn(600))
	default:
		return 1000 + uint64(rng.Intn(2200))
	}
}

// checkCachedAreMapped fails if any L1, STLB or translation-cache line of
// p's address space covers a page whose walk reports it unmapped.
func checkCachedAreMapped(t *testing.T, desc string, p *proc) {
	t.Helper()
	type span struct{ start, end addr.VPN }
	var spans []span
	p.kernel.Table().MappedPages(func(vpn addr.VPN, _ addr.PFN, o addr.Order, _ uint64) {
		spans = append(spans, span{vpn, vpn + addr.VPN(o.Pages())})
	})
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	// uncovered returns the first page of [start, end) no mapped page
	// covers.
	uncovered := func(start, end addr.VPN) (addr.VPN, bool) {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].end > start })
		for ; start < end; i++ {
			if i == len(spans) || spans[i].start > start {
				return start, true
			}
			start = spans[i].end
		}
		return 0, false
	}
	p.mmu.EachCached(func(where string, e tlb.Entry) {
		vpn, ok := uncovered(e.VPN, e.VPN+addr.VPN(e.Order.Pages()))
		if !ok {
			return
		}
		_, err := p.kernel.Table().Walk(vpn.Addr())
		if !errors.Is(err, pagetable.ErrNotMapped) {
			t.Fatalf("%s: page %#x is in no mapped page, yet its walk returns %v", desc, vpn, err)
		}
		t.Fatalf("%s: ASID %d %s holds %+v over page %#x, which is not mapped",
			desc, p.mmu.ASID(), where, e, vpn)
	})
}

// checkUntouchedUnmapped fails if a page of p's address space that its
// reservation has never touched does not walk to pagetable.ErrNotMapped:
// Kernel.TouchPages faults such a page without probing any TLB.
func checkUntouchedUnmapped(t *testing.T, desc string, p *proc) {
	t.Helper()
	p.kernel.EachUntouched(func(vpn addr.VPN) {
		if _, err := p.kernel.Table().Walk(vpn.Addr()); !errors.Is(err, pagetable.ErrNotMapped) {
			t.Fatalf("%s: ASID %d page %#x was never touched, yet its walk returns %v",
				desc, p.mmu.ASID(), vpn, err)
		}
	})
}

// TestNoTLBEntryCoversUnmappedPage runs seeded sequences of mmap, munmap,
// first-touch sweeps (faults and promotions), random references,
// compaction, reservation consolidation, page merging and copy-on-write
// clones under every registered scheme (the eager ones included), with SMT
// so that both address spaces share the TLBs under distinct ASIDs, at the
// default promotion threshold and at 0.5, where a promotion maps pages no
// reference has touched. After every operation, no cached translation of
// either address space may cover an unmapped page, and every page its
// reservation has not touched must be unmapped.
func TestNoTLBEntryCoversUnmappedPage(t *testing.T) {
	for i, name := range scheme.Names() {
		setup, ok := SetupByName(name)
		if !ok {
			t.Fatalf("registered scheme %q has no setup", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, threshold := range []float64{0, 0.5} {
				t.Run(fmt.Sprintf("threshold=%g", threshold), func(t *testing.T) {
					t.Parallel()
					noUncoveredCache(t, Options{Setup: setup, SMT: true, MemoryPages: 1 << 16, PromotionThreshold: threshold}, int64(i)+7)
				})
			}
		})
	}
}

// noUncoveredCache is one seeded sequence of TestNoTLBEntryCoversUnmappedPage.
func noUncoveredCache(t *testing.T, opts Options, seed int64) {
	m := newMachine(opts)
	rng := rand.New(rand.NewSource(seed))
	regions := make([][]region, len(m.procs))
	clones := 0
	for step := 0; step < 400; step++ {
		th := rng.Intn(len(m.procs))
		p := m.procs[th]
		rs := regions[th]
		var desc string
		switch op := rng.Intn(100); {
		case op < 12 && len(rs) < 4 || len(rs) == 0:
			pages := randomPages(rng)
			desc = fmt.Sprintf("step %d: thread %d mmaps %d pages", step, th, pages)
			base, err := p.kernel.Mmap(pages*addr.BasePageSize, 0)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			regions[th] = append(rs, region{base, pages})
		case op < 18 && len(rs) > 1:
			k := rng.Intn(len(rs))
			desc = fmt.Sprintf("step %d: thread %d munmaps %#x", step, th, uint64(rs[k].base))
			if err := p.kernel.Munmap(rs[k].base); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			regions[th] = append(rs[:k], rs[k+1:]...)
		case op < 60:
			// A first-touch sweep, as a workload's warm-up: reads or
			// writes one reference at a time, or writes through the
			// kernel's page loop.
			r := rs[rng.Intn(len(rs))]
			first := uint64(rng.Int63n(int64(r.pages)))
			n := min(r.pages-first, 1+uint64(rng.Intn(96)))
			kind := rng.Intn(4)
			write, bulk := kind != 0, kind >= 2
			start := r.base + addr.Virt(first*addr.BasePageSize)
			desc = fmt.Sprintf("step %d: thread %d sweeps %d pages at %#x (write %v, bulk %v)", step, th, n, uint64(start), write, bulk)
			if bulk {
				if err := p.kernel.TouchPages(start, n, nil); err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				break
			}
			for pg := uint64(0); pg < n; pg++ {
				if err := m.refAs(th, trace.Ref{Addr: start + addr.Virt(pg*addr.BasePageSize), Write: write}); err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
			}
		case op < 88:
			desc = fmt.Sprintf("step %d: thread %d references at random", step, th)
			for n := 0; n < 64; n++ {
				r := rs[rng.Intn(len(rs))]
				v := r.base + addr.Virt(rng.Int63n(int64(r.pages*addr.BasePageSize)))
				if err := m.refAs(th, trace.Ref{Addr: v, Write: rng.Intn(3) == 0}); err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
			}
		case op < 91:
			desc = fmt.Sprintf("step %d: thread %d compacts", step, th)
			p.kernel.Compact()
		case op < 94:
			desc = fmt.Sprintf("step %d: thread %d consolidates reservations and merges pages", step, th)
			p.kernel.ConsolidateReservations()
			p.kernel.MergePages()
		case op < 97 && clones < 6:
			r := rs[rng.Intn(len(rs))]
			desc = fmt.Sprintf("step %d: thread %d clones %#x copy-on-write", step, th, uint64(r.base))
			clone, err := p.kernel.CloneCOW(r.base)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			clones++
			regions[th] = append(rs, region{clone, r.pages})
		default:
			desc = fmt.Sprintf("step %d: no-op", step)
		}
		for _, q := range m.procs {
			checkCachedAreMapped(t, desc, q)
			checkUntouchedUnmapped(t, desc, q)
		}
	}
}

// demandPaged reports whether a policy maps pages at fault time; the eager
// policies map whole regions at mmap and fault only on copy-on-write.
func demandPaged(p vmm.Policy) bool {
	return p != vmm.PolicyTPSEager && p != vmm.Policy2MOnly && p != vmm.PolicyRMMEager
}

// tlbSlot is one resident TLB entry with its slot and raw LRU stamp.
type tlbSlot struct {
	slot int
	e    tlb.Entry
	lru  uint64
}

// hardwareState reads every TLB's counters and contents, and the
// translation-cache lines, of the hardware behind m.
func hardwareState(m *mmu.MMU, lines bool) (stats []tlb.Stats, slots []tlbSlot, tc []tlb.Entry) {
	for _, t := range append(m.L1TLBs(), m.STLBs()...) {
		stats = append(stats, t.Stats())
		t.Resident(func(i int, e tlb.Entry, lru uint64) { slots = append(slots, tlbSlot{i, e, lru}) })
	}
	if lines {
		m.EachCached(func(where string, e tlb.Entry) {
			if where == "transcache" {
				tc = append(tc, e)
			}
		})
	}
	return stats, slots, tc
}

// TestResolveRetryMatchesFullTranslate drives two identical machines
// through one seeded sequence of mappings, first-touch sweeps, random
// references, compaction and copy-on-write clones. One translates with
// Kernel.Access, whose demand faults retry through mmu.RetryAfterFault.
// The other runs the full sequence through public calls: Translate, then
// on a demand fault Fault and Translate again. After every reference the
// results, MMU counters (PWC hits included), OS counters, and every TLB's
// counters, contents and LRU stamps must be equal; the translation-cache
// lines are compared every 64 references and at the end.
func TestResolveRetryMatchesFullTranslate(t *testing.T) {
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"fresh", func(*Options) {}},
		{"virtualized", func(o *Options) { o.Virtualized = true }},
		{"fragmented", func(o *Options) { o.PreFragment = fragstate.PreFragment(fragstate.DefaultParams()) }},
	}
	for _, setup := range Setups() {
		for vi, variant := range variants {
			t.Run(setup.String()+"/"+variant.name, func(t *testing.T) {
				t.Parallel()
				opts := Options{Setup: setup, MemoryPages: 1 << 16}
				variant.set(&opts)
				fast, full := newMachine(opts).procs[0], newMachine(opts).procs[0]
				rng := rand.New(rand.NewSource(int64(setup)*10 + int64(vi)))
				refs := 0
				ref := func(desc string, v addr.Virt, write bool) {
					t.Helper()
					got, err := fast.kernel.Access(v, write)
					want, werr := full.mmu.Translate(v, write)
					if errors.Is(werr, pagetable.ErrNotMapped) {
						if werr = full.kernel.Fault(v, write); werr == nil {
							want, werr = full.mmu.Translate(v, write)
						}
					} else if werr != nil {
						want, werr = full.kernel.Resolve(v, write, want, werr)
					}
					desc = fmt.Sprintf("%s: reference %#x (write %v)", desc, uint64(v), write)
					if err != nil || werr != nil {
						t.Fatalf("%s: errors %v, full %v", desc, err, werr)
					}
					if got != want {
						t.Fatalf("%s: result %+v, full %+v", desc, got, want)
					}
					if a, b := fast.mmu.Stats(), full.mmu.Stats(); a != b {
						t.Fatalf("%s: mmu stats %+v, full %+v", desc, a, b)
					}
					if a, b := fast.kernel.Stats(), full.kernel.Stats(); a != b {
						t.Fatalf("%s: vmm stats %+v, full %+v", desc, a, b)
					}
					refs++
					lines := refs%64 == 0
					as, aslots, atc := hardwareState(fast.mmu, lines)
					bs, bslots, btc := hardwareState(full.mmu, lines)
					for i := range as {
						if as[i] != bs[i] {
							t.Fatalf("%s: TLB %d stats %+v, full %+v", desc, i, as[i], bs[i])
						}
					}
					if !slices.Equal(aslots, bslots) {
						t.Fatalf("%s: TLB contents differ:\n%v\nfull\n%v", desc, aslots, bslots)
					}
					if !slices.Equal(atc, btc) {
						t.Fatalf("%s: translation-cache lines differ", desc)
					}
				}
				var rs []region
				cloned := false
				for step := 0; step < 300; step++ {
					desc := fmt.Sprintf("step %d", step)
					switch op := rng.Intn(100); {
					case op < 8 || len(rs) < 2:
						if len(rs) == 4 {
							// Keep the footprint inside the fragmented
							// start's free memory: retire the oldest.
							for _, p := range []*proc{fast, full} {
								if err := p.kernel.Munmap(rs[0].base); err != nil {
									t.Fatal(err)
								}
							}
							rs = rs[1:]
						}
						pages := randomPages(rng)
						base, err := fast.kernel.Mmap(pages*addr.BasePageSize, 0)
						fbase, ferr := full.kernel.Mmap(pages*addr.BasePageSize, 0)
						if err != nil || ferr != nil || base != fbase {
							t.Fatalf("%s: mmap %#x,%v, full %#x,%v", desc, uint64(base), err, uint64(fbase), ferr)
						}
						rs = append(rs, region{base, pages})
					case op < 12:
						k := rng.Intn(len(rs))
						if err := fast.kernel.Munmap(rs[k].base); err != nil {
							t.Fatal(err)
						}
						if err := full.kernel.Munmap(rs[k].base); err != nil {
							t.Fatal(err)
						}
						rs = append(rs[:k], rs[k+1:]...)
					case op < 60:
						r := rs[rng.Intn(len(rs))]
						first := uint64(rng.Int63n(int64(r.pages)))
						n := min(r.pages-first, 1+uint64(rng.Intn(64)))
						write := rng.Intn(4) != 0
						for pg := first; pg < first+n; pg++ {
							ref(desc, r.base+addr.Virt(pg*addr.BasePageSize), write)
						}
					case op < 96:
						for n := 0; n < 32; n++ {
							r := rs[rng.Intn(len(rs))]
							ref(desc, r.base+addr.Virt(rng.Int63n(int64(r.pages*addr.BasePageSize))), rng.Intn(3) == 0)
						}
					case op < 98:
						for _, p := range []*proc{fast, full} {
							p.kernel.Compact()
							p.kernel.ConsolidateReservations()
							p.kernel.MergePages()
						}
					case !cloned:
						r := rs[rng.Intn(len(rs))]
						clone, err := fast.kernel.CloneCOW(r.base)
						fclone, ferr := full.kernel.CloneCOW(r.base)
						if err != nil || ferr != nil || clone != fclone {
							t.Fatalf("%s: clone %#x,%v, full %#x,%v", desc, uint64(clone), err, uint64(fclone), ferr)
						}
						rs = append(rs, region{clone, r.pages})
						cloned = true
					}
				}
				_, _, atc := hardwareState(fast.mmu, true)
				_, _, btc := hardwareState(full.mmu, true)
				if !slices.Equal(atc, btc) {
					t.Fatal("translation-cache lines differ at the end")
				}
				if demandPaged(fast.kernel.Config().Policy) && fast.kernel.Stats().DemandPages == 0 {
					t.Fatal("no demand faults: the retry path was not exercised")
				}
			})
		}
	}
}
