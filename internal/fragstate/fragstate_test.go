package fragstate

import (
	"fmt"
	"sync"
	"testing"

	"tps/internal/addr"
	"tps/internal/buddy"
)

func TestFragmentReachesTargetFreeFraction(t *testing.T) {
	a := buddy.New(1 << 20) // 4 GB
	Fragment(a, DefaultParams())
	frac := float64(a.FreePages()) / float64(a.TotalPages())
	if frac < 0.30 || frac > 0.45 {
		t.Errorf("free fraction=%.2f, want ~0.35", frac)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageDeclinesWithOrder(t *testing.T) {
	a := buddy.New(1 << 20)
	Fragment(a, DefaultParams())
	cov := a.Coverage()
	if cov[0] < 0.999 {
		t.Errorf("4K coverage=%.3f, must be 1", cov[0])
	}
	// Monotone non-increasing by construction; the Fig. 15 shape also
	// requires real intermediate coverage and poor huge coverage.
	for o := 1; o <= int(addr.Order1G); o++ {
		if cov[o] > cov[o-1]+1e-9 {
			t.Errorf("coverage increased at order %d: %.3f -> %.3f", o, cov[o-1], cov[o])
		}
	}
	if cov[4] < 0.10 {
		t.Errorf("64K coverage=%.3f: intermediate contiguity missing", cov[4])
	}
	if cov[addr.Order2M] > cov[4] {
		t.Errorf("2M coverage (%.3f) should not exceed 64K coverage (%.3f)", cov[addr.Order2M], cov[4])
	}
	if cov[addr.Order1G] > 0.5 {
		t.Errorf("1G coverage=%.3f: state not fragmented", cov[addr.Order1G])
	}
}

func TestDeterministic(t *testing.T) {
	a := buddy.New(1 << 18)
	b := buddy.New(1 << 18)
	Fragment(a, DefaultParams())
	Fragment(b, DefaultParams())
	if a.Snapshot() != b.Snapshot() {
		t.Error("same params produced different states")
	}
}

func TestSeedVariesState(t *testing.T) {
	p1, p2 := DefaultParams(), DefaultParams()
	p2.Seed = 99
	a := buddy.New(1 << 18)
	b := buddy.New(1 << 18)
	Fragment(a, p1)
	Fragment(b, p2)
	if a.Snapshot() == b.Snapshot() {
		t.Error("different seeds produced identical states")
	}
}

func TestBadParamsDefaulted(t *testing.T) {
	a := buddy.New(1 << 16)
	Fragment(a, Params{TargetFreeFraction: 2, SmallBias: -1, MaxBlockOrder: 99, Seed: 3})
	if a.FreePages() == 0 || a.FreePages() == a.TotalPages() {
		t.Error("defaulted params produced degenerate state")
	}
}

func TestPreFragmentHook(t *testing.T) {
	hook := PreFragment(DefaultParams())
	a := buddy.New(1 << 18)
	hook(a)
	if float64(a.FreePages())/float64(a.TotalPages()) > 0.5 {
		t.Error("hook did not fragment")
	}
}

// churned returns an allocator the churn builds directly, bypassing the
// snapshot. p must already be normalized.
func churned(pages uint64, p Params) *buddy.Allocator {
	a := buddy.New(pages)
	churn(a, p)
	return a
}

// diffAllocators fails t unless got and want hold the same state: counters,
// free-list population, coverage, a clean invariant check, and the same
// frame for every step of one allocation sequence (orders 0..9 cycling)
// until both are full. It consumes both allocators.
func diffAllocators(t *testing.T, what string, got, want *buddy.Allocator) {
	t.Helper()
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: stats %+v, churn %+v", what, got.Stats(), want.Stats())
	}
	if got.FreePages() != want.FreePages() || got.Snapshot() != want.Snapshot() {
		t.Fatalf("%s: %d free in %v, churn %d free in %v", what,
			got.FreePages(), got.Snapshot(), want.FreePages(), want.Snapshot())
	}
	if got.Coverage() != want.Coverage() {
		t.Fatalf("%s: coverage %v, churn %v", what, got.Coverage(), want.Coverage())
	}
	for i := 0; got.FreePages() > 0 || want.FreePages() > 0; i++ {
		o := addr.Order(i % 10)
		gp, gerr := got.Alloc(o)
		wp, werr := want.Alloc(o)
		if gp != wp || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: alloc %d (order %d) = %#x, %v; churn %#x, %v", what, i, o, gp, gerr, wp, werr)
		}
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: after draining, stats %+v, churn %+v", what, got.Stats(), want.Stats())
	}
}

func TestFragmentSnapshotDifferentialAgainstChurn(t *testing.T) {
	other := DefaultParams()
	other.Seed, other.TargetFreeFraction = 99, 0.5
	for _, tc := range []struct {
		name  string
		p     Params
		pages uint64
	}{
		{"default/1GB", DefaultParams(), 1 << 18},
		{"default/16GB", DefaultParams(), 1 << 22},
		{"seed99-free0.5/1GB", other, 1 << 18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Twice: the first call may build the snapshot, the second
			// must copy it.
			for _, pass := range []string{"first", "second"} {
				a := buddy.New(tc.pages)
				Fragment(a, tc.p)
				diffAllocators(t, pass, a, churned(tc.pages, tc.p))
			}
		})
	}

	t.Run("aliasing", func(t *testing.T) {
		p, pages := DefaultParams(), uint64(1<<18)
		a := buddy.New(pages)
		Fragment(a, p)
		pfn, err := a.Alloc(3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Alloc(0); err != nil {
			t.Fatal(err)
		}
		if err := a.Free(pfn); err != nil {
			t.Fatal(err)
		}
		a.Compact()
		b := buddy.New(pages)
		Fragment(b, p)
		diffAllocators(t, "restore after using an earlier copy", b, churned(pages, p))
	})

	t.Run("concurrent-first-use", func(t *testing.T) {
		// A key no other test uses, so the goroutines race to build it.
		p := DefaultParams()
		p.Seed = 4242
		pages := uint64(1 << 16)
		got := make([]*buddy.Allocator, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = buddy.New(pages)
				Fragment(got[i], p)
			}(i)
		}
		wg.Wait()
		for i, a := range got {
			diffAllocators(t, fmt.Sprintf("goroutine %d", i), a, churned(pages, p))
		}
	})

	t.Run("non-fresh-panics", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			prep func(*buddy.Allocator) error
		}{
			{"allocated", func(a *buddy.Allocator) error { _, err := a.Alloc(0); return err }},
			// All memory free again, but the counters show it was used.
			{"counted", func(a *buddy.Allocator) error {
				pfn, err := a.Alloc(0)
				if err != nil {
					return err
				}
				return a.Free(pfn)
			}},
		} {
			a := buddy.New(1 << 16)
			if err := tc.prep(a); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Fragment did not panic on a used allocator", tc.name)
					}
				}()
				Fragment(a, DefaultParams())
			}()
		}
	})
}
