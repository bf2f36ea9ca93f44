package tps

import (
	"fmt"

	"tps/internal/addr"
	"tps/internal/pagetable"
	"tps/internal/vmm"
)

// The ablations quantify the design choices §III leaves open: alias-PTE
// maintenance, promotion aggressiveness, reservation sizing, TPS TLB
// capacity, and page-table depth. Each uses a representative subset of the
// evaluation suite.

func (r *Runner) ablationSuite() []Workload {
	names := []string{"gups", "gcc", "xsbench", "mcf"}
	var out []Workload
	for _, n := range names {
		if w, ok := WorkloadByName(n); ok {
			out = append(out, w)
		}
	}
	return out
}

// ablationRun executes one TPS cell with a mutated key, through the same
// deduplicating engine the figures use, so identical cells across
// ablations (and figures) share one run.
func (r *Runner) ablationRun(w Workload, mutate func(*runKey)) (Result, error) {
	k := runKey{setup: SetupTPS}
	mutate(&k)
	return r.runCell(w, k)
}

// AblationAliasStrategy compares the extra-lookup alias design against the
// full-copy alternative (§III-A1): walk cost vs PTE-update cost.
func (r *Runner) AblationAliasStrategy() (*Table, error) {
	t := &Table{
		Title:  "Ablation: Alias PTE Strategy (extra-lookup vs full-copy)",
		Header: []string{"benchmark", "walkrefs/walk (extra)", "walkrefs/walk (copy)", "PTE writes (extra)", "PTE writes (copy)"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	suite := r.ablationSuite()
	extra := func(k *runKey) { k.alias = pagetable.ExtraLookup }
	copyAll := func(k *runKey) { k.alias = pagetable.FullCopy }
	r.warmAblation(suite, extra, copyAll)
	for _, w := range suite {
		ex, err := r.ablationRun(w, extra)
		if err != nil {
			return nil, err
		}
		fc, err := r.ablationRun(w, copyAll)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name,
			f2(safeDiv(float64(ex.MMU.WalkRefs), float64(ex.MMU.Walks))),
			f2(safeDiv(float64(fc.MMU.WalkRefs), float64(fc.MMU.Walks))),
			fmt.Sprintf("%d", ex.PTEWrites),
			fmt.Sprintf("%d", fc.PTEWrites))
	}
	return t, nil
}

// AblationPromotionThreshold sweeps the §III-B1 utilization threshold on
// sparse workloads (the only kind that can bloat): footprint vs TLB reach.
func (r *Runner) AblationPromotionThreshold() (*Table, error) {
	t := &Table{
		Title:  "Ablation: Promotion Utilization Threshold (§III-B1)",
		Header: []string{"workload", "threshold", "mapped pages", "touched pages", "bloat", "L1 misses"},
		Notes:  []string{"touched = the 4K-only demand footprint; bloat = mapped/touched - 1"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	densities := []float64{0.9, 0.6}
	thresholds := []float64{0.5, 0.75, 1.0}
	base4K := func(k *runKey) { k.setup = SetupBase4K }
	atThreshold := func(th float64) func(*runKey) {
		return func(k *runKey) { k.threshold = th }
	}
	for _, density := range densities {
		w := SparseWorkload(1<<30, density)
		mutators := []func(*runKey){base4K}
		for _, th := range thresholds {
			mutators = append(mutators, atThreshold(th))
		}
		r.warmAblation([]Workload{w}, mutators...)
	}
	for _, density := range densities {
		w := SparseWorkload(1<<30, density)
		base, err := r.ablationRun(w, base4K)
		if err != nil {
			return nil, err
		}
		for _, th := range thresholds {
			res, err := r.ablationRun(w, atThreshold(th))
			if err != nil {
				return nil, err
			}
			bloat := safeDiv(float64(res.MappedPages), float64(base.DemandPages)) - 1
			t.AddRow(w.Name, fmt.Sprintf("%.2f", th),
				fmt.Sprintf("%d", res.MappedPages),
				fmt.Sprintf("%d", base.DemandPages),
				pct(bloat),
				fmt.Sprintf("%d", res.MMU.L1Misses))
		}
	}
	return t, nil
}

// AblationReservationSizing compares conservative exact-span tiling with
// aggressive round-up sizing (§III-B2).
func (r *Runner) AblationReservationSizing() (*Table, error) {
	t := &Table{
		Title:  "Ablation: Reservation Sizing (conservative exact-span vs aggressive round-up)",
		Header: []string{"benchmark", "sizing", "reservations", "reserved pages", "L1 misses"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	suite := r.ablationSuite()
	sizings := []vmm.Sizing{vmm.SizingConservative, vmm.SizingAggressive}
	withSizing := func(sz vmm.Sizing) func(*runKey) {
		return func(k *runKey) { k.sizing = sz }
	}
	r.warmAblation(suite, withSizing(sizings[0]), withSizing(sizings[1]))
	for _, w := range suite {
		for _, sz := range sizings {
			res, err := r.ablationRun(w, withSizing(sz))
			if err != nil {
				return nil, err
			}
			t.AddRow(w.Name, sz.String(),
				fmt.Sprintf("%d", res.OS.Reservations),
				fmt.Sprintf("%d", res.ReservedPages),
				fmt.Sprintf("%d", res.MMU.L1Misses))
		}
	}
	return t, nil
}

// AblationTPSTLBSize sweeps the any-size L1 TLB capacity (§III-A2 argues
// 32 entries meet timing; this shows the sensitivity).
func (r *Runner) AblationTPSTLBSize() (*Table, error) {
	t := &Table{
		Title:  "Ablation: TPS TLB Capacity",
		Header: []string{"benchmark", "8", "16", "32", "64"},
		Notes:  []string{"cells are L1 DTLB miss rates (misses per access)"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	suite := r.ablationSuite()
	sizes := []int{8, 16, 32, 64}
	withEntries := func(n int) func(*runKey) {
		return func(k *runKey) { k.tlbEntries = n }
	}
	var mutators []func(*runKey)
	for _, n := range sizes {
		mutators = append(mutators, withEntries(n))
	}
	r.warmAblation(suite, mutators...)
	for _, w := range suite {
		row := []string{w.Name}
		for _, n := range sizes {
			res, err := r.ablationRun(w, withEntries(n))
			if err != nil {
				return nil, err
			}
			row = append(row, pct(res.MMU.L1MissRatePerAccess()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationSkewedTLB compares the fully associative TPS TLB against the
// §III-A2 skewed-associative alternative at equal capacity.
func (r *Runner) AblationSkewedTLB() (*Table, error) {
	t := &Table{
		Title:  "Ablation: TPS TLB Organization (fully associative vs skewed-associative, 32 entries)",
		Header: []string{"benchmark", "FA miss rate", "skewed miss rate"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	suite := r.ablationSuite()
	plain := func(k *runKey) {}
	skewed := func(k *runKey) { k.skewed = true }
	r.warmAblation(suite, plain, skewed)
	for _, w := range suite {
		fa, err := r.ablationRun(w, plain)
		if err != nil {
			return nil, err
		}
		sk, err := r.ablationRun(w, skewed)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name,
			pct(fa.MMU.L1MissRatePerAccess()),
			pct(sk.MMU.L1MissRatePerAccess()))
	}
	return t, nil
}

// AblationFiveLevel compares 4-level and 5-level page tables (§I cites
// the growth of walk overhead with five-level paging).
func (r *Runner) AblationFiveLevel() (*Table, error) {
	t := &Table{
		Title:  "Ablation: Four- vs Five-Level Page Tables (THP baseline vs TPS)",
		Header: []string{"benchmark", "THP walkrefs (4-lvl)", "THP walkrefs (5-lvl)", "TPS walkrefs (5-lvl)"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	suite := r.ablationSuite()
	run5 := func(w Workload, setup Setup) (Result, error) {
		return r.runCell(w, runKey{setup: setup, levels: addr.Levels5})
	}
	var warm []func()
	for _, w := range suite {
		w := w
		warm = append(warm,
			func() { r.run(w, SetupTHP, runFlags{}) },
			func() { run5(w, SetupTHP) },
			func() { run5(w, SetupTPS) })
	}
	r.warm(warm...)
	for _, w := range suite {
		thp4, err := r.run(w, SetupTHP, runFlags{})
		if err != nil {
			return nil, err
		}
		thp5, err := run5(w, SetupTHP)
		if err != nil {
			return nil, err
		}
		tps5, err := run5(w, SetupTPS)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name,
			fmt.Sprintf("%d", thp4.WalkMemRefs),
			fmt.Sprintf("%d", thp5.WalkMemRefs),
			fmt.Sprintf("%d", tps5.WalkMemRefs))
	}
	return t, nil
}
