package tps

import (
	"fmt"

	"tps/internal/vmm"
)

// The extension experiments evaluate the paper's forward-looking
// suggestions, beyond its evaluated figures.

// ExtCompactionDaemon quantifies §IV-B's suggestion for long-running
// big-memory workloads under fragmentation: "performing memory compaction
// at initial allocation time or incremental guided memory compaction over
// time would help TPS incrementally grow page sizes and reduce TLB
// misses". It compares TPS on a heavily fragmented machine without and
// with an incremental merge-aware compaction daemon.
func (r *Runner) ExtCompactionDaemon() (*Table, error) {
	t := &Table{
		Title:  "Extension: Incremental Compaction Daemon under High Fragmentation (§IV-B suggestion)",
		Header: []string{"benchmark", "TPS elim (no daemon)", "TPS elim (daemon)", "2M+ pages (no daemon)", "2M+ pages (daemon)"},
		Notes: []string{
			"elimination vs reservation-based THP on the same fragmented state",
			"re-homing a fragmented chunk needs one chunk of free headroom: workloads filling nearly all free memory (xsbench) cannot consolidate",
		},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	var suite []Workload
	for _, name := range []string{"gups", "graph500", "xsbench"} {
		if w, ok := WorkloadByName(name); ok {
			suite = append(suite, w)
		}
	}
	var warm []func()
	for _, w := range suite {
		w := w
		warm = append(warm,
			func() { r.run(w, SetupTHP, runFlags{frag: true}) },
			func() { r.run(w, SetupTPS, runFlags{frag: true}) },
			func() { r.runCompactDaemon(w) })
	}
	r.warm(warm...)
	for _, w := range suite {
		thp, err := r.run(w, SetupTHP, runFlags{frag: true})
		if err != nil {
			return nil, err
		}
		plain, err := r.run(w, SetupTPS, runFlags{frag: true})
		if err != nil {
			return nil, err
		}
		daemon, err := r.runCompactDaemon(w)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name,
			pct(elim(thp.MMU.L1Misses, plain.MMU.L1Misses)),
			pct(elim(thp.MMU.L1Misses, daemon.MMU.L1Misses)),
			fmt.Sprintf("%d", bigPages(plain)),
			fmt.Sprintf("%d", bigPages(daemon)))
	}
	return t, nil
}

// runCompactDaemon runs TPS on the fragmented state with the incremental
// daemon firing four times across the measured window.
func (r *Runner) runCompactDaemon(w Workload) (Result, error) {
	// The daemon runs every Refs/2 references, in init and the main phase.
	return r.runCell(w, runKey{setup: SetupTPS, frag: true, compactEvery: r.cfg.Refs / 2})
}

// bigPages counts mapped pages of 2 MB and above.
func bigPages(res Result) (n uint64) {
	for o, c := range res.Census {
		if o >= 9 {
			n += c
		}
	}
	return
}

// ExtCowPolicies quantifies the §III-C3 copy-on-write options on a shared
// tailored page: copy time (pages copied) vs TLB pressure (page count)
// for the split-least and copy-whole policies.
func (r *Runner) ExtCowPolicies() (*Table, error) {
	t := &Table{
		Title:  "Extension: Copy-on-Write Policies for Tailored Pages (§III-C3)",
		Header: []string{"policy", "cow faults", "pages copied", "pages mapping region", "sys cycles"},
		Notes:  []string{"one 64 MB shared region; 1% of its pages written after cloning"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	for _, policy := range []vmm.CowPolicy{vmm.CowSplit, vmm.CowFull} {
		res := vmm.CowExperiment(policy, 64<<20, 0.01, r.cfg.Seed)
		t.AddRow(policy.String(),
			fmt.Sprintf("%d", res.Faults),
			fmt.Sprintf("%d", res.CopiedPages),
			fmt.Sprintf("%d", res.RegionPages),
			fmt.Sprintf("%d", res.SysCycles))
	}
	return t, nil
}
