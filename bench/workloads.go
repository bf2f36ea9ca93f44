package main

import (
	"fmt"
	"strconv"

	"tps"
	"tps/internal/fragstate"
)

// memoryPages sizes every simulated machine: 16 GB, the figures default.
const memoryPages = 1 << 22

// cell is one tps.Run call: a workload under a translation scheme with the
// run flags the figures vary.
type cell struct {
	Workload string
	Scheme   string
	Refs     uint64
	// Frag starts from the standard fragmented memory state (Figs. 15/16).
	Frag, Virt, SMT, Cyc bool
	Seed                 int64 // the generator seed; workload.cells sets it
}

func (c cell) String() string {
	s := c.Workload + "/" + c.Scheme
	for _, f := range []struct {
		on   bool
		name string
	}{{c.Frag, "frag"}, {c.Virt, "virt"}, {c.SMT, "smt"}, {c.Cyc, "cyc"}} {
		if f.on {
			s += "+" + f.name
		}
	}
	return s + "@" + strconv.FormatUint(c.Refs, 10)
}

// functional reports whether the cell runs neither the cycle model nor the
// SMT scheduler, so the benchmark's traced machine can run it.
func (c cell) functional() bool { return !c.SMT && !c.Cyc }

// options resolves the cell into the arguments of tps.Run. The seed is the
// only input the benchmark varies.
func (c cell) options() (tps.Workload, tps.Options, error) {
	w, ok := tps.WorkloadByName(c.Workload)
	if !ok {
		return tps.Workload{}, tps.Options{}, fmt.Errorf("cell %v: unknown workload", c)
	}
	s, ok := tps.SetupByName(c.Scheme)
	if !ok {
		return tps.Workload{}, tps.Options{}, fmt.Errorf("cell %v: unknown scheme", c)
	}
	opts := tps.Options{
		Setup:       s,
		Refs:        c.Refs,
		Seed:        c.Seed,
		MemoryPages: memoryPages,
		Virtualized: c.Virt,
		SMT:         c.SMT,
		CycleModel:  c.Cyc,
	}
	if c.Frag {
		opts.PreFragment = fragstate.PreFragment(fragstate.DefaultParams())
	}
	return w, opts, nil
}

// workload is one named input set of the benchmark. BENCHMARK.json and
// README.md record why each was chosen.
type workload struct {
	Name string
	// Cells run in this order, longest first, on the closed-loop workers.
	// For a figures workload they are the cells its figures compute, which
	// the traced run replays one by one to attribute host time to layers.
	Cells []cell
	// Figures drives the paper's figure methods through one tps.Runner
	// instead of calling tps.Run per cell.
	Figures bool
}

// figRefs and figSuite scale figures-mini: every figure of `figures -all`
// except Fig. 8, whose catalog-wide profile would alone cost more than the
// whole pass.
const figRefs = 100000

var figSuite = []string{"gcc", "xz"}

var workloads = []workload{
	{
		// Faulting in 3-5 GB footprints, from fresh and from fragmented
		// memory: vmm.Kernel.Resolve dominates.
		Name: "fault-cold",
		Cells: []cell{
			{Workload: "gups", Scheme: "tps", Refs: 100000},
			{Workload: "mcf", Scheme: "thp", Refs: 100000, Frag: true},
			{Workload: "lbm", Scheme: "base4k", Refs: 100000},
			{Workload: "graph500", Scheme: "thp", Refs: 100000},
		},
	},
	{
		// Small footprints, long measured phases: mmu.Access and the
		// generator dominate, over the translation-cache hit path (xz), the
		// walk path (gcc base4k) and the CoLT/RMM sidecars.
		Name: "translate-steady",
		Cells: []cell{
			{Workload: "gcc", Scheme: "base4k", Refs: 6000000},
			{Workload: "gcc", Scheme: "colt", Refs: 6000000},
			{Workload: "gcc", Scheme: "rmm", Refs: 6000000},
			{Workload: "gcc", Scheme: "thp", Refs: 6000000},
			{Workload: "xz", Scheme: "colt", Refs: 8000000},
			{Workload: "gcc", Scheme: "tps", Refs: 6000000},
			{Workload: "xz", Scheme: "tps", Refs: 8000000},
			{Workload: "xz", Scheme: "thp", Refs: 8000000},
		},
	},
	{
		// The only workload that runs the cycle model and the SMT scheduler.
		Name: "timing-smt",
		Cells: []cell{
			{Workload: "mcf", Scheme: "thp", Refs: 100000, Virt: true, Cyc: true},
			{Workload: "gcc", Scheme: "thp", Refs: 600000, SMT: true, Cyc: true},
			{Workload: "gcc", Scheme: "thp", Refs: 2000000, Cyc: true},
			{Workload: "gcc", Scheme: "tps", Refs: 600000, SMT: true},
			{Workload: "gcc", Scheme: "thp", Refs: 600000, SMT: true},
			{Workload: "gcc", Scheme: "tps", Refs: 2000000, Cyc: true},
			{Workload: "xz", Scheme: "tps", Refs: 2500000, Cyc: true},
		},
	},
	{
		// `figures -all` in miniature: engine dedup across figures, store
		// writes, then a replay of the same store.
		Name:    "figures-mini",
		Cells:   figuresCells(),
		Figures: true,
	},
}

// figuresCells lists the distinct cells Table I and Figs. 2, 3 and 9-18
// compute for the figures-mini suite. The traced run checks the list
// against the results the Runner stores, so it cannot drift silently from
// the figure definitions.
func figuresCells() []cell {
	var out []cell
	for _, w := range figSuite {
		c := func(scheme string) cell { return cell{Workload: w, Scheme: scheme, Refs: figRefs} }
		for _, s := range []string{"base4k", "2m-only", "thp", "tps", "colt", "rmm", "tps-eager"} {
			out = append(out, c(s))
		}
		for _, s := range []string{"thp", "tps"} {
			f := c(s)
			f.Frag = true
			out = append(out, f)
		}
		for _, s := range []string{"thp", "tps", "rmm", "colt"} {
			f := c(s)
			f.SMT = true
			out = append(out, f)
		}
		for _, s := range []string{"base4k", "thp", "tps"} {
			f := c(s)
			f.Cyc = true
			out = append(out, f)
		}
		smtCyc, virtCyc := c("thp"), c("thp")
		smtCyc.SMT, smtCyc.Cyc = true, true
		virtCyc.Virt, virtCyc.Cyc = true, true
		out = append(out, smtCyc, virtCyc)
	}
	return out
}

// cells returns the workload's cells for a run seed. Each tps.Run cell
// draws its own generator seed from it, so a pass averages over several
// inputs (gcc's allocation sizes, and with them its walk rate, vary widely
// by seed) instead of repeating one; figures cells share the Runner's seed.
func (w workload) cells(seed int64) []cell {
	out := append([]cell(nil), w.Cells...)
	for i := range out {
		out[i].Seed = seed
		if !w.Figures {
			out[i].Seed = seed*1000 + int64(i)
		}
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
