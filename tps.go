// Package tps is a from-scratch reproduction of "Tailored Page Sizes: A
// Clean and Flexible Virtual Memory Mechanism" (Guvenilir & Patt, ISCA
// 2020): an architectural and operating-system simulator for pages of any
// power-of-two size at or above 4 KB.
//
// The library assembles, per run, a complete virtual-memory system — buddy
// allocator, reservation-based OS paging, radix page table with the TPS
// NAPOT PTE encoding and alias PTEs, split L1 TLBs with the any-size TPS
// TLB, a unified L2 STLB, paging-structure caches, a hardware page walker,
// data caches and an out-of-order timing model — and drives synthesized
// benchmark reference streams through it. The figure runners regenerate
// every table and figure of the paper's evaluation (see EXPERIMENTS.md).
//
// Quick start:
//
//	w, _ := tps.WorkloadByName("gups")
//	res, err := tps.Run(w, tps.Options{Setup: tps.SetupTPS, Refs: 1e6})
//	fmt.Printf("L1 hit rate: %.2f%%\n",
//	    100*float64(res.MMU.L1Hits)/float64(res.MMU.Accesses))
package tps

import (
	"tps/internal/scheme"
	"tps/internal/sim"
	"tps/internal/workload"
)

// Setup selects the translation mechanism a run evaluates.
type Setup = sim.Setup

// The available mechanisms: the 4 KB-only baseline, reservation-based
// Transparent Huge Pages (the paper's comparison baseline), Tailored Page
// Sizes under reservation or eager paging, the CoLT and RMM related-work
// baselines, the exclusive-2MB configuration of the Fig. 9 study, and the
// RISC-V Svnapot fixed-granule ablation. Each is backed by a registered
// translation scheme (internal/scheme); SetupByName resolves the stable
// registry names.
const (
	SetupBase4K   = sim.SetupBase4K
	SetupTHP      = sim.SetupTHP
	SetupTPS      = sim.SetupTPS
	SetupTPSEager = sim.SetupTPSEager
	SetupCoLT     = sim.SetupCoLT
	SetupRMM      = sim.SetupRMM
	Setup2MOnly   = sim.Setup2MOnly
	SetupSvnapot  = sim.SetupSvnapot
)

// SetupByName resolves a scheme-registry name ("tps", "svnapot", ...) to
// its Setup, reporting false for unregistered names.
func SetupByName(name string) (Setup, bool) { return sim.SetupByName(name) }

// SchemeNames returns the registered translation-scheme names, sorted —
// the vocabulary SetupByName accepts.
func SchemeNames() []string { return scheme.Names() }

// Options parameterizes a single simulation run.
type Options = sim.Options

// Result carries a run's measurements: TLB hit/miss counters, page-walk
// memory references, OS work, page-size census, footprint, and (with
// Options.CycleModel) the timing-scenario cycle counts.
type Result = sim.Result

// Workload is one benchmark generator from the paper's suite.
type Workload = workload.Workload

// Run simulates one workload under the given options.
func Run(w Workload, opts Options) (Result, error) { return sim.Run(w, opts) }

// Workloads returns the full profiling catalog (every SPEC CPU 2017
// approximation plus the big-data kernels), as profiled for Fig. 8.
func Workloads() []Workload { return workload.All() }

// EvalSuite returns the TLB-intensive evaluation subset (L1 DTLB MPKI > 5,
// the paper's selection criterion) used by Figs. 9-18.
func EvalSuite() []Workload { return workload.EvalSuite() }

// WorkloadByName finds a workload by its figure name (e.g. "gups", "mcf").
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// SparseWorkload builds a synthetic workload touching only `density` of
// its footprint's pages — the case that exposes the promotion-threshold
// footprint/reach tradeoff of §III-B1.
func SparseWorkload(footprintBytes uint64, density float64) Workload {
	return workload.Sparse(footprintBytes, density)
}
