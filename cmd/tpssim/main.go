// Command tpssim runs one benchmark under one translation mechanism and
// prints the full statistics block: TLB hits and misses per level,
// page-walk memory references, OS work, page-size census, and footprint.
//
// The benchmark is either a generator (-workload) or a trace file
// (-trace) in the portable text format of internal/trace/file.go, which
// is region-relative, so externally captured traces (e.g. converted PIN
// output, the paper's own tracing method) replay under any registered
// scheme. -dump writes the selected workload's trace to stdout instead
// of simulating it.
//
// Usage:
//
//	tpssim -workload gups -setup tps
//	tpssim -workload gcc -setup thp -refs 2000000
//	tpssim -workload xsbench -setup tps -fragmented -threshold 0.5
//	tpssim -dump -workload gups -refs 500000 > gups.trace
//	tpssim -trace gups.trace -setup rmm
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"tps"
	"tps/internal/addr"
	"tps/internal/fragstate"
	"tps/internal/telemetry/series"
	"tps/internal/trace"
	"tps/internal/workload"
)

func main() {
	var (
		name      = flag.String("workload", "gups", "benchmark name (see -list)")
		setupName = flag.String("setup", "tps", "translation scheme by registry name (see error output for the list); legacy aliases 4k/base/eager/2m accepted")
		refs      = flag.Uint64("refs", 1<<20, "measured references")
		seed      = flag.Int64("seed", 42, "generator seed")
		memGB     = flag.Uint64("mem", 16, "physical memory in GB")
		frag      = flag.Bool("fragmented", false, "start from a fragmented memory state")
		smt       = flag.Bool("smt", false, "run with an SMT co-runner")
		virt      = flag.Bool("virtualized", false, "two-dimensional nested page walks")
		cyc       = flag.Bool("cycles", false, "enable the cycle model")
		threshold = flag.Float64("threshold", 1.0, "TPS promotion utilization threshold")
		seriesOut = flag.String("series", "", "write an epoch-sampled counter time-series (JSONL) to this file")
		seriesN   = flag.Uint64("series-every", 0, "with -series: sample every N references (0 = the 1M default)")
		list      = flag.Bool("list", false, "list workloads and exit")
		traceFile = flag.String("trace", "", "replay this trace file as the workload (replaces -workload; -refs and -seed do not apply)")
		dump      = flag.Bool("dump", false, "write the workload's trace to stdout instead of simulating it")
	)
	flag.Parse()

	if *list {
		for _, w := range tps.Workloads() {
			marker := " "
			if w.TLBIntensive {
				marker = "*"
			}
			fmt.Printf("%s %-12s footprint=%s\n", marker, w.Name, addr.FormatSize(w.FootprintBytes))
		}
		fmt.Println("(* = TLB-intensive evaluation suite)")
		return
	}

	w, ok := tps.WorkloadByName(*name)
	if *traceFile != "" {
		w, ok = workload.FromTrace(*traceFile), true
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (use -list)\n", *name)
		os.Exit(1)
	}
	if *dump {
		if err := dumpTrace(w, *refs, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "dump failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	setup, ok := parseSetup(*setupName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheme %q (registered: %s)\n",
			*setupName, strings.Join(tps.SchemeNames(), ", "))
		os.Exit(1)
	}

	opts := tps.Options{
		Setup:              setup,
		Refs:               *refs,
		Seed:               *seed,
		MemoryPages:        *memGB << (30 - addr.BasePageShift),
		SMT:                *smt,
		Virtualized:        *virt,
		CycleModel:         *cyc,
		PromotionThreshold: *threshold,
	}
	if *frag {
		opts.PreFragment = fragstate.PreFragment(fragstate.DefaultParams())
	}
	var seriesLog *series.Log
	if *seriesOut != "" {
		f, err := os.Create(*seriesOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create series file: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		seriesLog = series.NewLog(f)
		opts.SeriesEvery = *seriesN
		if opts.SeriesEvery == 0 {
			opts.SeriesEvery = series.DefaultEvery
		}
		meta := series.Meta{Workload: w.Name, Scheme: setup.SchemeName(), Seed: *seed}
		opts.OnSeries = func(pts []series.Point, every uint64) {
			seriesLog.WriteCell(meta, every, pts)
		}
	}

	res, err := tps.Run(w, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulation failed: %v\n", err)
		os.Exit(1)
	}
	if seriesLog != nil {
		if err := seriesLog.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "series log: %v\n", err)
			os.Exit(1)
		}
	}
	report(res)
}

// dumpTrace writes w's reference stream to stdout as a trace file.
func dumpTrace(w tps.Workload, refs uint64, seed int64) error {
	fw := trace.NewFileWriter(os.Stdout)
	fmt.Printf("# tps trace: workload=%s refs=%d seed=%d\n", w.Name, refs, seed)
	if err := w.Run(fw, refs, seed); err != nil {
		return err
	}
	return fw.Flush()
}

// parseSetup resolves a scheme by its registry name, keeping the historic
// command-line aliases as a thin pre-translation layer.
func parseSetup(s string) (tps.Setup, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "4k", "base":
		s = "base4k"
	case "eager":
		s = "tps-eager"
	case "2m":
		s = "2m-only"
	}
	return tps.SetupByName(s)
}

func report(res tps.Result) {
	m := res.MMU
	fmt.Printf("workload   %s\nmechanism  %v\n\n", res.Workload, res.Setup)
	fmt.Printf("measured refs        %12d\ninstructions         %12d\n\n", res.Refs, res.Instructions)
	fmt.Printf("L1 DTLB accesses     %12d\nL1 DTLB hits         %12d (%.2f%%)\nL1 DTLB misses       %12d\nL1 DTLB MPKI         %12.2f\n\n",
		m.Accesses, m.L1Hits, 100*pct(m.L1Hits, m.Accesses), m.L1Misses, res.L1MPKI)
	fmt.Printf("STLB hits            %12d\nRange TLB hits       %12d\npage walks           %12d\nwalk memory refs     %12d\nalias extra refs     %12d\n\n",
		m.STLBHits, m.SidecarHits, m.Walks, res.WalkMemRefs, m.AliasExtras)
	fmt.Printf("OS faults            %12d\npromotions           %12d\nreservations         %12d\nfallback blocks      %12d\nPTE writes           %12d\n\n",
		res.OS.Faults, res.OS.Promotions, res.OS.Reservations, res.OS.FallbackBlocks, res.PTEWrites)
	fmt.Printf("demanded 4K pages    %12d\nmapped 4K pages      %12d\nreserved 4K pages    %12d\n\n",
		res.DemandPages, res.MappedPages, res.ReservedPages)
	if res.CyclesReal > 0 {
		fmt.Printf("cycles (real)        %12d\ncycles (perfect L2)  %12d\ncycles (ideal)       %12d\nT_PW                 %12d\nT_L1DTLBM            %12d\n\n",
			res.CyclesReal, res.CyclesPerfectL2, res.CyclesIdeal, res.TPW(), res.TL1DTLBM())
	}
	fmt.Println("page-size census:")
	orders := make([]addr.Order, 0, len(res.Census))
	for o := range res.Census {
		orders = append(orders, o)
	}
	sort.Slice(orders, func(i, j int) bool { return orders[i] < orders[j] })
	for _, o := range orders {
		fmt.Printf("  %-5s %d\n", o, res.Census[o])
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
