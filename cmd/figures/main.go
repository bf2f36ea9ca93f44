// Command figures regenerates the tables and figures of the paper's
// evaluation section. Each figure prints the same rows/series the paper
// reports; shapes (who wins, by what factor) are the reproduction target,
// not absolute cycle counts.
//
// Independent simulation cells fan out across a worker pool; rendered
// output is byte-identical at any -parallel setting. Long runs stream
// per-row progress to stderr (-progress=false silences it), so stdout
// stays the canonical, diffable output.
//
// Usage:
//
//	figures -all                 # every table and figure
//	figures -fig 10              # one figure
//	figures -ablations           # the design-choice ablations
//	figures -schemes all         # one grid comparing every registered scheme
//	figures -schemes tps,svnapot,thp -suite gups,mcf   # a focused grid
//	figures -refs 2000000        # deeper runs
//	figures -all -parallel 8     # cap the worker pool at 8 simulations
//	figures -fig 13 -cpuprofile cpu.pb.gz   # profile the hot loop
//	figures -all -store results/            # persist every settled cell
//	figures -all -store results/ -resume    # replay settled cells, run the rest
//
// Observability (see internal/telemetry): long sweeps are not black
// boxes. -events FILE appends one JSONL line per cell lifecycle event
// (queued/started/finished with counters, ...); -listen ADDR serves live
// metrics (/metrics) and pprof (/debug/pprof/) while the run executes;
// -manifest FILE writes an atomic run manifest — config, per-cell wall
// clock, exit status — at exit, including on SIGINT. None of these
// perturb stdout or modeled statistics by a single byte.
//
//	figures -all -events run.jsonl -manifest manifest.json
//	figures -all -listen 127.0.0.1:6060     # curl /metrics mid-run
//	tpsreport run.jsonl                     # post-run accounting
//
// A -store run that is killed partway (SIGKILL, OOM, power) leaves only
// complete, checksummed cells behind; rerunning with -resume replays them
// and recomputes the rest, producing stdout byte-identical to an
// uninterrupted run. SIGINT/SIGTERM cancel in-flight simulations cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"syscall"

	"tps"
	"tps/internal/store"
	"tps/internal/telemetry"
	"tps/internal/telemetry/series"
	"tps/internal/telemetry/span"
)

func main() {
	os.Exit(run())
}

// run is the real main: it returns the exit code instead of calling
// os.Exit, so deferred work — profile flushes, the run manifest — happens
// on every exit path, including cancellation.
func run() (code int) {
	var (
		fig        = flag.Int("fig", 0, "figure number to regenerate (2,3,8,9,...,18)")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		ablations  = flag.Bool("ablations", false, "run the design-choice ablations")
		refs       = flag.Uint64("refs", 1<<20, "measured references per run")
		seed       = flag.Int64("seed", 42, "workload generator seed")
		parallel   = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		progress   = flag.Bool("progress", true, "stream per-row progress to stderr as cells finish")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		tracefile  = flag.String("trace", "", "write a runtime execution trace to this file")
		suite      = flag.String("suite", "", "comma-separated workload subset (default: the full evaluation suite)")
		schemes    = flag.String("schemes", "", "comma-separated scheme names, or \"all\": render one comparison grid of the named schemes across the workload suite")
		storeDir   = flag.String("store", "", "persist each settled cell to this directory (content-addressed, checksummed)")
		resume     = flag.Bool("resume", false, "with -store: replay already-settled cells instead of recomputing them")
		cellTO     = flag.Duration("cell-timeout", 0, "per-cell deadline (0 = none); an overrunning cell fails its figure, not the process")
		retries    = flag.Int("retries", 0, "re-run a transiently failing cell up to N times under capped exponential backoff")
		events     = flag.String("events", "", "append structured per-cell lifecycle events (JSONL) to this file")
		seriesOut  = flag.String("series", "", "append epoch-sampled per-cell counter time-series (JSONL) to this file")
		seriesN    = flag.Uint64("series-every", 0, "with -series: sample every N references (0 = the 1M default)")
		spansOut   = flag.String("spans", "", "write the run's span trace (JSONL: run + one span per cell) to this file at exit")
		listen     = flag.String("listen", "", "serve live metrics (/metrics) and pprof (/debug/pprof/) on this address while running")
		manifest   = flag.String("manifest", "", "write an atomic run manifest (config, per-cell wall clock, exit status) to this file at exit")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run: in-flight cells stop at the next
	// batch boundary, producer goroutines drain, and already-settled
	// cells stay in the store for a -resume restart.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			return fail(err)
		}
		if err := rtrace.Start(f); err != nil {
			return fail(err)
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				code = fail(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fail(err)
			}
		}()
	}

	// Telemetry is always recorded (its hot-path cost is one per-worker
	// atomic add per 512-reference batch); the flags choose which views
	// exist: JSONL events, the live endpoint, the manifest, and the
	// end-of-run summary on stderr.
	rec := telemetry.New()
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		// The file is unbuffered: each event is one atomic write syscall,
		// so a tail -f (or a crash) only ever sees whole lines.
		rec.LogTo(telemetry.NewEventLog(f))
	}
	var seriesLog *series.Log
	if *seriesOut != "" {
		f, err := os.OpenFile(*seriesOut, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		// Same atomic-line discipline as -events: each cell's series is
		// one Write, so concurrent cells never interleave records.
		seriesLog = series.NewLog(f)
		defer func() {
			if err := seriesLog.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "figures: series log: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}
	if *spansOut != "" {
		// The trace is synthesized from the recorder's per-cell timeline
		// at exit, on every exit path — an interrupted sweep still leaves
		// a trace of what ran.
		defer func() {
			f, err := os.Create(*spansOut)
			if err != nil {
				code = fail(err)
				return
			}
			defer f.Close()
			if err := span.WriteAll(f, rec.Trace("figures")); err != nil {
				code = fail(err)
			}
		}()
	}
	if *listen != "" {
		// A failed bind (port in use) costs one warning, never the run:
		// the sweep proceeds without its live view.
		addr, shutdown := telemetry.Serve(*listen, rec, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
		})
		defer shutdown()
		if addr != "" {
			fmt.Fprintf(os.Stderr, "figures: serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", addr)
		}
	}

	cfg := tps.FigureConfig{
		Refs: *refs, Seed: *seed, Parallelism: *parallel,
		Context: ctx, CellTimeout: *cellTO, Retries: *retries,
		Telemetry: rec,
		Series:    seriesLog, SeriesEvery: *seriesN,
	}
	if *progress {
		cfg.Progress = os.Stderr
	}
	if *suite != "" {
		for _, name := range strings.Split(*suite, ",") {
			w, ok := tps.WorkloadByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "figures: unknown workload %q\n", name)
				return 2
			}
			cfg.Suite = append(cfg.Suite, w)
		}
	}
	// Scheme names resolve against the registry up front: an unknown name
	// is a usage error listing the registered vocabulary, never a silent
	// fall-through to a default scheme.
	var gridSetups []tps.Setup
	if *schemes != "" {
		names := tps.SchemeNames()
		if !strings.EqualFold(*schemes, "all") {
			names = strings.Split(*schemes, ",")
		}
		var err error
		if gridSetups, err = tps.SchemesByName(names); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			return 2
		}
	}
	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "figures: -resume requires -store DIR")
		return 2
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			// An unwritable store degrades to in-memory-only: warn
			// once, never fail the run.
			fmt.Fprintf(os.Stderr, "figures: store unavailable, running in-memory only: %v\n", err)
		} else {
			// Corrupt entries surface in telemetry (event + summary
			// count) instead of only as quarantine/ files on disk.
			st.OnQuarantine = rec.StoreQuarantined
			if *resume {
				if n, err := st.Count(); err == nil && n > 0 {
					fmt.Fprintf(os.Stderr, "figures: resuming from %s (%d settled cells)\n", st.Dir(), n)
				}
				cfg.Store = st
			} else {
				// Fresh run: persist every settled cell for a later
				// -resume, but never replay — stdout must reflect this
				// binary's computation, not a stale store.
				cfg.Store = store.WriteOnly(st)
			}
		}
	}

	// target records what was asked for, for the manifest.
	target := ""
	switch {
	case *all && *ablations:
		target = "-all -ablations"
	case *all:
		target = "-all"
	case *ablations:
		target = "-ablations"
	case *fig != 0:
		target = fmt.Sprintf("-fig %d", *fig)
	case *schemes != "":
		target = "-schemes " + *schemes
	}

	// The manifest is written on every exit path — clean, failed, or
	// canceled — so even an interrupted sweep leaves an attributable,
	// atomic record of what settled and why it stopped.
	var runErr error
	if *manifest != "" {
		defer func() {
			m := rec.Manifest()
			m.Version = tps.SimVersion
			m.Argv = os.Args
			m.Config = telemetry.RunConfig{
				Refs:         *refs,
				Seed:         *seed,
				MemoryPages:  1 << 22, // the FigureConfig default; no flag overrides it
				Parallelism:  *parallel,
				Target:       target,
				CellTimeoutS: cellTO.Seconds(),
				Retries:      *retries,
				StoreDir:     *storeDir,
				Resume:       *resume,
			}
			for _, w := range cfg.Suite {
				m.Config.Suite = append(m.Config.Suite, w.Name)
			}
			m.Exit = telemetry.ExitStatus{Status: "ok", Code: code}
			if runErr != nil {
				m.Exit.Error = runErr.Error()
				if errors.Is(runErr, context.Canceled) {
					m.Exit.Status = "interrupted"
				} else {
					m.Exit.Status = "error"
				}
			}
			if err := telemetry.WriteManifest(*manifest, m); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	r := tps.NewRunner(cfg)

	figures := map[int]func() (*tps.Table, error){
		1:  func() (*tps.Table, error) { return tps.TableI(), nil },
		2:  r.Fig2,
		3:  r.Fig3,
		8:  r.Fig8,
		9:  r.Fig9,
		10: r.Fig10,
		11: r.Fig11,
		12: r.Fig12,
		13: r.Fig13,
		14: r.Fig14,
		15: r.Fig15,
		16: r.Fig16,
		17: r.Fig17,
		18: r.Fig18,
	}

	switch {
	case *all:
		for _, n := range []int{1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18} {
			if runErr = render(figures[n]); runErr != nil {
				return fail(runErr)
			}
		}
		if *ablations {
			if runErr = runAblations(r); runErr != nil {
				return fail(runErr)
			}
		}
		if gridSetups != nil {
			if runErr = render(func() (*tps.Table, error) { return r.SchemeGrid(gridSetups) }); runErr != nil {
				return fail(runErr)
			}
		}
	case *ablations:
		if runErr = runAblations(r); runErr != nil {
			return fail(runErr)
		}
	case gridSetups != nil:
		if runErr = render(func() (*tps.Table, error) { return r.SchemeGrid(gridSetups) }); runErr != nil {
			return fail(runErr)
		}
	case *fig != 0:
		f, ok := figures[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "no such figure %d (have 1-3, 8-18; 4-7 are hardware schematics realized in code)\n", *fig)
			return 1
		}
		if runErr = render(f); runErr != nil {
			return fail(runErr)
		}
	default:
		flag.Usage()
		return 2
	}

	// End-of-run accounting: cells, store effectiveness, retries, and
	// the previously silent quarantine count. stderr only — stdout stays
	// the canonical, diffable figure output.
	if *progress || *storeDir != "" || *events != "" || *listen != "" || *manifest != "" {
		fmt.Fprintf(os.Stderr, "figures: %s\n", rec.SummaryLine())
	}
	return 0
}

// fail reports a run-ending error and maps it to the exit code: 130 for a
// clean cancellation (the shell convention for SIGINT), 1 otherwise.
func fail(err error) int {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "figures: interrupted")
		return 130
	}
	fmt.Fprintf(os.Stderr, "figures: %v\n", err)
	return 1
}

// render runs one figure and prints it, or reports the failure — a failed
// cell is a diagnosis, not a stack trace.
func render(f func() (*tps.Table, error)) error {
	t, err := f()
	if err != nil {
		return err
	}
	fmt.Println(t.Render())
	return nil
}

func runAblations(r *tps.Runner) error {
	for _, f := range []func() (*tps.Table, error){
		r.AblationAliasStrategy,
		r.AblationPromotionThreshold,
		r.AblationReservationSizing,
		r.AblationTPSTLBSize,
		r.AblationSkewedTLB,
		r.AblationFiveLevel,
		r.ExtCompactionDaemon,
		r.ExtCowPolicies,
	} {
		if err := render(f); err != nil {
			return err
		}
	}
	return nil
}
