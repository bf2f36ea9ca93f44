package tps

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"tps/internal/addr"
	"tps/internal/buddy"
	"tps/internal/fragstate"
	"tps/internal/mmu"
	"tps/internal/pagetable"
	"tps/internal/store"
	"tps/internal/telemetry"
	"tps/internal/telemetry/series"
	"tps/internal/vmm"
)

// FigureConfig scales the evaluation: Refs is the measured (post-warmup)
// reference count per run. The paper's PIN traces run benchmarks to
// completion; the reproduction's generators are stationary after warmup,
// so a fixed reference budget samples the same steady state.
type FigureConfig struct {
	Refs        uint64 // default 1 << 20
	Seed        int64
	MemoryPages uint64     // default 1 << 22 (16 GB)
	Suite       []Workload // default EvalSuite()
	// Parallelism bounds how many simulations run concurrently; 0 (the
	// default) uses GOMAXPROCS, 1 reproduces the serial runner. Rendered
	// output is byte-identical at any setting: each cell is an
	// independent deterministic machine and tables assemble serially.
	Parallelism int
	// Progress, when set, streams each table's rows there as their cells
	// land (cmd/figures points it at stderr), so long runs show progress
	// instead of going silent. Prefetch becomes fire-and-forget and the
	// serial assembly blocks per cell in row order; the rendered output
	// is still byte-identical — only the live view is new.
	Progress io.Writer

	// Context, when set, cancels the run: waiters release immediately,
	// queued cells never start, and in-flight simulations observe the
	// cancellation inside their reference loops and return its error
	// within a few thousand references. nil means never canceled.
	Context context.Context

	// Store, when set, persists every settled cell content-addressed
	// (see internal/store) and consults it before running, so a killed
	// run resumes with only its unsettled cells recomputed. Store
	// failures degrade to in-memory-only operation with one warning —
	// durability problems never fail a run. Rendered output is
	// byte-identical whether a cell was computed or replayed.
	Store store.Interface

	// CellTimeout bounds each cell's wall-clock execution; 0 means no
	// per-cell deadline. An expired cell fails its figure with
	// context.DeadlineExceeded without affecting sibling cells.
	CellTimeout time.Duration

	// Retries re-runs a failed cell up to N additional times under a
	// capped exponential backoff starting at RetryBackoff (default
	// 50 ms, doubling, capped at 2 s). The default 0 never retries:
	// simulation errors are deterministic. Opt in for environments with
	// transient I/O failures. Panics (CellError) and cancellation are
	// never retried.
	Retries      int
	RetryBackoff time.Duration

	// Warnf receives non-fatal robustness warnings (store degradation);
	// the default writes one line to stderr.
	Warnf func(format string, args ...any)

	// Telemetry, when set, observes the run: per-cell lifecycle events,
	// live metrics (cells done/total, refs/sec, per-worker state), and
	// the material for an end-of-run manifest — see internal/telemetry
	// and cmd/figures -events/-listen/-manifest. nil (the default) is
	// fully disabled: the hot path is bit-identical and allocation-free,
	// and rendered output is byte-identical in either mode.
	Telemetry *telemetry.Recorder

	// Series, when set, receives every computed cell's epoch-sampled
	// counter time-series (internal/telemetry/series) — the per-epoch
	// TLB miss rates, walk depths, promotion cascade, and page-size
	// census the end-state tables cannot show. SeriesEvery is the
	// sampling interval in references (default series.DefaultEvery).
	// Sampling reads counters at batch boundaries only, so rendered
	// output and modeled statistics are byte-identical with it on or
	// off; it is NOT part of the cell fingerprint, and store-replayed
	// cells emit no series (a replay runs zero references).
	Series      *series.Log
	SeriesEvery uint64
}

func (c FigureConfig) withDefaults() FigureConfig {
	if c.Refs == 0 {
		c.Refs = 1 << 20
	}
	if c.MemoryPages == 0 {
		c.MemoryPages = 1 << 22
	}
	if c.Suite == nil {
		c.Suite = EvalSuite()
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	if c.Warnf == nil {
		c.Warnf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return c
}

// Runner executes and memoizes simulation runs across figures, so a full
// reproduction (cmd/figures -all) runs each configuration once. Cells fan
// out across a worker pool (FigureConfig.Parallelism) with singleflight
// deduplication; all methods are safe for concurrent use.
type Runner struct {
	cfg FigureConfig
	eng *engine
}

// runKey identifies one simulation cell. It fingerprints every Options
// field the figures, ablations, and extensions vary, so the cache can
// share cells across all of them (e.g. the plain TPS run appears in
// Figs. 10/11/18 and several ablations, and executes once).
type runKey struct {
	name                 string
	setup                Setup
	smt, virt, frag, cyc bool

	// Ablation/extension knobs (zero for the standard figure cells).
	threshold    float64
	sizing       vmm.Sizing
	alias        pagetable.AliasStrategy
	compactFail  bool
	levels       int
	tlbEntries   int
	skewed       bool
	compactEvery uint64
}

// NewRunner creates a Runner for the configuration.
func NewRunner(cfg FigureConfig) *Runner {
	cfg = cfg.withDefaults()
	return &Runner{cfg: cfg, eng: newEngine(cfg)}
}

// ctxErr reports the Runner's cancellation state. Figure methods check it
// before fanning out their warm-goroutine grids, so a canceled -all run
// stops launching work between figures instead of spawning fleets of
// immediately-failing cells.
func (r *Runner) ctxErr() error { return r.cfg.Context.Err() }

// stream attaches the Runner's progress writer (if any) to a freshly
// constructed table, announcing its title so the live view shows which
// figure the subsequently streamed rows belong to. With telemetry
// attached, each streamed row also carries the live run status
// (cells done/total, store hits, ETA); stdout is unaffected either way.
func (r *Runner) stream(t *Table) {
	if w := r.cfg.Progress; w != nil {
		t.Stream = w
		if rec := r.cfg.Telemetry; rec != nil {
			t.StreamNote = rec.ProgressNote
		}
		fmt.Fprintf(w, "%s\n", t.Title)
	}
}

type runFlags struct{ smt, virt, frag, cyc bool }

func (r *Runner) run(w Workload, setup Setup, f runFlags) (Result, error) {
	opts := Options{
		Setup:       setup,
		Refs:        r.cfg.Refs,
		Seed:        r.cfg.Seed,
		MemoryPages: r.cfg.MemoryPages,
		SMT:         f.smt,
		Virtualized: f.virt,
		CycleModel:  f.cyc,
	}
	return r.runOpts(w, opts, f.frag)
}

// runOpts keys the options, dedupes against in-flight and completed runs,
// and executes under the worker pool. frag selects the standard fragmented
// initial state (Options.PreFragment is a function and cannot be keyed).
func (r *Runner) runOpts(w Workload, opts Options, frag bool) (Result, error) {
	key := runKey{
		name: w.Name, setup: opts.Setup,
		smt: opts.SMT, virt: opts.Virtualized, frag: frag, cyc: opts.CycleModel,
		threshold: opts.PromotionThreshold, sizing: opts.Sizing,
		alias: opts.AliasStrategy, compactFail: opts.CompactOnFailure,
		levels: opts.Levels, tlbEntries: opts.TPSTLBEntries,
		skewed: opts.TPSTLBSkewed, compactEvery: opts.CompactEvery,
	}
	if frag {
		opts.PreFragment = fragstate.PreFragment(fragstate.DefaultParams())
	}
	return r.eng.do(r.cfg.Context, key, func(ctx context.Context, onRefs func(uint64)) (Result, error) {
		opts.Context = ctx
		opts.OnRefs = onRefs
		if sink := r.cfg.Series; sink != nil {
			opts.SeriesEvery = r.cfg.SeriesEvery
			if opts.SeriesEvery == 0 {
				opts.SeriesEvery = series.DefaultEvery
			}
			meta := series.Meta{Workload: w.Name, Scheme: opts.Setup.SchemeName(),
				Seed: opts.Seed}
			opts.OnSeries = func(pts []series.Point, every uint64) {
				sink.WriteCell(meta, every, pts)
			}
		}
		res, err := Run(w, opts)
		if err != nil {
			return Result{}, fmt.Errorf("run %s/%v: %w", w.Name, opts.Setup, err)
		}
		return res, nil
	})
}

// SchemesByName resolves scheme-registry names to Setups, failing on the
// first unknown name with the registered vocabulary in the error — the
// CLIs surface it verbatim, so a typo never falls through to a default.
func SchemesByName(names []string) ([]Setup, error) {
	out := make([]Setup, 0, len(names))
	for _, n := range names {
		s, ok := SetupByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q (registered: %s)",
				n, strings.Join(SchemeNames(), ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// SchemeGrid runs every given scheme against every suite workload and
// renders one comparison grid. Each cell is "L1MPKI/walkKI": L1 DTLB
// misses and page-walk memory references, both per thousand instructions —
// the two axes the paper's Figs. 10 and 11 compare mechanisms on, here
// side by side for an arbitrary scheme set (including registered backends
// the paper predates, like svnapot).
func (r *Runner) SchemeGrid(setups []Setup) (*Table, error) {
	t := SchemeGridTable(setups)
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, setups)
	return FillSchemeGrid(t, r.cfg.Suite, setups, func(w Workload, s Setup) (Result, error) {
		return r.run(w, s, runFlags{})
	})
}

// SchemeGridTable builds the empty comparison-grid table for the given
// scheme set: title, headers, notes, no rows. Split out of SchemeGrid so
// cmd/tpsfarm can assemble the byte-identical grid from fleet-computed
// results — one formatting implementation, however the cells were run.
func SchemeGridTable(setups []Setup) *Table {
	t := &Table{
		Title:  "Scheme Comparison Grid: L1 DTLB MPKI / Page-Walk Memory References per 1k Instructions",
		Header: []string{"benchmark"},
		Notes:  []string{"cell format: L1MPKI/walkKI (lower is better for both)"},
	}
	for _, s := range setups {
		t.Header = append(t.Header, s.String())
	}
	return t
}

// FillSchemeGrid assembles the comparison grid into t by pulling each
// (workload, setup) cell from get in row-major order — the Runner passes
// its memoizing run method, the fleet coordinator passes a blocking
// wait-for-completion getter. Rows flush to t.Stream as they complete, so
// a streaming caller sees rows the moment their cells land.
func FillSchemeGrid(t *Table, suite []Workload, setups []Setup, get func(Workload, Setup) (Result, error)) (*Table, error) {
	sums := make([][2]float64, len(setups))
	for _, w := range suite {
		row := []string{w.Name}
		for i, s := range setups {
			res, err := get(w, s)
			if err != nil {
				return nil, err
			}
			walkKI := safeDiv(float64(res.WalkMemRefs), float64(res.Instructions)/1000)
			sums[i][0] += res.L1MPKI
			sums[i][1] += walkKI
			row = append(row, f2(res.L1MPKI)+"/"+f2(walkKI))
		}
		t.AddRow(row...)
	}
	n := float64(len(suite))
	avg := []string{"average"}
	for i := range setups {
		avg = append(avg, f2(sums[i][0]/n)+"/"+f2(sums[i][1]/n))
	}
	t.AddRow(avg...)
	return t, nil
}

// elim returns the eliminated fraction, clamped at zero as in the paper
// ("RMM eliminates no L1 DTLB misses").
func elim(baseline, mech uint64) float64 {
	if baseline == 0 {
		return 0
	}
	e := 1 - float64(mech)/float64(baseline)
	if e < 0 {
		return 0
	}
	return e
}

// TableI renders the simulated processor configuration.
func TableI() *Table {
	t := &Table{
		Title:  "Table I: Simulated Processor Configuration",
		Header: []string{"Component", "Configuration"},
	}
	t.AddRow("Core", "4-Wide Issue, 256 Entry ROB, 3.2 GHz Clock Rate")
	t.AddRow("L1 Caches", "32 KB I$, 32 KB D$, 64 Byte Cache Lines, 4 Cycle Latency, 8-way Set Associative")
	t.AddRow("Last Level Cache", "2MB, 16-way Set Associative, 64 Byte Cache Lines, 10-cycle Latency")
	t.AddRow("TLBs", "128 4k + 8 2M L1ITLB; 64 4k + 32 2M + 4 1G L1DTLB; 1536 4k/2M + 16 1G STLB")
	t.AddRow("TPS change", "L1DTLB 2M/1G replaced by 32-entry fully-associative any-size TPS TLB")
	t.Notes = append(t.Notes, "data-side hierarchy is simulated; the I-side TLBs are listed for completeness")
	return t
}

// Fig2 reports the percentage of execution time spent page walking under
// reservation-based THP for native, SMT, and virtualized execution.
func (r *Runner) Fig2() (*Table, error) {
	t := &Table{
		Title:  "Figure 2: Page Walk Overhead — Percent of Execution Time Spent Page Walking (THP)",
		Header: []string{"benchmark", "native", "native+SMT", "virtualized"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupTHP},
		runFlags{cyc: true}, runFlags{cyc: true, smt: true}, runFlags{cyc: true, virt: true})
	for _, w := range r.cfg.Suite {
		nat, err := r.run(w, SetupTHP, runFlags{cyc: true})
		if err != nil {
			return nil, err
		}
		smt, err := r.run(w, SetupTHP, runFlags{cyc: true, smt: true})
		if err != nil {
			return nil, err
		}
		virt, err := r.run(w, SetupTHP, runFlags{cyc: true, virt: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name,
			pct(frac(nat.TPW(), nat.CyclesReal)),
			pct(frac(smt.TPW(), smt.CyclesReal)),
			pct(frac(virt.TPW(), virt.CyclesReal)))
	}
	return t, nil
}

// Fig3 reports the speedup of a perfect L1 TLB over a perfect L2 TLB
// baseline (cycle model, THP).
func (r *Runner) Fig3() (*Table, error) {
	t := &Table{
		Title:  "Figure 3: Speedup of Perfect L1 TLB over Perfect L2 TLB Baseline",
		Header: []string{"benchmark", "speedup"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupTHP}, runFlags{cyc: true})
	for _, w := range r.cfg.Suite {
		res, err := r.run(w, SetupTHP, runFlags{cyc: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name, f2(safeDiv(float64(res.CyclesPerfectL2), float64(res.CyclesIdeal))))
	}
	return t, nil
}

// Fig8 profiles L1 DTLB MPKI across the full catalog (THP active, as on
// the paper's profiling hardware). Benchmarks above the MPKI>5 line form
// the evaluation suite.
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{
		Title:  "Figure 8: L1 DTLB MPKI (THP active; MPKI > 5 selected for evaluation)",
		Header: []string{"benchmark", "MPKI", "selected"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	all := Workloads()
	r.warmSuite(all, []Setup{SetupTHP})
	type row struct {
		name string
		mpki float64
		sel  bool
	}
	rows := make([]row, 0, len(all))
	for _, w := range all {
		res, err := r.run(w, SetupTHP, runFlags{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{w.Name, res.L1MPKI, res.L1MPKI > 5})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].mpki > rows[j].mpki })
	for _, x := range rows {
		sel := ""
		if x.sel {
			sel = "yes"
		}
		t.AddRow(x.name, f2(x.mpki), sel)
	}
	return t, nil
}

// Fig9 reports the memory-utilization increase of exclusive 2 MB pages
// over exclusive 4 KB pages.
func (r *Runner) Fig9() (*Table, error) {
	t := &Table{
		Title:  "Figure 9: Increase in Memory Utilization with Exclusive 2MB Pages",
		Header: []string{"benchmark", "4K pages", "2M-only pages", "increase"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupBase4K, Setup2MOnly})
	for _, w := range r.cfg.Suite {
		four, err := r.run(w, SetupBase4K, runFlags{})
		if err != nil {
			return nil, err
		}
		two, err := r.run(w, Setup2MOnly, runFlags{})
		if err != nil {
			return nil, err
		}
		inc := safeDiv(float64(two.MappedPages), float64(four.DemandPages)) - 1
		t.AddRow(w.Name,
			fmt.Sprintf("%d", four.DemandPages),
			fmt.Sprintf("%d", two.MappedPages),
			pct(inc))
	}
	return t, nil
}

// Fig10 reports the percentage of L1 DTLB misses eliminated by TPS, CoLT
// and RMM relative to the reservation-based THP baseline.
func (r *Runner) Fig10() (*Table, error) {
	t := &Table{
		Title:  "Figure 10: L1 DTLB Misses Eliminated (Baseline: Reservation-based THP)",
		Header: []string{"benchmark", "TPS", "CoLT", "RMM"},
		Notes:  []string{"negative eliminations clamp to 0, as in the paper's RMM discussion"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupTHP, SetupTPS, SetupCoLT, SetupRMM})
	var sums [3]float64
	for _, w := range r.cfg.Suite {
		thp, err := r.run(w, SetupTHP, runFlags{})
		if err != nil {
			return nil, err
		}
		var vals [3]float64
		for i, setup := range []Setup{SetupTPS, SetupCoLT, SetupRMM} {
			mech, err := r.run(w, setup, runFlags{})
			if err != nil {
				return nil, err
			}
			vals[i] = elim(thp.MMU.L1Misses, mech.MMU.L1Misses)
			sums[i] += vals[i]
		}
		t.AddRow(w.Name, pct(vals[0]), pct(vals[1]), pct(vals[2]))
	}
	n := float64(len(r.cfg.Suite))
	t.AddRow("average", pct(sums[0]/n), pct(sums[1]/n), pct(sums[2]/n))
	return t, nil
}

// Fig11 reports the percentage of page-walk memory references eliminated
// by TPS, RMM, CoLT, and eager-paging TPS relative to the THP baseline.
func (r *Runner) Fig11() (*Table, error) {
	t := &Table{
		Title:  "Figure 11: Page Walk Memory References Eliminated (Baseline: Reservation-based THP)",
		Header: []string{"benchmark", "TPS", "RMM", "CoLT", "TPS-eager"},
		Notes:  []string{"RMM range-walker fetches count as walk references"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupTHP, SetupTPS, SetupRMM, SetupCoLT, SetupTPSEager})
	var sums [4]float64
	for _, w := range r.cfg.Suite {
		thp, err := r.run(w, SetupTHP, runFlags{})
		if err != nil {
			return nil, err
		}
		var vals [4]float64
		for i, setup := range []Setup{SetupTPS, SetupRMM, SetupCoLT, SetupTPSEager} {
			mech, err := r.run(w, setup, runFlags{})
			if err != nil {
				return nil, err
			}
			vals[i] = elim(thp.WalkMemRefs, mech.WalkMemRefs)
			sums[i] += vals[i]
		}
		t.AddRow(w.Name, pct(vals[0]), pct(vals[1]), pct(vals[2]), pct(vals[3]))
	}
	n := float64(len(r.cfg.Suite))
	t.AddRow("average", pct(sums[0]/n), pct(sums[1]/n), pct(sums[2]/n), pct(sums[3]/n))
	return t, nil
}

// Fig12 estimates the fraction of page-walker cycle savings that
// translates into execution-time savings, from the THP-disabled vs
// THP-enabled configurations (the paper's performance-counter method,
// applied to the cycle model).
func (r *Runner) Fig12() (*Table, error) {
	t := &Table{
		Title:  "Figure 12: Savable Page Walker Cycles",
		Header: []string{"benchmark", "savable"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupBase4K, SetupTHP}, runFlags{cyc: true})
	for _, w := range r.cfg.Suite {
		d, err := r.run(w, SetupBase4K, runFlags{cyc: true}) // THP disabled
		if err != nil {
			return nil, err
		}
		e, err := r.run(w, SetupTHP, runFlags{cyc: true}) // THP enabled
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name, pct(savable(d, e)))
	}
	return t, nil
}

// savable computes (ΔTC/ΔPWC) clamped to [0,1]: how much of the raw
// page-walker-cycle reduction between the two configurations was realized
// as execution-time reduction. The out-of-order window hides part of the
// walker's busy time, so this is below 1 for overlap-friendly workloads.
func savable(disabled, enabled Result) float64 {
	dTC := float64(disabled.CyclesReal) - float64(enabled.CyclesReal)
	dPWC := float64(disabled.WalkerCycles) - float64(enabled.WalkerCycles)
	if dPWC <= 0 {
		return 1
	}
	s := dTC / dPWC
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Fig13 estimates speedup over the THP baseline for TPS, RMM and CoLT via
// the paper's decomposition T = T_IDEAL + T_L1DTLBM + T_PW, scaling the
// two overhead terms by each mechanism's measured elimination ratios.
func (r *Runner) Fig13() (*Table, error) {
	return r.speedupFigure(false,
		"Figure 13: Speedup - Native (no SMT), Baseline: Reservation-based THP")
}

// Fig14 is Fig13 under SMT co-runner interference.
func (r *Runner) Fig14() (*Table, error) {
	return r.speedupFigure(true,
		"Figure 14: Speedup - Native (SMT), Baseline: Reservation-based THP")
}

func (r *Runner) speedupFigure(smt bool, title string) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"benchmark", "TPS", "RMM", "CoLT", "ideal"},
		Notes: []string{
			"T = T_IDEAL + T_L1DTLBM + T_PW; overhead terms scaled by measured elimination ratios",
		},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupTHP}, runFlags{cyc: true, smt: smt})
	r.warmSuite(r.cfg.Suite, []Setup{SetupTHP, SetupTPS, SetupRMM, SetupCoLT}, runFlags{smt: smt})
	var sums [4]float64
	for _, w := range r.cfg.Suite {
		base, err := r.run(w, SetupTHP, runFlags{cyc: true, smt: smt})
		if err != nil {
			return nil, err
		}
		T := float64(base.CyclesReal)
		tIdeal := float64(base.CyclesIdeal)
		tL1 := float64(base.TL1DTLBM())
		tPW := float64(base.TPW())

		thpF, err := r.run(w, SetupTHP, runFlags{smt: smt})
		if err != nil {
			return nil, err
		}
		row := []string{w.Name}
		for i, setup := range []Setup{SetupTPS, SetupRMM, SetupCoLT} {
			mech, err := r.run(w, setup, runFlags{smt: smt})
			if err != nil {
				return nil, err
			}
			eL1 := elim(thpF.MMU.L1Misses, mech.MMU.L1Misses)
			ePW := elim(thpF.WalkMemRefs, mech.WalkMemRefs)
			tMech := tIdeal + tL1*(1-eL1) + tPW*(1-ePW)
			sp := safeDiv(T, tMech)
			sums[i] += sp
			row = append(row, f2(sp))
		}
		spIdeal := safeDiv(T, tIdeal)
		sums[3] += spIdeal
		row = append(row, f2(spIdeal))
		t.AddRow(row...)
	}
	n := float64(len(r.cfg.Suite))
	t.AddRow("average", f2(sums[0]/n), f2(sums[1]/n), f2(sums[2]/n), f2(sums[3]/n))
	return t, nil
}

// Fig15 reports the fraction of a fragmented system's free memory usable
// by each single page size (the /proc/buddyinfo study).
func (r *Runner) Fig15() (*Table, error) {
	t := &Table{
		Title:  "Figure 15: Free Memory Coverage by Various Page Sizes (fragmented server state)",
		Header: []string{"page size", "coverage"},
		Notes:  []string{"state produced by allocation/free churn to 35% free (see internal/fragstate)"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	bud := fragmentedAllocator(r.cfg)
	cov := bud.Coverage()
	for o := addr.Order(0); o <= addr.Order1G; o++ {
		t.AddRow(o.String(), pct(cov[o]))
	}
	return t, nil
}

// Fig16 reports L1 DTLB misses eliminated by TPS under the fragmented
// initial state (no compaction during the run).
func (r *Runner) Fig16() (*Table, error) {
	t := &Table{
		Title:  "Figure 16: L1 DTLB Misses Eliminated under High Fragmentation",
		Header: []string{"benchmark", "TPS"},
		Notes:  []string{"baseline: reservation-based THP on the same fragmented state"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupTHP, SetupTPS}, runFlags{frag: true})
	for _, w := range r.cfg.Suite {
		thp, err := r.run(w, SetupTHP, runFlags{frag: true})
		if err != nil {
			return nil, err
		}
		tpsR, err := r.run(w, SetupTPS, runFlags{frag: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name, pct(elim(thp.MMU.L1Misses, tpsR.MMU.L1Misses)))
	}
	return t, nil
}

// Fig17 reports system (OS allocator) time as a percentage of execution
// under TPS. The steady-state column is the paper-comparable number: once
// the working set is faulted in, allocator work all but vanishes (the
// paper's average is 0.16%). The whole-run column includes the
// initialization burst, which the scaled-down reference budget makes look
// far larger than it is on a full-length run.
func (r *Runner) Fig17() (*Table, error) {
	t := &Table{
		Title:  "Figure 17: Percentage of Total Execution Time Spent in System (TPS)",
		Header: []string{"benchmark", "steady state", "incl. startup"},
		Notes: []string{
			"steady state excludes the one-time fault-in/zeroing burst; the startup column is inflated by the scaled-down run length",
		},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupTPS}, runFlags{cyc: true})
	var sum float64
	for _, w := range r.cfg.Suite {
		res, err := r.run(w, SetupTPS, runFlags{cyc: true})
		if err != nil {
			return nil, err
		}
		steady := frac(res.SysCyclesMain, res.CyclesReal+res.SysCyclesMain)
		whole := frac(res.OS.SysCycles, res.CyclesReal+res.CyclesWarmup+res.OS.SysCycles)
		sum += steady
		t.AddRow(w.Name, pct(steady), pct(whole))
	}
	t.AddRow("average", pct(sum/float64(len(r.cfg.Suite))), "")
	return t, nil
}

// Fig18 reports each benchmark's page-size census under TPS.
func (r *Runner) Fig18() (*Table, error) {
	t := &Table{
		Title:  "Figure 18: TPS Per-Benchmark Page Size Counts",
		Header: []string{"benchmark"},
	}
	r.stream(t)
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	for o := addr.Order(0); o <= addr.Order1G; o++ {
		t.Header = append(t.Header, o.String())
	}
	r.warmSuite(r.cfg.Suite, []Setup{SetupTPS})
	for _, w := range r.cfg.Suite {
		res, err := r.run(w, SetupTPS, runFlags{})
		if err != nil {
			return nil, err
		}
		row := []string{w.Name}
		for o := addr.Order(0); o <= addr.Order1G; o++ {
			if n := res.Census[o]; n > 0 {
				row = append(row, fmt.Sprintf("%d", n))
			} else {
				row = append(row, ".")
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fragmentedAllocator builds the Fig. 15 initial state.
func fragmentedAllocator(cfg FigureConfig) *buddy.Allocator {
	bud := buddy.New(cfg.MemoryPages)
	fragstate.Fragment(bud, fragstate.DefaultParams())
	return bud
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mmuStatsString summarizes an MMU stat block for reports.
func mmuStatsString(s mmu.Stats) string {
	return fmt.Sprintf("acc=%d l1miss=%d stlbhit=%d walks=%d walkrefs=%d",
		s.Accesses, s.L1Misses, s.STLBHits, s.Walks, s.WalkRefs)
}
