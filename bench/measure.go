package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef names one reported metric; the lists below are the metric sets
// BENCHMARK.json declares, which bench_test.go holds equal.
type metricDef struct {
	Name, Unit, Better string
}

var e2eMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"busy_s", "s", "lower"},
	{"mrefs_per_s", "Mref/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerMetrics are measured in the traced run. Layers that a workload does
// not exercise (the cycle model, the SMT scheduler, the store) report
// shares and counts, which are 0 there.
var layerMetrics = []metricDef{
	{"workload.gen_s", "s", "lower"},
	{"workload.refs", "count", "lower"},
	{"vmm.resolve_s", "s", "lower"},
	{"vmm.faults", "count", "lower"},
	{"vmm.resolve_us_per_fault", "us", "lower"},
	{"vmm.promotions", "count", "lower"},
	{"vmm.fallback_blocks", "count", "lower"},
	{"vmm.mmap_s", "s", "lower"},
	{"vmm.setup_s", "s", "lower"},
	{"vmm.collect_s", "s", "lower"},
	{"mmu.access_s", "s", "lower"},
	{"mmu.accesses", "count", "lower"},
	{"mmu.access_ns", "ns", "lower"},
	{"mmu.l1_hit_frac", "frac", "higher"},
	{"mmu.walks", "count", "lower"},
	{"mmu.walk_refs", "count", "lower"},
	{"mmu.tc_serve_frac", "frac", "higher"},
	{"cpu.cycle_frac", "frac", "lower"},
	{"sim.smt_frac", "frac", "lower"},
	{"engine.cells", "count", "lower"},
	{"engine.idle_frac", "frac", "lower"},
	{"store.puts", "count", "lower"},
	{"store.gets", "count", "lower"},
	{"store.bytes", "count", "lower"},
	{"store.hit_frac", "frac", "higher"},
	{"store.put_frac", "frac", "lower"},
	{"store.resume_frac", "frac", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "cycles", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation's settings.
type run struct {
	w       workload
	seed    int64
	seconds time.Duration
	p       int
	dir     string // figures store
	v       *verifier
	out     io.Writer
	spans   []spanRecord
}

// again reports whether another round of the given length still ends
// within the measured time.
func (r *run) again(start time.Time, last time.Duration) bool {
	return time.Since(start)+last <= r.seconds
}

// measure is the end-to-end run: whole passes until the time is up, each
// metric the median over passes.
func (r *run) measure(setup []time.Duration) map[string]float64 {
	var wall, busy, rate []float64
	start := time.Now()
	for {
		t0 := time.Now()
		ps := runPass(r.w, r.seed, r.p, r.dir)
		r.v.pass(ps)
		wall = append(wall, ps.Wall.Seconds())
		busy = append(busy, ps.Busy.Seconds())
		rate = append(rate, float64(ps.Refs)/ps.Wall.Seconds()/1e6)
		if !r.again(start, time.Since(t0)) {
			break
		}
	}
	var setupS []float64
	for _, d := range setup {
		setupS = append(setupS, d.Seconds())
	}
	fmt.Fprintf(r.out, "%d passes, wall_s %.3f; setup_s over %d set-ups\n", len(wall), wall, len(setupS))
	rss, err := peakRSSMB()
	r.v.check(err == nil, "peak RSS: %v", err)
	vals := map[string][]float64{"wall_s": wall, "busy_s": busy, "mrefs_per_s": rate, "setup_s": setupS}
	out := map[string]float64{"peak_rss_mb": rss}
	for _, d := range e2eMetrics {
		if xs, ok := vals[d.Name]; ok {
			out[d.Name] = median(xs)
			q := quartiles(xs)
			fmt.Fprintf(r.out, "%-14s %12.6g %-7s [q1 %.6g, q3 %.6g]\n", d.Name, out[d.Name], d.Unit, q[0], q[2])
		} else {
			fmt.Fprintf(r.out, "%-14s %12.6g %s\n", d.Name, out[d.Name], d.Unit)
		}
	}
	return out
}

// round is one traced-run round.
type round struct {
	e2e        pass
	plainWall  time.Duration // the cell list through tps.Run
	tracedWall time.Duration // the same list, functional cells traced
	tracedBusy time.Duration
	traces     []*cellTrace // traced cells and functional twins
	cyc, smt   time.Duration
}

// measureLayers is the traced run. Each round runs an end-to-end pass (the
// engine, store and runtime metrics), the cell list untraced and traced
// (the tracing overhead), and the twins of the cycle-model and SMT cells.
// Each metric is the median over rounds.
func (r *run) measureLayers() map[string]float64 {
	per, shares := map[string][]float64{}, map[string][]float64{}
	start := time.Now()
	rounds := 0
	for {
		t0 := time.Now()
		rd := r.round()
		r.spans = appendSpans(r.spans, rounds, rd.traces)
		rounds++
		for k, x := range rd.metrics(r.p) {
			per[k] = append(per[k], x)
		}
		for k, x := range rd.shares() {
			shares[k] = append(shares[k], x)
		}
		if !r.again(start, time.Since(t0)) {
			break
		}
	}
	out := map[string]float64{}
	for k, xs := range per {
		out[k] = median(xs)
	}
	fmt.Fprintf(r.out, "%d traced rounds\n", rounds)
	for _, d := range layerMetrics {
		fmt.Fprintf(r.out, "%-26s %14.6g %s\n", d.Name, out[d.Name], d.Unit)
	}
	fmt.Fprint(r.out, "share of traced busy time:")
	for _, name := range shareLayers {
		fmt.Fprintf(r.out, " %s %.1f%%", name, 100*median(shares[name]))
	}
	fmt.Fprintln(r.out)
	return out
}

func (r *run) round() round {
	var rd round
	cells := r.w.cells(r.seed)
	rd.e2e = runPass(r.w, r.seed, r.p, r.dir)
	r.v.pass(rd.e2e)

	rd.plainWall = rd.e2e.Wall
	if r.w.Figures {
		var plain []cellRun
		plain, rd.plainWall = listPass(cells, r.p, runCell)
		for _, c := range plain {
			r.v.cell(c)
		}
		r.checkFigureCells(rd.e2e.Fig.Cold, plain)
	}

	traced := make([]cellRun, len(cells))
	traces := make([]*cellTrace, len(cells))
	rd.tracedWall = closedLoop(len(cells), r.p, func(i int) {
		if cells[i].functional() {
			traced[i], traces[i] = runTraced(cells[i])
		} else {
			traced[i] = runCell(cells[i])
		}
	})
	for i, c := range traced {
		r.v.cell(c)
		if traces[i] != nil {
			rd.traces = append(rd.traces, traces[i])
		}
	}
	rd.tracedBusy = busyOf(traced)
	twins, cyc, smt := r.twins(traced)
	rd.traces = append(rd.traces, twins...)
	rd.cyc, rd.smt = cyc, smt
	return rd
}

// checkFigureCells holds the declared figures cell list to what the Runner
// computed: the Results it stored must be exactly those of the list.
func (r *run) checkFigureCells(cold *timedStore, plain []cellRun) {
	want := make([]string, len(plain))
	for i, c := range plain {
		want[i] = string(c.JSON)
	}
	sort.Strings(want)
	got := cold.sortedPayloads()
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	r.v.check(same, "figures-mini: the Runner stored %d results that differ from the %d of the declared cell list", len(got), len(want))
}

// twins measures what the cycle model and the SMT scheduler add to each
// cell that uses them: its host time minus that of its twin without the
// mechanism. The functional twin runs traced, so its layers are counted
// too; a cell using both is split through an SMT-only twin.
func (r *run) twins(runs []cellRun) (traces []*cellTrace, cyc, smt time.Duration) {
	type pair struct {
		run       cellRun
		fun, both int // indexes into jobs; both is -1 unless SMT and cycle model
	}
	var pairs []pair
	var jobs []cell
	for _, c := range runs {
		if c.Cell.functional() {
			continue
		}
		pr := pair{run: c, fun: len(jobs), both: -1}
		f := c.Cell
		f.SMT, f.Cyc = false, false
		jobs = append(jobs, f)
		if c.Cell.SMT && c.Cell.Cyc {
			s := c.Cell
			s.Cyc = false
			pr.both = len(jobs)
			jobs = append(jobs, s)
		}
		pairs = append(pairs, pr)
	}
	out := make([]cellRun, len(jobs))
	trs := make([]*cellTrace, len(jobs))
	closedLoop(len(jobs), r.p, func(i int) {
		if jobs[i].functional() {
			out[i], trs[i] = runTraced(jobs[i])
		} else {
			out[i] = runCell(jobs[i])
		}
	})
	for i := range out {
		if out[i].Err != nil {
			r.v.check(false, "twin %v", out[i].Err)
		}
		if trs[i] != nil {
			traces = append(traces, trs[i])
		}
	}
	for _, pr := range pairs {
		t, f := pr.run.dur(), out[pr.fun].dur()
		switch {
		case pr.both >= 0:
			s := out[pr.both].dur()
			cyc += t - s
			smt += s - f
		case pr.run.Cell.Cyc:
			cyc += t - f
		default:
			smt += t - f
		}
	}
	return traces, cyc, smt
}

// metrics computes one round's per-layer metrics.
func (rd round) metrics(p int) map[string]float64 {
	var gen, setup, mmap, access, resolve, collect time.Duration
	var resolves, refs, faults, promos, fallback, acc, l1, walks, walkRefs, tc uint64
	for _, t := range rd.traces {
		gen += t.Gen.Busy
		setup += t.Setup.Busy
		mmap += t.Mmap.Busy
		access += t.Access.Busy
		resolve += t.Resolve.Busy
		collect += t.Collect.Busy
		resolves += t.Resolve.Calls
		refs += t.Refs
		faults += t.OS.Faults
		promos += t.OS.Promotions
		fallback += t.OS.FallbackBlocks
		acc += t.MMU.Accesses
		l1 += t.MMU.L1Hits
		walks += t.MMU.Walks
		walkRefs += t.MMU.WalkRefs
		tc += t.TCServes
	}
	e := rd.e2e
	m := map[string]float64{
		"workload.gen_s":           gen.Seconds(),
		"workload.refs":            float64(e.Refs),
		"vmm.resolve_s":            resolve.Seconds(),
		"vmm.faults":               float64(faults),
		"vmm.resolve_us_per_fault": ratio(resolve.Seconds()*1e6, float64(resolves)),
		"vmm.promotions":           float64(promos),
		"vmm.fallback_blocks":      float64(fallback),
		"vmm.mmap_s":               mmap.Seconds(),
		"vmm.setup_s":              setup.Seconds(),
		"vmm.collect_s":            collect.Seconds(),
		"mmu.access_s":             access.Seconds(),
		"mmu.accesses":             float64(acc),
		"mmu.access_ns":            ratio(access.Seconds()*1e9, float64(refs)),
		"mmu.l1_hit_frac":          ratio(float64(l1), float64(acc)),
		"mmu.walks":                float64(walks),
		"mmu.walk_refs":            float64(walkRefs),
		"mmu.tc_serve_frac":        ratio(float64(tc), float64(acc)),
		"cpu.cycle_frac":           ratio(rd.cyc.Seconds(), rd.tracedBusy.Seconds()),
		"sim.smt_frac":             ratio(rd.smt.Seconds(), rd.tracedBusy.Seconds()),
		"engine.cells":             float64(len(e.Runs)),
		"engine.idle_frac":         1 - ratio(e.Busy.Seconds(), float64(p)*e.Wall.Seconds()),
		"store.puts":               0,
		"store.gets":               0,
		"store.bytes":              0,
		"store.hit_frac":           0,
		"store.put_frac":           0,
		"store.resume_frac":        0,
		"runtime.gc_cpu_frac":      ratio(e.GC.gcCPU, e.GC.totalCPU-e.GC.idleCPU),
		"runtime.alloc_mb":         float64(e.GC.allocBytes) / (1 << 20),
		"runtime.gc_cycles":        float64(e.GC.cycles),
		"trace.overhead_frac":      ratio(rd.tracedWall.Seconds(), rd.plainWall.Seconds()) - 1,
	}
	if f := e.Fig; f != nil {
		m["engine.cells"] = float64(f.Cold.puts)
		m["store.puts"] = float64(f.Cold.puts + f.Resume.puts)
		m["store.gets"] = float64(f.Cold.gets + f.Resume.gets)
		m["store.bytes"] = float64(f.Cold.bytes)
		m["store.hit_frac"] = ratio(float64(f.Resume.hits), float64(f.Resume.gets))
		m["store.put_frac"] = ratio(f.Cold.putTime.Seconds(), e.Busy.Seconds())
		m["store.resume_frac"] = ratio(f.ResumeWall.Seconds(), f.ColdWall.Seconds())
	}
	return m
}

// shareLayers are the layers whose self times add up to the traced busy
// time, apart from the harness's own share.
var shareLayers = []string{"workload.gen", "vmm.setup", "vmm.mmap", "vmm.resolve", "vmm.collect", "mmu.access", "cpu.cycle", "sim.smt"}

// shares returns each layer's share of the round's traced busy time: the
// breakdown the workloads are designed to separate.
func (rd round) shares() map[string]float64 {
	secs := map[string]time.Duration{"cpu.cycle": rd.cyc, "sim.smt": rd.smt}
	for _, t := range rd.traces {
		for name, c := range t.layerClocks() {
			secs[name] += c.Busy
		}
	}
	out := map[string]float64{}
	for _, name := range shareLayers {
		out[name] = ratio(secs[name].Seconds(), rd.tracedBusy.Seconds())
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n < 2 {
		if n == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
