// Command tpsreport renders observability files from figures / tpsfarm /
// tpsworker runs into post-run accounting:
//
//   - An events JSONL file (figures -events, tpsworker -events, tpsfarm
//     -events) becomes a per-cell duration/status table (slowest first)
//     plus store-hit-rate, dedup, retry, and quarantine summaries.
//   - A span trace (figures -spans, tpsfarm -trace) becomes a cell
//     timeline, the run's critical path (run → latest-ending cell → its
//     last attempt), and straggler attribution — which
//     workers' grants expired or were superseded, and how much wall
//     clock the fleet lost to them.
//
// Every line is validated against its schema while reading: a malformed
// or unknown-field line is an error with its 1-based line number, not a
// silent skip. -strict=false downgrades that to skip-and-count on
// stderr, for salvaging a file truncated by a crash mid-line.
//
// Usage:
//
//	figures -all -events run.jsonl
//	tpsreport run.jsonl                    # summary + 10 slowest cells
//	tpsreport -slowest 25 run.jsonl
//	tpsreport -cells run.jsonl             # every settled cell, slowest first
//
//	tpsfarm ... -trace trace.jsonl
//	tpsreport -spans trace.jsonl -timeline # gantt + critical path + stragglers
//	tpsreport -spans trace.jsonl -chrome trace.json   # chrome://tracing
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"tps"
	"tps/internal/telemetry"
	"tps/internal/telemetry/span"
)

// cell accumulates one cell's lifecycle from its event stream.
type cell struct {
	key      string
	workload string
	setup    string // display label
	scheme   string // stable registry name
	variant  string // "" for a plain cell
	status   string // finished / failed / store-hit / "" (still running at EOF)
	dur      time.Duration
	worker   int
	retries  int
	refs     uint64
	err      string
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		slowest  = flag.Int("slowest", 10, "how many slowest cells to list")
		allCells = flag.Bool("cells", false, "list every settled cell instead of only the slowest")
		strict   = flag.Bool("strict", true, "fail on the first malformed JSONL line with its line number; =false skips malformed lines and counts them on stderr")
		spansIn  = flag.String("spans", "", "read a span trace (figures -spans, tpsfarm -trace) and render fleet views from it")
		timeline = flag.Bool("timeline", false, "with -spans: render the cell timeline, critical path, and straggler attribution")
		chrome   = flag.String("chrome", "", "with -spans: export the trace as Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
	)
	flag.Parse()
	if *spansIn == "" && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tpsreport [-slowest N] [-cells] [-strict=false] EVENTS.jsonl")
		fmt.Fprintln(os.Stderr, "       tpsreport -spans TRACE.jsonl [-timeline] [-chrome OUT.json]")
		return 2
	}
	if (*timeline || *chrome != "") && *spansIn == "" {
		fmt.Fprintln(os.Stderr, "tpsreport: -timeline and -chrome need -spans TRACE.jsonl")
		return 2
	}

	if *spansIn != "" {
		spans, code := loadSpans(*spansIn, *strict)
		if code != 0 {
			return code
		}
		if *chrome != "" {
			f, err := os.Create(*chrome)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpsreport: %v\n", err)
				return 1
			}
			err = span.ChromeTrace(f, spans)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpsreport: chrome export: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "tpsreport: wrote %d spans to %s\n", len(spans), *chrome)
		}
		// A -spans invocation with no view selected defaults to the
		// timeline — the file was given to be looked at.
		if *timeline || *chrome == "" {
			renderTimeline(spans)
		}
	}

	if flag.NArg() == 1 {
		return eventsReport(flag.Arg(0), *strict, *slowest, *allCells)
	}
	return 0
}

// loadSpans reads a span trace honoring -strict; the int is the exit
// code (0 = ok).
func loadSpans(path string, strict bool) ([]span.Span, int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpsreport: %v\n", err)
		return nil, 1
	}
	defer f.Close()
	if strict {
		spans, err := span.ReadSpans(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpsreport: %s: %v\n", path, err)
			return nil, 1
		}
		return spans, 0
	}
	var spans []span.Span
	skipped, err := scanLenient(f, func(raw []byte) error {
		s, err := span.ParseSpan(raw)
		if err == nil {
			spans = append(spans, s)
		}
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpsreport: %s: %v\n", path, err)
		return nil, 1
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "tpsreport: %s: skipped %d malformed line(s)\n", path, skipped)
	}
	return spans, 0
}

// scanLenient feeds each nonblank line to parse, counting failures
// instead of propagating them; only I/O errors are returned.
func scanLenient(r io.Reader, parse func([]byte) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	skipped := 0
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if parse(raw) != nil {
			skipped++
		}
	}
	return skipped, sc.Err()
}

// renderTimeline prints the fleet views of one span trace: a start-
// ordered cell gantt, the run's critical path, and straggler
// attribution from the coordinator's grant records. The "Critical path"
// and "Straggler" headings always print, even over an empty or
// cell-less trace, so scripted checks can anchor on them.
func renderTimeline(spans []span.Span) {
	var run *span.Span
	var cells []span.Span
	leases := map[string][]span.Span{}   // keyed by parent cell span ID
	attempts := map[string][]span.Span{} // keyed by parent cell span ID
	for i := range spans {
		s := spans[i]
		switch s.Kind {
		case span.KindRun:
			if run == nil {
				run = &spans[i]
			}
		case span.KindCell:
			cells = append(cells, s)
		case span.KindLease:
			leases[s.Parent] = append(leases[s.Parent], s)
		case span.KindAttempt:
			attempts[s.Parent] = append(attempts[s.Parent], s)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].StartNS != cells[j].StartNS {
			return cells[i].StartNS < cells[j].StartNS
		}
		return cells[i].Name < cells[j].Name
	})

	// The render window: the run span when present, widened to the
	// extent of whatever spans exist (cross-host skew can leak past it).
	var t0, t1 int64
	if run != nil {
		t0, t1 = run.StartNS, run.EndNS
	}
	for _, s := range spans {
		if t0 == 0 || (s.StartNS != 0 && s.StartNS < t0) {
			t0 = s.StartNS
		}
		if s.EndNS > t1 {
			t1 = s.EndNS
		}
	}

	fmt.Printf("Timeline: %d cells over %s\n", len(cells), fmtDur(t1-t0))
	const width = 40
	for _, c := range cells {
		end := effEnd(c, t1)
		extra := ""
		if n := len(leases[c.ID]); n > 1 {
			extra = fmt.Sprintf(" (%d grants)", n)
		}
		fmt.Printf("  %-26s %-12s %9s  |%s|%s\n",
			c.Name, c.Outcome, fmtDur(end-c.StartNS),
			ganttBar(c.StartNS, end, t0, t1, width), extra)
	}

	fmt.Println()
	fmt.Println("Critical path:")
	if len(cells) == 0 {
		fmt.Println("  (no cell spans)")
	} else {
		if run != nil {
			fmt.Printf("  run      %-28s %9s\n", run.Name, fmtDur(run.EndNS-run.StartNS))
		}
		// The cell that ends last bounds the run's wall clock; inside
		// it, the last-ending attempt.
		last := cells[0]
		for _, c := range cells[1:] {
			if effEnd(c, t1) > effEnd(last, t1) {
				last = c
			}
		}
		fmt.Printf("  cell     %-28s %9s  +%s %s\n",
			last.Name, fmtDur(effEnd(last, t1)-last.StartNS), fmtDur(last.StartNS-t0), last.Outcome)
		if as := attempts[last.ID]; len(as) > 0 {
			a := as[0]
			for _, s := range as[1:] {
				if effEnd(s, t1) > effEnd(a, t1) {
					a = s
				}
			}
			fmt.Printf("  attempt  on %-25s %9s  +%s gen %d\n",
				a.Worker, fmtDur(effEnd(a, t1)-a.StartNS), fmtDur(a.StartNS-t0), a.Gen)
		}
	}

	fmt.Println()
	fmt.Println("Straggler attribution:")
	var wasted int64
	stragglers := 0
	for _, c := range cells {
		gs := append([]span.Span(nil), leases[c.ID]...)
		interesting := len(gs) > 1
		for _, g := range gs {
			if g.Outcome == span.OutcomeExpired || g.Outcome == span.OutcomeSuperseded || g.Outcome == span.OutcomeFailed {
				interesting = true
			}
		}
		if !interesting {
			continue
		}
		stragglers++
		sort.Slice(gs, func(i, j int) bool { return gs[i].Gen < gs[j].Gen })
		var lost int64
		for _, g := range gs {
			if g.Outcome != span.OutcomeCompleted && g.Outcome != span.OutcomeLive {
				lost += effEnd(g, t1) - g.StartNS
			}
		}
		wasted += lost
		fmt.Printf("  %-26s %d grants, %s lost\n", c.Name, len(gs), fmtDur(lost))
		for _, g := range gs {
			fmt.Printf("      g%-3d %-18s %-12s %9s\n",
				g.Gen, g.Worker, g.Outcome, fmtDur(effEnd(g, t1)-g.StartNS))
		}
	}
	if stragglers == 0 {
		fmt.Println("  none — every granted cell settled on its first grant")
	} else {
		fmt.Printf("  total: %d straggling cell(s), %s of abandoned grant time\n", stragglers, fmtDur(wasted))
	}
	fmt.Println()
}

// effEnd is a span's end, treating still-open spans as ending at the
// trace horizon.
func effEnd(s span.Span, horizon int64) int64 {
	if s.EndNS == 0 {
		return horizon
	}
	return s.EndNS
}

// ganttBar renders one span as a fixed-width bar inside [t0, t1]. The
// fill is offset-scaled with a minimum of one cell, so even a
// store-seeded zero-duration span is visible.
func ganttBar(start, end, t0, t1 int64, width int) string {
	b := []rune(strings.Repeat("·", width))
	if t1 <= t0 {
		return string(b)
	}
	scale := float64(width) / float64(t1-t0)
	lo := int(float64(start-t0) * scale)
	hi := int(float64(end-t0) * scale)
	if lo < 0 {
		lo = 0
	}
	if lo > width-1 {
		lo = width - 1
	}
	if hi < lo {
		hi = lo
	}
	if hi > width-1 {
		hi = width - 1
	}
	for i := lo; i <= hi; i++ {
		b[i] = '█'
	}
	return string(b)
}

// fmtDur rounds a nanosecond interval for the timeline tables.
func fmtDur(ns int64) string {
	if ns < 0 {
		ns = 0
	}
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.String()
}

// eventsReport renders the per-cell accounting of one events JSONL file.
func eventsReport(path string, strict bool, slowest int, allCells bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpsreport: %v\n", err)
		return 1
	}
	defer f.Close()
	var events []telemetry.Event
	if strict {
		events, err = telemetry.ReadEvents(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpsreport: %s: %v\n", path, err)
			return 1
		}
	} else {
		skipped, err := scanLenient(f, func(raw []byte) error {
			ev, perr := telemetry.ParseEvent(raw)
			if perr == nil {
				events = append(events, ev)
			}
			return perr
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpsreport: %s: %v\n", path, err)
			return 1
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "tpsreport: %s: skipped %d malformed line(s)\n", path, skipped)
		}
	}
	if len(events) == 0 {
		fmt.Fprintln(os.Stderr, "tpsreport: no events")
		return 1
	}

	cells := map[string]*cell{}
	get := func(ev telemetry.Event) *cell {
		c, ok := cells[ev.Cell]
		if !ok {
			c = &cell{key: ev.Cell, worker: -1}
			cells[ev.Cell] = c
		}
		if ev.Workload != "" {
			c.workload, c.setup = ev.Workload, ev.Setup
		}
		if ev.Scheme != "" {
			c.scheme = ev.Scheme
		}
		if ev.Variant != "" {
			c.variant = ev.Variant
		}
		return c
	}
	var dedup, quarantined, leaseEvents int
	var span int64
	for _, ev := range events {
		if ev.TNS > span {
			span = ev.TNS
		}
		switch ev.Event {
		case telemetry.EventDedupJoined:
			dedup++
		case telemetry.EventQuarantined:
			quarantined++
		case telemetry.EventQueued:
			get(ev)
		case telemetry.EventStarted:
			get(ev).worker = ev.Worker
		case telemetry.EventRetried:
			get(ev).retries++
		case telemetry.EventStoreHit, telemetry.EventFinished, telemetry.EventFailed:
			c := get(ev)
			c.status = ev.Event
			c.dur = time.Duration(ev.DurNS)
			c.worker = ev.Worker
			c.err = ev.Error
			if ev.Counters != nil {
				c.refs = ev.Counters.Refs
			}
		default:
			// Fleet lease-protocol events interleave in farm/worker
			// files; they are counted, not per-cell lifecycle state.
			if strings.HasPrefix(ev.Event, "lease-") {
				leaseEvents++
			}
		}
	}

	var settled []*cell
	var computed, hits, failed, running int
	var wall time.Duration
	for _, c := range cells {
		switch c.status {
		case telemetry.EventFinished:
			computed++
		case telemetry.EventStoreHit:
			hits++
		case telemetry.EventFailed:
			failed++
		default:
			running++
			continue
		}
		settled = append(settled, c)
		wall += c.dur
	}
	sort.Slice(settled, func(i, j int) bool {
		if settled[i].dur != settled[j].dur {
			return settled[i].dur > settled[j].dur
		}
		return settled[i].key < settled[j].key
	})

	sum := &tps.Table{
		Title:  fmt.Sprintf("Run report: %s", path),
		Header: []string{"metric", "value"},
	}
	sum.AddRow("events", fmt.Sprintf("%d", len(events)))
	sum.AddRow("event span", time.Duration(span).Round(time.Millisecond).String())
	sum.AddRow("cells settled", fmt.Sprintf("%d", len(settled)))
	sum.AddRow("  computed", fmt.Sprintf("%d", computed))
	sum.AddRow("  store hits", fmt.Sprintf("%d", hits))
	sum.AddRow("  failed", fmt.Sprintf("%d", failed))
	if running > 0 {
		sum.AddRow("  unsettled at EOF", fmt.Sprintf("%d", running))
	}
	if hits+computed > 0 {
		sum.AddRow("store hit rate", fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+computed)))
	}
	sum.AddRow("dedup joins", fmt.Sprintf("%d", dedup))
	sum.AddRow("quarantined entries", fmt.Sprintf("%d", quarantined))
	if leaseEvents > 0 {
		sum.AddRow("lease events", fmt.Sprintf("%d", leaseEvents))
	}
	sum.AddRow("cell wall clock (sum)", wall.Round(time.Millisecond).String())
	fmt.Println(sum.Render())

	n := slowest
	if allCells || n > len(settled) {
		n = len(settled)
	}
	if n == 0 {
		return 0
	}
	title := fmt.Sprintf("Slowest %d cells", n)
	if allCells {
		title = "Settled cells (slowest first)"
	}
	tbl := &tps.Table{
		Title:  title,
		Header: []string{"workload", "scheme", "variant", "status", "wall", "worker", "refs", "cell"},
	}
	for _, c := range settled[:n] {
		status := c.status
		if c.retries > 0 {
			status = fmt.Sprintf("%s (%d retries)", status, c.retries)
		}
		refs := ""
		if c.refs > 0 {
			refs = fmt.Sprintf("%d", c.refs)
		}
		// Prefer the stable scheme name; events from pre-scheme files
		// only carry the display label.
		scheme := c.scheme
		if scheme == "" {
			scheme = c.setup
		}
		tbl.AddRow(c.workload, scheme, c.variant, status,
			c.dur.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", c.worker), refs, c.key[:12])
	}
	for _, c := range settled[:n] {
		if c.err != "" {
			tbl.Notes = append(tbl.Notes, fmt.Sprintf("%s/%s failed: %s", c.workload, c.setup, c.err))
		}
	}
	fmt.Println(tbl.Render())
	return 0
}
