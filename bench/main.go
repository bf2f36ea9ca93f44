// Command bench is the repository benchmark. It drives four workloads
// through the entry points users call, tps.Run for cells and tps.Runner's
// figure methods for the paper's tables, times them on the host from
// outside, and checks every simulated result against committed goldens.
// BENCHMARK.json at the repository root describes it; README.md has the
// workloads, the metrics and the baselines.
//
//	bash bench/run.sh --workload fault-cold --seed 42 --seconds 30 --trace 0
//	go run . -workload all                  # from bench/: every workload
//	go run . -workload all -trace 1         # the traced per-layer run
//	go run . -record a.jsonl; go run . -compare a.jsonl b.jsonl
//	go run . -update -seed 1042             # regenerate goldens
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupSamples is how many times a run measures its set-up.
const setupSamples = 31

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all (one process each)")
		seed      = fs.Int64("seed", 42, "workload generator seed")
		seconds   = fs.Float64("seconds", 30, "how long one workload measures, in seconds")
		traceN    = fs.Int("trace", 0, "0: the end-to-end metrics; 1: the traced run's per-layer metrics")
		workdir   = fs.String("workdir", ".bench_build", "scratch directory for result stores")
		record    = fs.String("record", "", "append each result, with its workload and seed, to this JSONL file for -compare")
		spansOut  = fs.String("spans", "", "with -trace 1, append the aggregated cell and layer spans (JSONL) to this file")
		compare   = fs.Bool("compare", false, "compare the two -record files given as arguments under the bounds of BENCHMARK.json in . or ..")
		update    = fs.Bool("update", false, "rewrite the goldens of -workload and -seed in ./testdata (run from bench/)")
		setupOnly = fs.Bool("setup-only", false, "run the set-up alone and exit: one setup_s sample")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(2)

	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*traceN != 0 && *traceN != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want -trace 0 or 1, -seconds > 0 and no arguments")
		return 2
	}
	sel := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		sel = []workload{w}
	}
	if *update {
		for _, w := range sel {
			if err := updateGolden(w, *seed, "testdata", *workdir); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		return 0
	}
	if len(sel) > 1 {
		// One process per workload, so heap and peak RSS are per workload.
		code := 0
		for _, w := range sel {
			if c := reexec(stdout, stderr, "-workload", w.Name, "-seed", strconv.FormatInt(*seed, 10),
				"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*traceN),
				"-workdir", *workdir, "-record", *record, "-spans", *spansOut); c > code {
				code = c
			}
		}
		return code
	}
	w := sel[0]
	if *setupOnly {
		if err := prepare(w, *seed, storeDir(*workdir)); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	return runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceN,
		*workdir, *record, *spansOut, stdout, stderr)
}

// reexec runs this program again with args and returns its exit code.
func reexec(stdout, stderr io.Writer, args ...string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func storeDir(workdir string) string {
	return filepath.Join(workdir, fmt.Sprintf("store-%d", os.Getpid()))
}

// prepare is the set-up before the first cell is dispatched: resolving
// every cell's workload and scheme through the registry and, for a figures
// workload, opening a fresh result store.
func prepare(w workload, seed int64, dir string) error {
	for _, c := range w.cells(seed) {
		if _, _, err := c.options(); err != nil {
			return err
		}
	}
	if !w.Figures {
		return nil
	}
	if _, err := figSuiteWorkloads(); err != nil {
		return err
	}
	if _, err := openFigStore(dir); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// measureSetup times n fresh processes from start to exit, each doing the
// set-up alone: process start, package initialization and prepare. Work
// moved into any of them shows in setup_s.
func measureSetup(w workload, seed int64, workdir string, n int) ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", w.Name,
			"-seed", strconv.FormatInt(seed, 10), "-workdir", workdir)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// record is one -record line.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	P        int    `json:"p"`
	NProc    int    `json:"nproc"`
	Verified bool   `json:"verified"`
	Result   result `json:"result"`
}

func runWorkload(w workload, seed int64, seconds time.Duration, trace int,
	workdir, recordPath, spansPath string, stdout, stderr io.Writer) int {
	traced := trace == 1
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return fail(err)
	}
	golden, err := loadGolden(w, seed)
	if err != nil {
		return fail(err)
	}
	v, err := newVerifier(w, golden)
	if err != nil {
		return fail(err)
	}
	var setup []time.Duration
	if !traced {
		if setup, err = measureSetup(w, seed, workdir, setupSamples); err != nil {
			return fail(err)
		}
	}
	dir := storeDir(workdir)
	if err := prepare(w, seed, dir); err != nil {
		return fail(err)
	}

	p := min(2, runtime.NumCPU())
	fmt.Fprintf(stdout, "workload %s  seed %d  P %d  nproc %d  GOMAXPROCS %d  verified %t\n",
		w.Name, seed, p, runtime.NumCPU(), runtime.GOMAXPROCS(0), v.verified)
	r := &run{w: w, seed: seed, seconds: seconds, p: p, dir: dir, v: v, out: stdout}
	defs := e2eMetrics
	var vals map[string]float64
	if traced {
		defs, vals = layerMetrics, r.measureLayers()
	} else {
		vals = r.measure(setup)
	}
	res := result{Correct: v.failed == 0 && v.attempted > 0, Attempted: v.attempted, Failed: v.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	for _, prob := range v.problems {
		fmt.Fprintf(stdout, "FAIL %s\n", prob)
	}

	if recordPath != "" {
		rec := record{Workload: w.Name, Seed: seed, Trace: trace, P: p, NProc: runtime.NumCPU(),
			Verified: v.verified, Result: res}
		if err := appendJSONL(recordPath, rec); err != nil {
			return fail(err)
		}
	}
	if spansPath != "" && traced {
		if err := appendJSONL(spansPath, r.spans...); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// appendJSONL appends one JSON line per value to path.
func appendJSONL[T any](path string, vals ...T) error {
	var b []byte
	for _, v := range vals {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		b = append(append(b, line...), '\n')
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// updateGolden runs one pass of w without a golden and writes its results
// as the golden for the seed.
func updateGolden(w workload, seed int64, dir, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	v, err := newVerifier(w, nil)
	if err != nil {
		return err
	}
	v.pass(runPass(w, seed, min(2, runtime.NumCPU()), storeDir(workdir)))
	if v.failed > 0 {
		return fmt.Errorf("%s: %s", w.Name, strings.Join(v.problems, "; "))
	}
	return writeGolden(dir, w, seed, v)
}
