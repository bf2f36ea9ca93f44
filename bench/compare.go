package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from . or .. (the repository root, or
// bench/ under it).
func loadSpec() (benchSpec, error) {
	paths := []string{"BENCHMARK.json", "../BENCHMARK.json"}
	var spec benchSpec
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return spec, err
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return spec, fmt.Errorf("%s: %w", p, err)
		}
		return spec, nil
	}
	return spec, fmt.Errorf("BENCHMARK.json not found in %v", paths)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare wants two -record files: A (before) and B (after)")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var sides [2][]record
	for i, path := range args {
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if compareRecords(stdout, spec, sides[0], sides[1]) {
		return 1
	}
	return 0
}

func pick(rs []record, workload string, trace int) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return ratio(q[2]-q[0], q[1])
}

// judge compares one metric's runs: change is B's median against A's,
// positive when B is worse. A side whose spread exceeds the bound leaves
// the metric unresolved, unless every B run beats every A run.
func judge(m specMetric, a, b []float64) (change float64, verdict string) {
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	change = ratio(mb-ma, ma)
	if m.Better == "higher" {
		change = -change
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case allBetter:
		return change, "better"
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return change, "unresolved"
	case change > m.Bound:
		return change, "WORSE"
	}
	return change, "within"
}

// compareRecords prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict under the metric's bound, then
// whether the traced runs' per-layer counts repeat exactly per seed. It
// reports whether any metric got worse.
func compareRecords(w io.Writer, spec benchSpec, a, b []record) (worse bool) {
	fmt.Fprintf(w, "%-17s %-12s %-36s %-36s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound", "verdict")
	side := func(xs []float64) string {
		q := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q[0], q[2], len(xs))
	}
	for _, wl := range spec.Workloads {
		ra, rb := pick(a, wl.Name, 0), pick(b, wl.Name, 0)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-17s no end-to-end runs on one side\n", wl.Name)
		} else if ps := procs(append(ra, rb...)); len(ps) > 1 {
			fmt.Fprintf(w, "%-17s runs at different P %v are not comparable\n", wl.Name, ps)
		} else {
			for _, m := range spec.EndToEnd {
				xa, xb := values(ra, m.Name), values(rb, m.Name)
				change, verdict := judge(m, xa, xb)
				worse = worse || verdict == "WORSE"
				fmt.Fprintf(w, "%-17s %-12s %-36s %-36s %+7.1f%% %5.0f%%  %s\n",
					wl.Name, m.Name, side(xa), side(xb), 100*change, 100*m.Bound, verdict)
			}
			for i, rs := range [][]record{ra, rb} {
				if n := incorrect(rs); n > 0 {
					fmt.Fprintf(w, "%-17s %c: %d of %d runs were not correct\n", wl.Name, 'A'+i, n, len(rs))
				}
			}
		}
		compareCounts(w, spec, wl.Name, append(pick(a, wl.Name, 1), pick(b, wl.Name, 1)...))
	}
	return worse
}

func procs(rs []record) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range rs {
		if !seen[r.P] {
			seen[r.P] = true
			out = append(out, r.P)
		}
	}
	sort.Ints(out)
	return out
}

func incorrect(rs []record) int {
	n := 0
	for _, r := range rs {
		if !r.Result.Correct {
			n++
		}
	}
	return n
}

// compareCounts checks that every per-layer count repeats exactly across
// the traced runs of one seed: counts are properties of the simulated
// work, not of the host.
func compareCounts(w io.Writer, spec benchSpec, workload string, traced []record) {
	if len(traced) == 0 {
		return
	}
	bySeed := map[int64][]record{}
	var seeds []int64
	for _, r := range traced {
		if _, ok := bySeed[r.Seed]; !ok {
			seeds = append(seeds, r.Seed)
		}
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	differ := 0
	for _, seed := range seeds {
		for _, m := range spec.PerLayer {
			if m.Unit != "count" {
				continue
			}
			xs := values(bySeed[seed], m.Name)
			for _, x := range xs {
				if x != xs[0] {
					differ++
					fmt.Fprintf(w, "%-17s %s differs across traced runs of seed %d: %v\n", workload, m.Name, seed, xs)
					break
				}
			}
		}
	}
	if differ == 0 {
		fmt.Fprintf(w, "%-17s per-layer counts repeat exactly across %d traced runs (%d seeds)\n", workload, len(traced), len(seeds))
	}
}
