package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tps"
)

// TestTracedMachineMatchesRun holds the benchmark's machine assembly to
// sim's: for every registered scheme, the traced machine must produce the
// Result tps.Run produces, byte for byte, and see the same references.
func TestTracedMachineMatchesRun(t *testing.T) {
	schemes := tps.SchemeNames()
	if raceEnabled {
		schemes = []string{"colt", "rmm", "tps"} // fill policy, sidecar, tailored pages
	}
	cells := make([]cell, 0, len(schemes)+1)
	for _, s := range schemes {
		cells = append(cells, cell{Workload: "gcc", Scheme: s, Refs: 20000, Seed: 42})
	}
	if !raceEnabled {
		cells = append(cells, cell{Workload: "gcc", Scheme: "thp", Refs: 20000, Frag: true, Virt: true, Seed: 42})
	}
	for _, c := range cells {
		want := runCell(c)
		got, tr := runTraced(c)
		if want.Err != nil || got.Err != nil {
			t.Fatalf("%v: tps.Run error %v, traced error %v", c, want.Err, got.Err)
		}
		if !bytes.Equal(got.JSON, want.JSON) {
			t.Errorf("%v: traced machine result differs from tps.Run\n got %s\nwant %s", c, got.JSON, want.JSON)
		}
		if got.Refs != want.Refs || tr.Refs != want.Refs {
			t.Errorf("%v: traced machine saw %d references, tps.Run generated %d", c, got.Refs, want.Refs)
		}
	}
}

// tinyWorkload exercises every cell kind in well under a second.
var tinyWorkload = workload{
	Name: "tiny",
	Cells: []cell{
		{Workload: "leela", Scheme: "thp", Refs: 20000, SMT: true, Cyc: true},
		{Workload: "leela", Scheme: "tps", Refs: 20000, SMT: true},
		{Workload: "leela", Scheme: "thp", Refs: 20000, Cyc: true},
		{Workload: "leela", Scheme: "tps", Refs: 20000},
		{Workload: "leela", Scheme: "colt", Refs: 20000},
	},
}

func tinyRun(t *testing.T, golden []byte) *run {
	t.Helper()
	v, err := newVerifier(tinyWorkload, golden)
	if err != nil {
		t.Fatal(err)
	}
	return &run{w: tinyWorkload, seed: 42, seconds: time.Nanosecond, p: 2, dir: t.TempDir(), v: v, out: io.Discard}
}

// TestMetricsMatchBenchmarkJSON checks that both runs report exactly the
// metrics BENCHMARK.json declares, with its units and directions.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		spec []specMetric
		defs []metricDef
		run  func(*run) map[string]float64
	}{
		{"end_to_end", spec.EndToEnd, e2eMetrics, func(r *run) map[string]float64 { return r.measure([]time.Duration{time.Millisecond}) }},
		{"per_layer", spec.PerLayer, layerMetrics, (*run).measureLayers},
	} {
		var declared []metricDef
		for _, m := range tc.spec {
			declared = append(declared, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(declared, tc.defs) {
			t.Errorf("%s: BENCHMARK.json declares %v, the benchmark reports %v", tc.what, declared, tc.defs)
		}
		r := tinyRun(t, nil)
		vals := tc.run(r)
		if r.v.failed > 0 {
			t.Fatalf("%s: %v", tc.what, r.v.problems)
		}
		if len(vals) != len(tc.defs) {
			t.Errorf("%s: measured %d metrics, want %d", tc.what, len(vals), len(tc.defs))
		}
		for _, d := range tc.defs {
			if _, ok := vals[d.Name]; !ok {
				t.Errorf("%s: %s not measured", tc.what, d.Name)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
}

// TestPerturbedGoldenFails checks that the golden gate bites: a result or
// table that differs from its golden counts as failed.
func TestPerturbedGoldenFails(t *testing.T) {
	r := tinyRun(t, nil)
	r.v.pass(runPass(r.w, r.seed, r.p, r.dir))
	dir := t.TempDir()
	if err := writeGolden(dir, r.w, r.seed, r.v); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(dir, goldenName(r.w, r.seed)))
	if err != nil {
		t.Fatal(err)
	}
	var cells []goldenCell
	if err := json.Unmarshal(golden, &cells); err != nil {
		t.Fatal(err)
	}
	cells[len(cells)-1].TotalRefs++
	perturbed, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden []byte
		failed bool
	}{{golden, false}, {perturbed, true}} {
		r := tinyRun(t, tc.golden)
		r.v.pass(runPass(r.w, r.seed, r.p, r.dir))
		if (r.v.failed > 0) != tc.failed || !r.v.verified {
			t.Errorf("golden perturbed %t: %d of %d checks failed (%v), verified %t",
				tc.failed, r.v.failed, r.v.attempted, r.v.problems, r.v.verified)
		}
	}

	figs := workload{Name: "figs", Figures: true}
	tables := make([]string, figureCount)
	for i := range tables {
		tables[i] = "Table " + strings.Repeat("x", i) + "\na  b\n-  -\n1  2\n"
	}
	v, err := newVerifier(figs, []byte(figuresText(tables)))
	if err != nil {
		t.Fatal(err)
	}
	v.figures("figures", tables, nil)
	v.cell(cellRun{Cell: tinyWorkload.Cells[0], JSON: []byte("{}")}) // a figures golden holds no cells
	changed := append([]string(nil), tables...)
	changed[3] = strings.Replace(changed[3], "1  2", "1  3", 1)
	v.figures("figures", changed, nil)
	if v.failed != 1 || v.attempted != 2*figureCount+1 {
		t.Errorf("a changed table: %d of %d checks failed (%v), want 1 of %d", v.failed, v.attempted, v.problems, 2*figureCount+1)
	}
}

// TestGoldensCoverWorkloads checks that the committed goldens parse and
// name every cell, for the default seed and the held-out one.
func TestGoldensCoverWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{42, 1042} {
			golden, err := loadGolden(w, seed)
			if err != nil || golden == nil {
				t.Errorf("%s seed %d: no golden (%v)", w.Name, seed, err)
				continue
			}
			v, err := newVerifier(w, golden)
			if err != nil {
				t.Errorf("%s seed %d: %v", w.Name, seed, err)
				continue
			}
			if w.Figures {
				if len(v.tables) != figureCount {
					t.Errorf("%s seed %d: golden has %d tables, want %d", w.Name, seed, len(v.tables), figureCount)
				}
				continue
			}
			for _, c := range w.Cells {
				if _, ok := v.cells[c.String()]; !ok {
					t.Errorf("%s seed %d: golden lacks %v", w.Name, seed, c)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestJudge covers the -compare verdicts.
func TestJudge(t *testing.T) {
	m := specMetric{Name: "wall_s", Better: "lower", Bound: 0.1}
	for _, tc := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{10, 10.1, 10.2}, []float64{10.1, 10.2, 10.3}, "within"},
		{[]float64{10, 10.1, 10.2}, []float64{11.5, 11.6, 11.7}, "WORSE"},
		{[]float64{10, 10.1, 10.2}, []float64{9, 9.1, 9.2}, "better"},
		{[]float64{8, 10, 13}, []float64{10, 10.1, 10.2}, "unresolved"},
	} {
		if _, got := judge(m, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%v, %v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}
