package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Goldens are compiled in, so the benchmark checks results wherever it
// runs; -update rewrites the files under -testdata.
//
//go:embed testdata
var goldens embed.FS

// goldenCell is one cell's committed result.
type goldenCell struct {
	Cell      string          `json:"cell"`
	TotalRefs uint64          `json:"total_refs"` // generated, warm-up included
	Result    json.RawMessage `json:"result"`
}

func goldenName(w workload, seed int64) string {
	ext := ".json"
	if w.Figures {
		ext = ".txt"
	}
	return fmt.Sprintf("%s.seed%d%s", w.Name, seed, ext)
}

// loadGolden returns the committed golden for the workload and seed, or
// nil when the seed has none.
func loadGolden(w workload, seed int64) ([]byte, error) {
	data, err := goldens.ReadFile("testdata/" + goldenName(w, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// verifier checks every cell and table the benchmark produces against a
// reference: the golden when the seed has one, otherwise the first
// occurrence in this process, so that every later pass, the traced run and
// the replay must repeat it exactly.
type verifier struct {
	verified   bool
	cellGolden bool               // the golden holds every cell's result
	cells      map[string]cellRun // cell name -> reference JSON and refs
	tables     []string
	figRefs    uint64
	attempted  int
	failed     int
	problems   []string
}

func newVerifier(w workload, golden []byte) (*verifier, error) {
	v := &verifier{cells: make(map[string]cellRun)}
	if golden == nil {
		return v, nil
	}
	v.verified = true
	if w.Figures {
		v.tables = splitFigures(string(golden))
		return v, nil
	}
	var cells []goldenCell
	if err := json.Unmarshal(golden, &cells); err != nil {
		return nil, fmt.Errorf("golden for %s: %w", w.Name, err)
	}
	for _, g := range cells {
		var buf bytes.Buffer
		if err := json.Compact(&buf, g.Result); err != nil {
			return nil, fmt.Errorf("golden for %s, cell %s: %w", w.Name, g.Cell, err)
		}
		v.cells[g.Cell] = cellRun{JSON: buf.Bytes(), Refs: g.TotalRefs}
	}
	v.cellGolden = true
	return v, nil
}

func reference(golden bool) string {
	if golden {
		return "the golden"
	}
	return "the first pass"
}

// check counts one check that fails unless ok.
func (v *verifier) check(ok bool, format string, args ...any) {
	v.attempted++
	if !ok {
		v.failed++
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// cell checks one executed cell.
func (v *verifier) cell(r cellRun) {
	name := r.Cell.String()
	if r.Err != nil {
		v.check(false, "%v", r.Err)
		return
	}
	want, ok := v.cells[name]
	switch {
	case !ok && v.cellGolden:
		v.check(false, "%s: no golden result", name)
	case !ok:
		v.cells[name] = cellRun{JSON: r.JSON, Refs: r.Refs}
		v.check(true, "")
	default:
		v.check(bytes.Equal(want.JSON, r.JSON) && want.Refs == r.Refs,
			"%s: result or reference count (%d, want %d) differs from %s", name, r.Refs, want.Refs, reference(v.cellGolden))
	}
}

// figures checks one Runner's rendered tables. A table that differs, or
// was not rendered because an earlier figure failed, fails as a whole.
func (v *verifier) figures(what string, got []string, err error) {
	if v.tables == nil && !v.verified && err == nil && len(got) == figureCount {
		v.tables = append([]string(nil), got...)
	}
	for i := 0; i < figureCount; i++ {
		switch {
		case i >= len(got):
			v.check(false, "%s: table %d not rendered: %v", what, i+1, err)
		case i >= len(v.tables):
			v.check(false, "%s: table %d has no reference", what, i+1)
		default:
			v.check(got[i] == v.tables[i], "%s: %q differs from %s",
				what, strings.SplitN(got[i], "\n", 2)[0], reference(v.verified))
		}
	}
}

// pass checks one end-to-end pass.
func (v *verifier) pass(ps pass) {
	f := ps.Fig
	if f == nil {
		for _, r := range ps.Runs {
			v.cell(r)
		}
		return
	}
	v.figures("figures", f.Tables, f.Err)
	v.figures("replayed figures", f.Resumed, f.ResumeErr)
	v.check(len(f.Warnings) == 0, "runner warnings: %s", strings.Join(f.Warnings, "; "))
	v.check(f.Resume.gets > 0 && f.Resume.hits == f.Resume.gets && f.Resume.puts == 0,
		"replay: %d of %d store reads hit, %d writes", f.Resume.hits, f.Resume.gets, f.Resume.puts)
	if v.figRefs == 0 {
		v.figRefs = f.Refs
	}
	v.check(f.Refs == v.figRefs, "figures generated %d references, the first pass %d", f.Refs, v.figRefs)
}

// writeGolden writes the references a verifier without a golden collected.
func writeGolden(dir string, w workload, seed int64, v *verifier) error {
	path := filepath.Join(dir, goldenName(w, seed))
	if w.Figures {
		if len(v.tables) != figureCount {
			return fmt.Errorf("%s: figures did not render", w.Name)
		}
		return os.WriteFile(path, []byte(figuresText(v.tables)), 0o644)
	}
	cells := make([]goldenCell, 0, len(w.Cells))
	for _, c := range w.Cells {
		r, ok := v.cells[c.String()]
		if !ok {
			return fmt.Errorf("%s: cell %v did not run", w.Name, c)
		}
		cells = append(cells, goldenCell{Cell: c.String(), TotalRefs: r.Refs, Result: r.JSON})
	}
	data, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
