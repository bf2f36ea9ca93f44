package tps

// Scheme-selection and store-keying tests at the harness boundary: unknown
// schemes are explicit errors (never a masqueraded 4K baseline), cells are
// keyed by stable registry name, and entries persisted under the retired
// v1 ordinal-keyed schema are unreachable — they miss and recompute rather
// than resurrecting into new runs.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tps/internal/store"
)

func TestSetupStringUnknownIsExplicit(t *testing.T) {
	if got := Setup(99).String(); got != "Setup(99)" {
		t.Errorf("Setup(99).String() = %q, want explicit Setup(99), never a scheme label", got)
	}
	if got := Setup(99).SchemeName(); got != "invalid(99)" {
		t.Errorf("Setup(99).SchemeName() = %q, want invalid(99)", got)
	}
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	w := smallSuite(t)[0]
	if _, ok := SetupByName("bogus"); ok {
		t.Error("SetupByName accepted an unknown scheme name")
	}
	_, err := Run(w, Options{Setup: Setup(99), Refs: 1000})
	if err == nil {
		t.Fatal("Run accepted an unregistered Setup ordinal")
	}
	// The error must teach the vocabulary, not just reject.
	for _, name := range SchemeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-scheme error %q does not list registered scheme %q", err, name)
		}
	}
}

func TestSchemesByName(t *testing.T) {
	setups, err := SchemesByName([]string{"tps", "svnapot", "base4k"})
	if err != nil {
		t.Fatal(err)
	}
	want := []Setup{SetupTPS, SetupSvnapot, SetupBase4K}
	if !reflect.DeepEqual(setups, want) {
		t.Errorf("SchemesByName = %v, want %v", setups, want)
	}
	if _, err := SchemesByName([]string{"tps", "bogus"}); err == nil {
		t.Error("SchemesByName accepted an unknown name")
	}
}

func TestStoreKeyedBySchemeName(t *testing.T) {
	e := newEngine(FigureConfig{Refs: 1000}.withDefaults())
	fp := e.fingerprint(runKey{name: "gups", setup: SetupTPS})
	if !strings.Contains(fp, "scheme=tps") {
		t.Errorf("fingerprint %q does not carry the scheme name", fp)
	}
	if strings.Contains(fp, "setup=") {
		t.Errorf("fingerprint %q still carries an ordinal setup field", fp)
	}
	if !strings.HasPrefix(fp, SimVersion+"|") {
		t.Errorf("fingerprint %q not salted with %s", fp, SimVersion)
	}
	// Distinct schemes, distinct cells.
	if fp2 := e.fingerprint(runKey{name: "gups", setup: SetupSvnapot}); fp2 == fp {
		t.Error("tps and svnapot cells share a fingerprint")
	}
}

// TestOrdinalKeysNotReplayed plants a sentinel result under the exact key
// the retired v1 schema (ordinal-keyed, "tps-sim-v1" salt) would have used
// for a cell, then runs that cell against the same store: the sentinel
// must not replay, and the recomputed result must persist under a new,
// distinct key — the store round-trip that proves the v1→v2 key migration
// recomputes instead of resurrecting.
func TestOrdinalKeysNotReplayed(t *testing.T) {
	w := smallSuite(t)[0]
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := FigureConfig{Refs: 20_000, Suite: []Workload{w}, Parallelism: 1, Store: st}
	r := NewRunner(cfg)

	// The v1 fingerprint format, verbatim, for this cell (setup ordinal 2
	// = TPS under the seed enum).
	v1 := fmt.Sprintf("tps-sim-v1|refs=%d|seed=%d|mem=%d|w=%s|setup=%d|smt=false|virt=false|frag=false|cyc=false|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0",
		r.cfg.Refs, r.cfg.Seed, r.cfg.MemoryPages, w.Name, int(SetupTPS))
	oldKey := store.KeyOf(v1)
	sentinel := Result{Workload: w.Name, Refs: 12345, L1MPKI: 999.25}
	data, err := encodeResult(sentinel)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(oldKey, data); err != nil {
		t.Fatal(err)
	}

	if newKey := r.eng.cellKey(runKey{name: w.Name, setup: SetupTPS}); newKey == oldKey {
		t.Fatalf("v2 cell key equals v1 ordinal key %s; stale entries would replay", oldKey)
	}
	res, err := r.run(w, SetupTPS, runFlags{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs == sentinel.Refs && res.L1MPKI == sentinel.L1MPKI {
		t.Fatal("run replayed the v1 ordinal-keyed sentinel")
	}
	if res.Scheme != "tps" {
		t.Errorf("Result.Scheme = %q, want tps", res.Scheme)
	}
	// Sentinel entry plus the freshly persisted cell: two distinct keys.
	n, err := st.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("store holds %d entries, want 2 (v1 sentinel + v2 cell)", n)
	}

	// The v2 entry round-trips: a fresh Runner over the same store replays
	// the name-keyed cell bit-for-bit.
	replayed, err := NewRunner(cfg).run(w, SetupTPS, runFlags{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, replayed) {
		t.Error("name-keyed cell did not round-trip through the store")
	}
}

func TestSchemeGridWellFormed(t *testing.T) {
	suite := smallSuite(t)
	setups, err := SchemesByName([]string{"base4k", "tps", "svnapot"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(FigureConfig{Refs: 20_000, Suite: suite, Parallelism: 2})
	tbl, err := r.SchemeGrid(setups)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Header) != 1+len(setups) {
		t.Fatalf("grid header has %d columns, want %d", len(tbl.Header), 1+len(setups))
	}
	for i, s := range setups {
		if tbl.Header[1+i] != s.String() {
			t.Errorf("grid column %d = %q, want %q", 1+i, tbl.Header[1+i], s.String())
		}
	}
	if got, want := len(tbl.Rows), len(suite)+1; got != want {
		t.Fatalf("grid has %d rows, want %d (suite + average)", got, want)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %v width %d != header width %d", row, len(row), len(tbl.Header))
		}
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "/") {
				t.Errorf("cell %q not in L1MPKI/walkKI format", cell)
			}
		}
	}
}
