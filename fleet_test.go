package tps

import (
	"context"
	"testing"

	"tps/internal/fabric"
)

// TestSpecKeyMatchesEngineKey is the fleet exactness invariant's
// foundation: the content address a worker computes for a fleet cell must
// equal the one the local engine computes for the identical configuration
// — that equality is what makes duplicate completions dedupe and a
// coordinator restart resume from any store a worker or a local run wrote.
func TestSpecKeyMatchesEngineKey(t *testing.T) {
	cfg := FigureConfig{Refs: 2000, Seed: 7}
	e := newEngine(cfg.withDefaults())
	setups, err := SchemesByName(SchemeNames())
	if err != nil {
		t.Fatal(err)
	}
	specs := FleetCells(cfg, setups)
	if want := len(e.cfg.Suite) * len(setups); len(specs) != want {
		t.Fatalf("FleetCells enumerated %d cells, want %d", len(specs), want)
	}
	i := 0
	for _, w := range e.cfg.Suite {
		for _, s := range setups {
			spec := specs[i]
			i++
			if spec.Workload != w.Name || spec.Scheme != s.SchemeName() {
				t.Fatalf("cell %d is %s/%s, want %s/%s (row-major order broken)",
					i-1, spec.Workload, spec.Scheme, w.Name, s.SchemeName())
			}
			got, err := SpecKey(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := e.cellKey(runKey{name: w.Name, setup: s})
			if got != want {
				t.Fatalf("cell %s/%s: SpecKey %s != engine key %s",
					w.Name, s.SchemeName(), got, want)
			}
		}
	}
}

func TestSpecKeyDistinguishesConfigs(t *testing.T) {
	base := fabric.CellSpec{Workload: "gcc", Scheme: "tps", Refs: 1000, Seed: 1}
	k0, err := SpecKey(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []fabric.CellSpec{
		{Workload: "mcf", Scheme: "tps", Refs: 1000, Seed: 1},
		{Workload: "gcc", Scheme: "base4k", Refs: 1000, Seed: 1},
		{Workload: "gcc", Scheme: "tps", Refs: 2000, Seed: 1},
		{Workload: "gcc", Scheme: "tps", Refs: 1000, Seed: 2},
		{Workload: "gcc", Scheme: "tps", Refs: 1000, Seed: 1, Frag: true},
	} {
		k, err := SpecKey(alt)
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Fatalf("distinct config %+v collides with base key %s", alt, k0)
		}
	}
}

func TestSpecKeyRejectsUnknownNames(t *testing.T) {
	if _, err := SpecKey(fabric.CellSpec{Workload: "nope", Scheme: "tps"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := SpecKey(fabric.CellSpec{Workload: "gcc", Scheme: "nope"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestRunSpecMatchesLocalRun: the worker execution path and the local
// engine path produce the identical Result for the same cell — the fleet
// table is byte-identical to the serial one because every cell is.
func TestRunSpecMatchesLocalRun(t *testing.T) {
	w, ok := WorkloadByName("gcc")
	if !ok {
		t.Fatal("gcc missing from registry")
	}
	setup, ok := SetupByName("tps")
	if !ok {
		t.Fatal("tps scheme missing from registry")
	}
	spec := fabric.CellSpec{Workload: "gcc", Scheme: "tps", Refs: 5000, Seed: 11}

	fleet, err := RunSpec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := Run(w, Options{Setup: setup, Refs: 5000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := EncodeResult(fleet)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := EncodeResult(local)
	if err != nil {
		t.Fatal(err)
	}
	if string(fb) != string(lb) {
		t.Fatalf("fleet and local results diverge:\nfleet: %s\nlocal: %s", fb, lb)
	}
	// And the encoding round-trips strictly.
	back, err := DecodeResult(fb)
	if err != nil {
		t.Fatal(err)
	}
	if back.Refs != fleet.Refs || back.WalkMemRefs != fleet.WalkMemRefs {
		t.Fatalf("decode round-trip drift: %+v vs %+v", back, fleet)
	}
}

func TestDecodeResultRejectsTruncation(t *testing.T) {
	res, err := RunSpec(context.Background(), fabric.CellSpec{
		Workload: "gcc", Scheme: "tps", Refs: 1000, Seed: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(raw[:len(raw)/2]); err == nil {
		t.Fatal("truncated result decoded cleanly — torn reads would poison the fleet")
	}
}
