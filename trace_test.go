package tps

// Trace replay is a workload like any other: a stream dumped with
// trace.FileWriter and replayed through workload.FromTrace must enter the
// same machine as its generator and reproduce its Result exactly, under
// every registered scheme, with the cycle model off and on. Generators
// deliver each warm-up sweep as one trace.Touch event, which the machine
// runs as a page loop, while a replayed trace delivers the same sweep one
// reference at a time, so the test also holds the bulk first touch to the
// per-reference path. The dumped bytes themselves are pinned: a file
// writer expands every sweep into the per-page lines it always wrote.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tps/internal/trace"
	"tps/internal/workload"
)

func TestTraceReplayMatchesGenerator(t *testing.T) {
	const refs, seed = 20_000, 42
	// gcc is the smallest TLB-intensive footprint; gups adds a 4 GB
	// footprint whose init sweep faults, promotes, and reserves at scale.
	// The race detector makes the gups sweep take minutes on the same
	// code path, so a race build replays gcc only.
	names := []string{"gcc", "gups"}
	if raceEnabled {
		names = names[:1]
	}
	// SHA-256 of each dump at refs and seed, as the per-reference
	// initialization sweep wrote it.
	dumpSums := map[string]string{
		"gcc":  "9e4ab4da486b098dddb70dc90c67946e76b7c390cecd91b2c42bd1bbff6b22a6",
		"gups": "2fcd8a6a5ea0f826793c2cdaf5eba0d299d093a7e511cac56f79ff3f8a3a68f0",
	}
	for _, name := range names {
		w, ok := WorkloadByName(name)
		if !ok {
			t.Fatalf("%s missing from catalog", name)
		}
		path := filepath.Join(t.TempDir(), name+".trace")
		dumpTrace(t, w, path, refs, seed)
		dumped, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(dumped); hex.EncodeToString(sum[:]) != dumpSums[name] {
			t.Errorf("%s: dumped trace changed: sha256 %x, want %s", name, sum, dumpSums[name])
		}
		replay := workload.FromTrace(path)
		if replay.Name != name+".trace" {
			t.Errorf("FromTrace name = %q, want the file's base name", replay.Name)
		}
		for _, sname := range SchemeNames() {
			setup, ok := SetupByName(sname)
			if !ok {
				t.Fatalf("registered scheme %q has no Setup", sname)
			}
			t.Run(name+"/"+sname, func(t *testing.T) {
				t.Parallel()
				for _, cyc := range []bool{false, true} {
					opts := Options{Setup: setup, Refs: refs, Seed: seed, CycleModel: cyc}
					want, err := Run(w, opts)
					if err != nil {
						t.Fatalf("cyc=%t generator: %v", cyc, err)
					}
					got, err := Run(replay, opts)
					if err != nil {
						t.Fatalf("cyc=%t replay: %v", cyc, err)
					}
					got.Workload = want.Workload
					if !reflect.DeepEqual(got, want) {
						t.Errorf("cyc=%t: replay diverged from generator\nreplay:    %+v\ngenerator: %+v",
							cyc, got, want)
					}
				}
			})
		}
	}
}

// dumpTrace records w's stream to path, the way tpssim -dump does.
func dumpTrace(t *testing.T, w Workload, path string, refs uint64, seed int64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fw := trace.NewFileWriter(f)
	if err := w.Run(fw, refs, seed); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
