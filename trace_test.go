package tps

// Trace replay is a workload like any other: a stream dumped with
// trace.FileWriter and replayed through workload.FromTrace must enter the
// same machine as its generator and reproduce its Result exactly, under
// every registered scheme, with the cycle model off and on.

import (
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
	for _, name := range names {
		w, ok := WorkloadByName(name)
		if !ok {
			t.Fatalf("%s missing from catalog", name)
		}
		path := filepath.Join(t.TempDir(), name+".trace")
		dumpTrace(t, w, path, refs, seed)
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
