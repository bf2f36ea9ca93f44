package sim

// The epoch-series contracts. (1) Zero-alloc: sampling inside the ref
// loop must not allocate in steady state — for every registered scheme,
// and with the translation cache disabled, with an aggressive interval so
// samples actually fire inside the measured window. (2) No perturbation:
// a run's Result is bit-identical with the series on or off. (3)
// Determinism: identical options produce byte-identical series output.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"tps/internal/telemetry/series"
)

func TestSeriesSamplerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in a 64MB footprint per scheme")
	}
	// Every other 512-ref batch crosses an epoch boundary, so the
	// AllocsPerRun window contains ~100 live samples (ring, probe,
	// census walk included).
	for _, s := range Setups() {
		t.Run(s.SchemeName(), func(t *testing.T) {
			got := allocsPerBatch(t, Options{Setup: s, SeriesEvery: 1024})
			if got != 0 {
				t.Fatalf("sampling RefBatch allocates %.2f allocs/op, want 0", got)
			}
		})
	}
	t.Run("cache-disabled", func(t *testing.T) {
		got := allocsPerBatch(t, Options{Setup: SetupTPS, TransCache: -1, SeriesEvery: 1024})
		if got != 0 {
			t.Fatalf("sampling RefBatch allocates %.2f allocs/op, want 0", got)
		}
	})
}

// seriesRun executes one churn cell with sampling and returns the wire
// records plus the Result.
func seriesRun(t *testing.T, every uint64) ([]series.Record, Result) {
	t.Helper()
	var pts []series.Point
	var gotEvery uint64
	w := churnWorkload(4, 256)
	opts := Options{
		Setup: SetupTPS, Refs: 30000, Seed: 42, MemoryPages: 1 << 20,
		SeriesEvery: every,
		OnSeries: func(p []series.Point, e uint64) {
			pts = append([]series.Point(nil), p...)
			gotEvery = e
		},
	}
	res, err := Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("run produced no series points")
	}
	meta := series.Meta{Workload: w.Name, Scheme: res.Scheme, Seed: opts.Seed}
	return series.RecordsFor(meta, gotEvery, pts), res
}

func encodeRecords(t *testing.T, recs []series.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSeriesDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full cells")
	}
	a, _ := seriesRun(t, 4096)
	b, _ := seriesRun(t, 4096)
	if !bytes.Equal(encodeRecords(t, a), encodeRecords(t, b)) {
		t.Error("series not byte-identical across identical runs")
	}
}

// TestSeriesDoesNotPerturbResult is the golden-stdout guarantee at its
// root: sampling only reads counters, so the Result of a sampled run is
// bit-identical to the unsampled one.
func TestSeriesDoesNotPerturbResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full cells")
	}
	_, sampled := seriesRun(t, 4096)
	plain, err := Run(churnWorkload(4, 256), Options{
		Setup: SetupTPS, Refs: 30000, Seed: 42, MemoryPages: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sampled, plain) {
		t.Error("sampled Result differs from unsampled")
	}
}

// TestSeriesFinalPoint pins the tail contract: the last record covers the
// stream end even when the run stops between epoch boundaries, and the
// cumulative Refs column is strictly increasing.
func TestSeriesFinalPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full cell")
	}
	recs, _ := seriesRun(t, 8192)
	last := recs[len(recs)-1]
	if last.Refs%8192 == 0 && len(recs) < 2 {
		t.Fatalf("suspicious single boundary-aligned record: %+v", last)
	}
	var prev uint64
	for i, r := range recs {
		if r.Refs <= prev {
			t.Fatalf("epoch %d: Refs %d not increasing past %d", i, r.Refs, prev)
		}
		prev = r.Refs
	}
	if last.Delta.Refs == 0 {
		t.Error("final epoch delta is empty")
	}
}
