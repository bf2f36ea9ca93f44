package sim

// Allocation regression test extending the mmu package's
// TestTranslateSteadyStateAllocs contract up the delivery path: the
// steady-state RefBatch flow — the loop every cell spends its life in —
// must not allocate, with the telemetry hook absent AND with it attached.
// Telemetry compiled in but disabled (OnRefs nil) must be exactly the
// unobserved path; enabled, its cost is one callback per 512-reference
// batch, still allocation-free.

import (
	"sync/atomic"
	"testing"

	"tps/internal/trace"
)

func allocsPerBatch(t *testing.T, opts Options) float64 {
	t.Helper()
	m, pat := benchMachine(t, opts)
	const chunk = trace.BatchSize
	off := 0
	return testing.AllocsPerRun(200, func() {
		end := off + chunk
		if end > len(pat) {
			off, end = 0, chunk
		}
		if err := m.RefBatch(pat[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	})
}

func TestRefBatchSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in a 64MB footprint")
	}
	var refs atomic.Uint64
	cases := []struct {
		name   string
		onRefs func(uint64)
	}{
		{"telemetry-disabled", nil},
		{"telemetry-enabled", func(n uint64) { refs.Add(n) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range []Setup{SetupBase4K, SetupTPS} {
				t.Run(s.String(), func(t *testing.T) {
					got := allocsPerBatch(t, Options{Setup: s, OnRefs: c.onRefs})
					if got != 0 {
						t.Fatalf("steady-state RefBatch allocates %.2f allocs/op, want 0", got)
					}
				})
			}
		})
	}
	if refs.Load() == 0 {
		t.Error("enabled hook never observed a batch")
	}
}

// TestRefBatchSteadyStateAllocsVariants extends the zero-alloc contract to
// the translation-cache variants: the cache disabled (the full modeled
// hierarchy on every reference) and a small cache (frequent evictions);
// and to the cycle model, which prices every reference through the data
// caches and the out-of-order model, natively and with nested walks.
func TestRefBatchSteadyStateAllocsVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in a 64MB footprint per variant")
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"cache-disabled", Options{Setup: SetupTPS, TransCache: -1}},
		{"cache-small", Options{Setup: SetupTPS, TransCache: 256}},
		{"cycle-model", Options{Setup: SetupTHP, CycleModel: true}},
		{"virtualized+cycle-model", Options{Setup: SetupTPS, Virtualized: true, CycleModel: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got := allocsPerBatch(t, v.opts)
			if got != 0 {
				t.Fatalf("steady-state RefBatch allocates %.2f allocs/op, want 0", got)
			}
		})
	}
}
