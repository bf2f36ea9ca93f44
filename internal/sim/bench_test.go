package sim

// BenchmarkRefLoop measures the steady-state cost of one simulated memory
// reference — the machine.refAs → vmm.Kernel.Access → mmu.Translate → TLB
// probe chain — per translation setup. The reference pattern is
// pregenerated (no rand in the timed loop), so ns/op is ns per simulated
// reference through the production delivery path, directly comparable
// across commits with benchstat.
//
//	go test -run='^$' -bench=RefLoop -benchmem ./internal/sim

import (
	"sync/atomic"
	"testing"

	"tps/internal/telemetry/series"
	"tps/internal/trace"
)

// benchMachine assembles a machine for the options and faults in a region
// so the timed loop measures steady state (no faults, no promotions). The
// footprint, pattern, and fault-in loop live in conformance.go
// (newSteadyMachine), shared with the scheme conformance suite.
func benchMachine(tb testing.TB, opts Options) (*machine, []trace.Ref) {
	tb.Helper()
	m, pat, err := newSteadyMachine(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m, pat
}

// benchRefLoop delivers the pattern through RefBatch in Batcher-sized
// chunks — the production delivery path — so ns/op is ns per simulated
// reference as sim.Run pays it.
func benchRefLoop(b *testing.B, opts Options) {
	m, pat := benchMachine(b, opts)
	const chunk = trace.BatchSize
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		k := len(pat)
		if left := b.N - n; left < k {
			k = left
		}
		for off := 0; off < k; off += chunk {
			end := off + chunk
			if end > k {
				end = k
			}
			if err := m.RefBatch(pat[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		n += k
	}
}

// BenchmarkRefLoop covers every registered scheme, keyed by stable
// registry name so BENCH_*.json rows stay comparable across commits.
func BenchmarkRefLoop(b *testing.B) {
	for _, s := range Setups() {
		b.Run(s.SchemeName(), func(b *testing.B) { benchRefLoop(b, Options{Setup: s}) })
	}
}

// BenchmarkRefLoopNoCache is the same loop with the software translation
// cache disabled — the before/after row for the PR 7 fast path.
func BenchmarkRefLoopNoCache(b *testing.B) {
	for _, s := range []Setup{SetupTHP, SetupTPS} {
		b.Run(s.SchemeName(), func(b *testing.B) { benchRefLoop(b, Options{Setup: s, TransCache: -1}) })
	}
}

// BenchmarkRefLoopCycleModel includes the data-cache and OOO timing models
// (the Fig. 2/13/14 configuration), the most expensive per-ref path.
func BenchmarkRefLoopCycleModel(b *testing.B) {
	benchRefLoop(b, Options{Setup: SetupTHP, CycleModel: true})
}

// BenchmarkRefLoopSeries measures the epoch-sampling overhead: the same
// loop with a live series sampler at the conventional interval. Per
// batch the sampler costs one add and one compare; the probe itself
// (counter reads plus the census walk) amortizes over a full epoch. The
// bench_guard contract: within 5% of the plain BenchmarkRefLoop row.
func BenchmarkRefLoopSeries(b *testing.B) {
	for _, s := range []Setup{SetupTHP, SetupTPS} {
		b.Run(s.SchemeName(), func(b *testing.B) {
			benchRefLoop(b, Options{Setup: s, SeriesEvery: series.DefaultEvery})
		})
	}
}

// BenchmarkRefLoopTelemetry measures the enabled-telemetry overhead: the
// same loop as BenchmarkRefLoop/TPS with the per-batch refs hook attached
// (one atomic add per 512 references — the whole hot-path cost of live
// metrics). Compare against BenchmarkRefLoop/TPS (and the archived
// BENCH_*.json): both variants must sit within run-to-run noise.
func BenchmarkRefLoopTelemetry(b *testing.B) {
	var refs atomic.Uint64
	b.Run("disabled", func(b *testing.B) {
		benchRefLoop(b, Options{Setup: SetupTPS})
	})
	b.Run("enabled", func(b *testing.B) {
		benchRefLoop(b, Options{Setup: SetupTPS, OnRefs: func(n uint64) { refs.Add(n) }})
	})
}
