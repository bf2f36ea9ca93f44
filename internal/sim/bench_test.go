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
	"tps/internal/workload"
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

// sweeps is a warm-up-only workload: it maps regions of several sizes
// (the last page of one partial) and sweeps each with trace.Touch, then
// announces the main phase and stops. All its references are first
// touches.
var sweeps = workload.Workload{Name: "sweeps", Run: func(s trace.Sink, _ uint64, _ int64) error {
	for _, size := range []uint64{4 << 20, 8<<20 + 100, 2 << 20, 6 << 20} {
		base, err := s.Mmap(size)
		if err != nil {
			return err
		}
		if err := trace.Touch(s, base, size, 64); err != nil {
			return err
		}
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	return nil
}}

// BenchmarkTouch measures the warm-up sweep end to end: one Run of
// sweeps per op under THP, functional and with the cycle model, each
// alone and as two SMT siblings. ns/page is per page touched.
//
//	go test -run='^$' -bench=Touch -benchmem ./internal/sim
func BenchmarkTouch(b *testing.B) {
	for _, v := range []struct {
		name string
		set  func(*Options)
	}{
		{"functional", func(*Options) {}},
		{"cycle-model", func(o *Options) { o.CycleModel = true }},
		{"smt", func(o *Options) { o.SMT = true }},
		{"smt+cycle-model", func(o *Options) { o.SMT, o.CycleModel = true, true }},
	} {
		b.Run(v.name, func(b *testing.B) {
			opts := Options{Setup: SetupTHP, Refs: 2, MemoryPages: 1 << 16}
			v.set(&opts)
			var pages uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(sweeps, opts)
				if err != nil {
					b.Fatal(err)
				}
				pages += res.OS.Faults
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
		})
	}
}
