package cache

import (
	"math/rand"
	"testing"

	"tps/internal/addr"
)

// BenchmarkHierarchyLatency prices one data reference through the Table I
// hierarchy (ns/op = ns per Latency call). It is a layer number for the
// cache model alone; the cycle-model cells measure what it is worth end
// to end.
func BenchmarkHierarchyLatency(b *testing.B) {
	const n = 1 << 16
	r := rand.New(rand.NewSource(42))
	streams := []struct {
		name string
		addr func() addr.Phys
	}{
		// A 16 KB working set: after the first sweep every access hits
		// L1D, mostly not in the most recent way.
		{"l1-hit-heavy", func() addr.Phys { return addr.Phys(r.Int63n(16 << 10)) }},
		// A 64 MB working set, 32 times the LLC: nearly every access
		// misses both levels and goes to DRAM.
		{"llc-miss-heavy", func() addr.Phys { return addr.Phys(r.Int63n(64 << 20)) }},
	}
	for _, s := range streams {
		pat := make([]addr.Phys, n)
		for i := range pat {
			pat[i] = s.addr()
		}
		b.Run(s.name, func(b *testing.B) {
			h := NewHierarchy()
			for _, p := range pat {
				h.Latency(p)
			}
			var sum uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += h.Latency(pat[i&(n-1)])
			}
			if sum == 0 {
				b.Fatal("no latency accumulated")
			}
		})
	}
}
