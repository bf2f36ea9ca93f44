package sim

// Epoch sampling inside the ref loop. The sampler advances at batch
// granularity only — one predictable branch per 512-reference flush (or
// per SMT scheduling round), exactly like the cancellation poll and the
// OnRefs hook — and snapshots the machine's cumulative counters into a
// preallocated ring whenever the stream crosses an epoch boundary. The
// hot-path invariants survive untouched: zero steady-state allocations
// (the probe writes into a reusable Point through closures bound at
// construction), no atomics beyond the existing one-per-batch telemetry
// add, and no effect whatsoever on modeled statistics — sampling only
// reads counters, so golden stdout is byte-identical with -series on or
// off.

import (
	"tps/internal/telemetry/series"
)

// seriesSampler owns one run's epoch ring. All methods are nil-safe so
// the call sites stay unconditional.
type seriesSampler struct {
	every uint64 // current epoch interval (doubles on ring decimation)
	next  uint64 // stream position of the next sample
	refs  uint64 // references seen so far
	taken uint64 // stream position of the last sample (final-point dedup)

	ring  *series.Ring
	cur   series.Point        // reusable snapshot target: probes write here
	probe func(*series.Point) // bound once at construction — no per-sample closure
}

func newSeriesSampler(every uint64, probe func(*series.Point)) *seriesSampler {
	if every == 0 {
		return nil
	}
	return &seriesSampler{
		every: every,
		next:  every,
		ring:  series.NewRing(every, series.DefaultRingCap),
		probe: probe,
	}
}

// advance accounts n delivered references and samples when the stream
// crossed the current epoch boundary. Called once per batch; the common
// case is one compare and one add.
func (s *seriesSampler) advance(n uint64) {
	if s == nil {
		return
	}
	s.refs += n
	if s.refs < s.next {
		return
	}
	if s.ring.Full() {
		// Decimate and SKIP this sample: the position that triggered the
		// overflow is an odd multiple of the old interval, which falls
		// between the survivors' coarser grid points. The next boundary is
		// re-derived on the doubled interval.
		s.ring.Decimate()
		s.every = s.ring.Every()
		s.next = (s.refs/s.every + 1) * s.every
		return
	}
	s.take()
	s.next = (s.refs/s.every + 1) * s.every
}

// take snapshots the machine into the ring at the current position.
func (s *seriesSampler) take() {
	s.cur = series.Point{Refs: s.refs}
	s.probe(&s.cur)
	s.ring.Push(s.cur)
	s.taken = s.refs
}

// flush emits the buffered series (plus a final point for the tail epoch,
// unless the stream ended exactly on a boundary) to the run's sink.
func (s *seriesSampler) flush(sink func(points []series.Point, every uint64)) {
	if s == nil || sink == nil {
		return
	}
	if s.refs > s.taken {
		s.take()
	}
	sink(s.ring.Points(), s.ring.Every())
}

// sampleInto accumulates this machine's cumulative counters into p: the
// probe the run's sampler calls at each epoch boundary.
func (m *machine) sampleInto(p *series.Point) {
	for _, pr := range m.procs {
		ms := pr.mmu.Stats()
		p.Accesses += ms.Accesses
		p.L1Hits += ms.L1Hits
		p.L1Misses += ms.L1Misses
		p.L2Hits += ms.STLBHits
		p.L2Misses += ms.STLBMisses
		p.SidecarHits += ms.SidecarHits
		p.Walks += ms.Walks
		p.WalkRefs += ms.WalkRefs
		p.TCServes += pr.mmu.TransCacheServes()

		ks := pr.kernel.Stats()
		p.Faults += ks.Faults
		p.DemandPages += ks.DemandPages
		p.Promotions += ks.Promotions
		p.PageMerges += ks.PageMerges

		promos := pr.kernel.PromotionsByOrder()
		for o := range promos {
			p.PromosByOrder[o] += promos[o]
		}
		pr.kernel.CensusInto(&p.Census)
	}
}
