package sim

// Steady-state harness shared by the in-package benchmarks/alloc tests and
// the cross-package scheme conformance suite (internal/scheme): a machine
// with a 64 MB region fully faulted in, plus a deterministic reference
// pattern, driven through the production RefBatch delivery path. The
// conformance suite wraps Step in testing.AllocsPerRun to enforce the
// zero-allocation translate contract on every registered scheme.

import (
	"tps/internal/addr"
	"tps/internal/mmu"
	"tps/internal/trace"
)

// steadyFootprint exceeds the 4K L1 TLB reach (256 KB) and the 4K STLB
// reach (6 MB) so every scheme exercises its full hierarchy, while staying
// cheap to fault in.
const steadyFootprint = 64 << 20 // 64 MB

// steadyPattern synthesizes a deterministic steady-state access stream over
// [base, base+bytes): sequential runs (TLB-friendly) interleaved with
// LCG-scattered jumps (TLB-stressing), roughly the texture of the chase
// and stream generators without their generation cost.
func steadyPattern(base addr.Virt, bytes uint64, n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	words := bytes / 8
	state := uint64(12345)
	var seq uint64
	for i := range refs {
		var off uint64
		if i%4 == 3 {
			// Scattered jump (LCG-driven).
			state = state*6364136223846793005 + 1442695040888963407
			off = (state >> 11) % words * 8
			seq = off
		} else {
			seq = (seq + 64) % bytes
			off = seq
		}
		refs[i] = trace.Ref{
			Addr:  base + addr.Virt(off),
			Write: i%8 == 0,
			Gap:   4,
		}
	}
	return refs
}

// newSteadyMachine assembles the machine for the options and faults in the
// footprint so subsequent batches measure steady state (no faults, no
// promotions).
func newSteadyMachine(opts Options) (*machine, []trace.Ref, error) {
	if opts.MemoryPages == 0 {
		opts.MemoryPages = 1 << 20
	}
	m := newMachine(opts)
	base, err := m.Mmap(steadyFootprint)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Touch(base, steadyFootprint, 256); err != nil {
		return nil, nil, err
	}
	return m, steadyPattern(base, steadyFootprint, 1<<15), nil
}

// SteadyState is the exported face of the harness for external conformance
// tests.
type SteadyState struct {
	m   *machine
	pat []trace.Ref
	off int
}

// NewSteadyState builds a machine for the options and faults in the whole
// footprint. The setup must resolve in the scheme registry.
func NewSteadyState(opts Options) (*SteadyState, error) {
	if _, err := opts.Setup.scheme(); err != nil {
		return nil, err
	}
	m, pat, err := newSteadyMachine(opts)
	if err != nil {
		return nil, err
	}
	return &SteadyState{m: m, pat: pat}, nil
}

// Step delivers one Batcher-sized batch through the production RefBatch
// path, wrapping around the pattern. It is allocation-free in steady state
// for every conforming scheme, at any cache setting.
func (s *SteadyState) Step() error {
	const chunk = trace.BatchSize
	end := s.off + chunk
	if end > len(s.pat) {
		s.off, end = 0, chunk
	}
	err := s.m.RefBatch(s.pat[s.off:end])
	s.off = end
	return err
}

// MMUStats exposes the driven machine's translation counters so invariant
// checks run against the same machine the allocation check exercised.
func (s *SteadyState) MMUStats() mmu.Stats { return s.m.procs[0].mmu.Stats() }
