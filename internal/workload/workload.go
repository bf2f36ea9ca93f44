// Package workload synthesizes the memory-reference behaviour of the
// paper's benchmark suite (§IV-A): the TLB-intensive subset of SPEC CPU
// 2017 (selected at L1 DTLB MPKI > 5, Fig. 8) plus the big-data kernels
// Graph 500, GUPS, XSBench and DBx1000.
//
// The real benchmarks are traced with PIN in the paper; here each workload
// is a generator reproducing the address-stream structure that drives TLB
// behaviour: footprint, mmap pattern, spatial locality, pointer-chasing
// dependence, and access randomness. The generators are deterministic for
// a given seed.
package workload

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"tps/internal/addr"
	"tps/internal/trace"
)

// Class groups workloads for reporting.
type Class int

const (
	// SPEC17 marks SPEC CPU 2017 approximations.
	SPEC17 Class = iota
	// BigData marks the paper's big-memory kernels.
	BigData
)

// Workload is one benchmark generator.
type Workload struct {
	// Name is the benchmark's name as it appears in the paper's figures.
	Name string
	// Class groups SPEC17 vs big-data workloads.
	Class Class
	// TLBIntensive marks the workloads in the evaluation suite (Fig. 8
	// selection: MPKI > 5).
	TLBIntensive bool
	// FootprintBytes is the approximate resident working set the
	// generator touches (scaled down from the original benchmarks to
	// keep simulation tractable; relative pressure is preserved).
	FootprintBytes uint64
	// Run drives the sink for about `refs` memory references.
	Run func(s trace.Sink, refs uint64, seed int64) error
}

// All returns the full profiling catalog (Fig. 8: "we profiled all the
// benchmarks").
func All() []Workload { return catalog() }

// EvalSuite returns the TLB-intensive workloads used for Figs. 9-18.
func EvalSuite() []Workload {
	var out []Workload
	for _, w := range catalog() {
		if w.TLBIntensive {
			out = append(out, w)
		}
	}
	return out
}

// ByName finds a workload by its figure name.
func ByName(name string) (Workload, bool) {
	for _, w := range catalog() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// FromTrace makes a trace file (internal/trace's text format, as written
// by trace.FileWriter or converted from an external tracer) a workload:
// Run opens the file and replays it whole into the sink, so a recorded
// stream goes through the same machine, schemes, warmup boundary, and
// cycle model as a generator. The name is the file's base name. Refs and
// seed do not apply; under SMT both siblings replay the same file.
func FromTrace(path string) Workload {
	return Workload{
		Name: filepath.Base(path),
		Run: func(s trace.Sink, _ uint64, _ int64) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			return trace.Replay(f, s)
		},
	}
}

// rng builds the workload-local deterministic random source. The name is
// folded in so different benchmarks draw distinct sequences (auxiliary
// allocation sizes, access jitter) from the same harness seed.
func rng(seed int64, name string) *rand.Rand {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// Sparse builds a synthetic workload that touches only `density` of its
// footprint's pages (scattered), then accesses the touched set at random.
// It exists to expose the promotion-threshold footprint/reach tradeoff
// (§III-B1): dense programs cannot bloat, sparse ones can.
func Sparse(footprint uint64, density float64) Workload {
	if density <= 0 || density > 1 {
		density = 0.6
	}
	return Workload{
		Name:           fmt.Sprintf("sparse-%.0f%%", density*100),
		Class:          BigData,
		TLBIntensive:   true,
		FootprintBytes: footprint,
		Run: func(s trace.Sink, refs uint64, seed int64) error {
			r := rng(seed, "sparse")
			base, err := s.Mmap(footprint)
			if err != nil {
				return err
			}
			pages := footprint / addr.BasePageSize
			touched := make([]uint64, 0, uint64(float64(pages)*density)+1)
			for p := uint64(0); p < pages; p++ {
				if r.Float64() < density {
					touched = append(touched, p)
					if err := s.Ref(trace.Ref{Addr: base + addr.Virt(p*addr.BasePageSize), Write: true, Gap: 256}); err != nil {
						return err
					}
				}
			}
			trace.AnnouncePhase(s, trace.MainPhase)
			for n := uint64(0); n < refs; n++ {
				p := touched[int(uint64(r.Int63())%uint64(len(touched)))]
				off := uint64(r.Int63()) % addr.BasePageSize &^ 7
				if err := s.Ref(trace.Ref{Addr: base + addr.Virt(p*addr.BasePageSize+off), Gap: 4}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}
