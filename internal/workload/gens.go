package workload

import (
	"math/rand"

	"tps/internal/addr"
	"tps/internal/trace"
)

// The generator primitives below produce the canonical access-stream
// shapes the benchmark suite is built from. All footprints are implicit
// (addresses are synthesized, never materialized in host memory), so
// multi-gigabyte working sets — which the baseline's 2 MB-page STLB reach
// (1536 x 2 MB = 3 GB) must be exceeded by, as in the real SPEC17 speed
// suite and big-data kernels — cost nothing to generate.
//
// Every generator starts with an initialization sweep writing each page of
// its regions once (real programs fault in and fill their data structures
// at startup; this is also what drives reservation utilization to 100% and
// lets both THP and TPS promote). The sweep is announced as a warmup and
// the measured main phase begins with trace.AnnouncePhase(s, MainPhase).

// initGap is the instruction gap charged per initialization reference.
// One emitted reference stands for one page's worth of fill stores.
const initGap = 256

// initRegion sweeps a region page by page with writes, as one trace.Touch
// event.
func initRegion(s trace.Sink, base addr.Virt, size uint64) error {
	return trace.Touch(s, base, size, initGap)
}

// auxRegions maps the odd-sized auxiliary allocations every real process
// carries (stacks, arenas, I/O buffers, library data): a few dozen
// sub-2 MB regions. They are the source of the modest internal
// fragmentation exclusive 2 MB paging exhibits (Fig. 9) and of the
// intermediate tailored sizes in the Fig. 18 census.
func auxRegions(s trace.Sink, r *rand.Rand) error {
	n := 24 + r.Intn(24)
	for i := 0; i < n; i++ {
		size := uint64(8<<10) + uint64(r.Int63())%(900<<10)
		base, err := s.Mmap(size)
		if err != nil {
			return err
		}
		if err := initRegion(s, base, size); err != nil {
			return err
		}
	}
	return nil
}

// lcg is a full-period power-of-two linear congruential generator used to
// walk every node of a region in a fixed pseudo-random order without
// materializing a permutation.
type lcg struct {
	state uint64
	mask  uint64
}

// newLCG builds a full-period LCG over [0, 2^k): a ≡ 1 (mod 4), c odd.
func newLCG(seed uint64, n uint64) lcg {
	return lcg{state: seed & (n - 1), mask: n - 1}
}

func (l *lcg) next() uint64 {
	l.state = (l.state*6364136223846793005 + 1442695040888963407) & l.mask
	return l.state
}

// pow2Floor rounds down to a power of two.
func pow2Floor(x uint64) uint64 {
	p := uint64(1)
	for p*2 <= x {
		p *= 2
	}
	return p
}

// chase emits a pointer-chasing traversal over nodes of nodeSize bytes in
// a footprint-byte region: every access depends on the previous one (mcf's
// arc/node walks, omnetpp's event lists, xalancbmk's DOM traversal). With
// probability `locality` the next node is the sequential neighbour; else
// it jumps pseudo-randomly.
func chase(s trace.Sink, refs uint64, r *rand.Rand, footprint uint64, nodeSize uint64, gap uint32, writeFrac float64, locality float64) error {
	base, err := s.Mmap(footprint)
	if err != nil {
		return err
	}
	if err := initRegion(s, base, footprint); err != nil {
		return err
	}
	if err := auxRegions(s, r); err != nil {
		return err
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	nodes := pow2Floor(footprint / nodeSize)
	gen := newLCG(uint64(r.Int63()), nodes)
	node := gen.next()
	for n := uint64(0); n < refs; n++ {
		if r.Float64() < locality {
			node = (node + 1) & (nodes - 1)
		} else {
			node = gen.next()
		}
		a := base + addr.Virt(node*nodeSize)
		if err := s.Ref(trace.Ref{Addr: a, Write: r.Float64() < writeFrac, Dep: true, Gap: gap}); err != nil {
			return err
		}
	}
	return nil
}

// gups emits uniformly random read-modify-write updates over a table
// (the HPCC RandomAccess kernel): no locality at all, the worst case for
// any coalescing or clustering scheme (paper §IV-B).
func gups(s trace.Sink, refs uint64, r *rand.Rand, footprint uint64, gap uint32) error {
	base, err := s.Mmap(footprint)
	if err != nil {
		return err
	}
	if err := initRegion(s, base, footprint); err != nil {
		return err
	}
	if err := auxRegions(s, r); err != nil {
		return err
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	words := footprint / 8
	for n := uint64(0); n < refs/2; n++ {
		a := base + addr.Virt(uint64(r.Int63())%words*8)
		// RMW: load then store to the same word.
		if err := s.Ref(trace.Ref{Addr: a, Gap: gap}); err != nil {
			return err
		}
		if err := s.Ref(trace.Ref{Addr: a, Write: true, Dep: true, Gap: 0}); err != nil {
			return err
		}
	}
	return nil
}

// stream sweeps `arrays` equal arrays sequentially at the given byte
// stride, with a randomFrac fraction of references going to random
// positions (indirectly indexed arrays, as in lbm's distribution
// gathering and roms' curvilinear indexing).
func stream(s trace.Sink, refs uint64, footprint uint64, arrays int, stride uint64, gap uint32, writeFrac, randomFrac float64, r *rand.Rand) error {
	bases := make([]addr.Virt, arrays)
	per := footprint / uint64(arrays)
	for i := range bases {
		b, err := s.Mmap(per)
		if err != nil {
			return err
		}
		bases[i] = b
		if err := initRegion(s, b, per); err != nil {
			return err
		}
	}
	if err := auxRegions(s, r); err != nil {
		return err
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	var pos uint64
	for n := uint64(0); n < refs; {
		for i := 0; i < arrays && n < refs; i++ {
			off := pos % per
			if r.Float64() < randomFrac {
				off = uint64(r.Int63()) % per
			}
			w := writeFrac > 0 && r.Float64() < writeFrac
			if err := s.Ref(trace.Ref{Addr: bases[i] + addr.Virt(off), Write: w, Gap: gap}); err != nil {
				return err
			}
			n++
		}
		pos += stride
	}
	return nil
}

// stencil3d sweeps a 3-D grid of `fields` co-located arrays accessing the
// 7-point neighbourhood per cell (cactuBSSN evolves dozens of grid
// functions; fotonik3d a handful), plus a gatherFrac of irregular
// references (material/index lookups).
func stencil3d(s trace.Sink, refs uint64, footprint uint64, fields int, nx, ny uint64, gap uint32, gatherFrac float64, r *rand.Rand) error {
	per := footprint / uint64(fields)
	bases := make([]addr.Virt, fields)
	for i := range bases {
		b, err := s.Mmap(per)
		if err != nil {
			return err
		}
		bases[i] = b
		if err := initRegion(s, b, per); err != nil {
			return err
		}
	}
	if err := auxRegions(s, r); err != nil {
		return err
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	cell := uint64(8)
	cells := per / cell
	planeStride := nx * ny * cell
	rowStride := nx * cell
	var i uint64
	for n := uint64(0); n < refs; {
		center := (i % cells) * cell
		i += 4
		f := bases[int(i)%fields]
		offsets := [4]uint64{center, center + rowStride, center + planeStride, center + cell}
		for _, off := range offsets {
			if n >= refs {
				break
			}
			a := f + addr.Virt(off%per)
			if r.Float64() < gatherFrac {
				a = bases[r.Intn(fields)] + addr.Virt(uint64(r.Int63())%per)
			}
			if err := s.Ref(trace.Ref{Addr: a, Write: off == center, Gap: gap}); err != nil {
				return err
			}
			n++
		}
	}
	return nil
}

// binarySearchLookups emits XSBench-style unionized-energy-grid lookups:
// each lookup starts a dependent binary-search probe sequence over the
// sorted grid, then reads a handful of cross-section rows at unrelated
// random positions.
func binarySearchLookups(s trace.Sink, refs uint64, r *rand.Rand, footprint uint64, gap uint32) error {
	gridBytes := footprint * 2 / 5
	xsBytes := footprint - gridBytes
	grid, err := s.Mmap(gridBytes)
	if err != nil {
		return err
	}
	xs, err := s.Mmap(xsBytes)
	if err != nil {
		return err
	}
	if err := initRegion(s, grid, gridBytes); err != nil {
		return err
	}
	if err := initRegion(s, xs, xsBytes); err != nil {
		return err
	}
	if err := auxRegions(s, r); err != nil {
		return err
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	entries := gridBytes / 16
	for n := uint64(0); n < refs; {
		// Binary search over the sorted grid: ~log2(entries) probes.
		lo, hi := uint64(0), entries
		for hi-lo > 1 && n < refs {
			mid := (lo + hi) / 2
			if err := s.Ref(trace.Ref{Addr: grid + addr.Virt(mid*16), Dep: true, Gap: gap}); err != nil {
				return err
			}
			n++
			if r.Intn(2) == 0 {
				hi = mid
			} else {
				lo = mid
			}
		}
		// Then gather 5 nuclide rows scattered through the XS table.
		for j := 0; j < 5 && n < refs; j++ {
			off := uint64(r.Int63()) % (xsBytes / 64) * 64
			if err := s.Ref(trace.Ref{Addr: xs + addr.Virt(off), Gap: gap}); err != nil {
				return err
			}
			n++
		}
	}
	return nil
}

// bfs emits a Graph 500-style breadth-first search over an implicit
// random graph in CSR form: random xadj indexing, sequential adjacency
// block reads, and random parent-array updates.
func bfs(s trace.Sink, refs uint64, r *rand.Rand, vertices uint64, avgDegree uint64, gap uint32) error {
	xadjBytes := (vertices + 1) * 8
	adjBytes := vertices * avgDegree * 8
	parentBytes := vertices * 8
	xadj, err := s.Mmap(xadjBytes)
	if err != nil {
		return err
	}
	adj, err := s.Mmap(adjBytes)
	if err != nil {
		return err
	}
	parent, err := s.Mmap(parentBytes)
	if err != nil {
		return err
	}
	for _, reg := range []struct {
		b  addr.Virt
		sz uint64
	}{{xadj, xadjBytes}, {adj, adjBytes}, {parent, parentBytes}} {
		if err := initRegion(s, reg.b, reg.sz); err != nil {
			return err
		}
	}
	if err := auxRegions(s, r); err != nil {
		return err
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	var n uint64
	u := uint64(r.Int63()) % vertices
	for n < refs {
		// Read xadj[u] (random vertex position).
		if err := s.Ref(trace.Ref{Addr: xadj + addr.Virt(u*8), Dep: true, Gap: gap}); err != nil {
			return err
		}
		n++
		deg := 1 + uint64(r.Int63())%(2*avgDegree)
		start := (u * avgDegree) % (vertices * avgDegree)
		var next uint64
		for j := uint64(0); j < deg && n < refs; j++ {
			// Adjacency reads are sequential within the vertex's block.
			if err := s.Ref(trace.Ref{Addr: adj + addr.Virt(((start+j)%(vertices*avgDegree))*8), Gap: gap}); err != nil {
				return err
			}
			n++
			// The neighbour's parent check/update is a random access.
			v := hashVertex(u, j) % vertices
			if err := s.Ref(trace.Ref{Addr: parent + addr.Virt(v*8), Dep: true, Write: j == 0, Gap: 1}); err != nil {
				return err
			}
			n++
			if j == 0 {
				next = v
			}
		}
		u = next
	}
	return nil
}

// hashVertex is a deterministic neighbour function (splitmix64-style).
func hashVertex(u, j uint64) uint64 {
	x := u*0x9e3779b97f4a7c15 + j + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// transactions emits DBx1000-style OLTP transactions: a B-tree index
// descent (dependent, upper levels hot) followed by tuple reads/updates at
// random rows across a handful of tables.
func transactions(s trace.Sink, refs uint64, r *rand.Rand, footprint uint64, gap uint32) error {
	const tables = 4
	indexBytes := footprint / 8
	tableBytes := (footprint - indexBytes) / tables
	index, err := s.Mmap(indexBytes)
	if err != nil {
		return err
	}
	if err := initRegion(s, index, indexBytes); err != nil {
		return err
	}
	var bases [tables]addr.Virt
	for i := range bases {
		b, err := s.Mmap(tableBytes)
		if err != nil {
			return err
		}
		bases[i] = b
		if err := initRegion(s, b, tableBytes); err != nil {
			return err
		}
	}
	if err := auxRegions(s, r); err != nil {
		return err
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	rows := tableBytes / 128
	for n := uint64(0); n < refs; {
		// Index descent: root (hot), inner (warm), leaf (random).
		levels := [3]uint64{
			uint64(r.Int63()) % 64,
			uint64(r.Int63()) % (indexBytes / 4096 / 64),
			uint64(r.Int63()) % (indexBytes / 4096),
		}
		for _, l := range levels {
			if n >= refs {
				break
			}
			if err := s.Ref(trace.Ref{Addr: index + addr.Virt(l*4096%indexBytes), Dep: true, Gap: gap}); err != nil {
				return err
			}
			n++
		}
		// Tuple ops: 4 accesses across tables, 1 in 3 writes.
		for j := 0; j < 4 && n < refs; j++ {
			tb := bases[r.Intn(tables)]
			row := uint64(r.Int63()) % rows
			if err := s.Ref(trace.Ref{Addr: tb + addr.Virt(row*128), Write: r.Intn(3) == 0, Gap: gap}); err != nil {
				return err
			}
			n++
		}
	}
	return nil
}

// phased models gcc: many mapped regions of varying size (one per pass
// data structure), accessed in phases with zipf-like region popularity and
// sequential runs within a region. The many distinct mmaps are what stress
// RMM's 32-entry Range TLB (§IV-B), and the sub-2MB region sizes are what
// starve THP of promotion opportunities.
func phased(s trace.Sink, refs uint64, r *rand.Rand, regions int, minBytes, maxBytes uint64, gap uint32) error {
	bases := make([]addr.Virt, regions)
	sizes := make([]uint64, regions)
	for i := 0; i < regions; i++ {
		sz := minBytes + uint64(r.Int63())%(maxBytes-minBytes)
		sz = (sz + addr.BasePageSize - 1) &^ (addr.BasePageSize - 1)
		b, err := s.Mmap(sz)
		if err != nil {
			return err
		}
		bases[i] = b
		sizes[i] = sz
		if err := initRegion(s, b, sz); err != nil {
			return err
		}
	}
	if err := auxRegions(s, r); err != nil {
		return err
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	// Compilation passes have phase locality across structures (a few
	// arenas are hot at a time: high zipf skew) but pointer-chase *within*
	// a structure: IR nodes scatter across the arena's pages.
	zipf := rand.NewZipf(r, 1.6, 1, uint64(regions-1))
	for n := uint64(0); n < refs; {
		reg := int(zipf.Uint64())
		// A burst of 4-16 dependent node visits within the arena.
		burst := 4 + uint64(r.Int63())%12
		for j := uint64(0); j < burst && n < refs; j++ {
			off := uint64(r.Int63()) % sizes[reg] &^ 63
			if err := s.Ref(trace.Ref{Addr: bases[reg] + addr.Virt(off), Write: j%8 == 0, Dep: true, Gap: gap}); err != nil {
				return err
			}
			n++
		}
	}
	return nil
}

// hotCold models cache-friendly SPEC codes (low MPKI): a small hot region
// absorbs most references; a cold region is scanned occasionally.
func hotCold(s trace.Sink, refs uint64, r *rand.Rand, hotBytes, coldBytes uint64, hotFrac float64, gap uint32) error {
	hot, err := s.Mmap(hotBytes)
	if err != nil {
		return err
	}
	cold, err := s.Mmap(coldBytes)
	if err != nil {
		return err
	}
	if err := initRegion(s, hot, hotBytes); err != nil {
		return err
	}
	if err := initRegion(s, cold, coldBytes); err != nil {
		return err
	}
	if err := auxRegions(s, r); err != nil {
		return err
	}
	trace.AnnouncePhase(s, trace.MainPhase)
	var coldPos uint64
	for n := uint64(0); n < refs; n++ {
		var a addr.Virt
		if r.Float64() < hotFrac {
			a = hot + addr.Virt(uint64(r.Int63())%hotBytes)
		} else if r.Intn(2) == 0 {
			// Half the cold traffic scans sequentially...
			a = cold + addr.Virt(coldPos%coldBytes)
			coldPos += 64
		} else {
			// ...and half lands at random (hash tables, data-dependent
			// lookups): the source of these codes' small residual MPKI.
			a = cold + addr.Virt(uint64(r.Int63())%coldBytes)
		}
		if err := s.Ref(trace.Ref{Addr: a, Write: n%5 == 0, Gap: gap}); err != nil {
			return err
		}
	}
	return nil
}
