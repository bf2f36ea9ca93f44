// Package series is the epoch-sampled time-series layer: inside the ref
// loop the simulator snapshots cumulative counters every Every references
// into a preallocated ring (zero allocations in steady state), and at
// collect time the ring is flushed as one JSONL record per epoch with the
// per-epoch deltas already computed. The temporal phenomena the paper
// argues from — miss rates collapsing as promotions cascade, census mass
// migrating toward 1 GB pages — are only visible in this projection; the
// end-state Result cannot show them.
//
// Two design rules keep the layer honest:
//
//  1. The ring stores CUMULATIVE points, not deltas. Decimation (dropping
//     every other point when the ring fills, doubling the epoch interval)
//     then stays trivially correct — a surviving point's delta against its
//     new predecessor is exact, not an approximation summed from halves.
//     Deltas are computed once, at flush time.
//
//  2. Records carry integers only (counter deltas and an instantaneous
//     census), never derived floats. Rates are computed by the reader
//     (Record methods, jq, plotting code), so the JSONL is byte-stable
//     across architectures and trivially diffable.
package series

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"tps/internal/addr"
)

// NumOrders spans the page-size axis: one census/promotion slot per
// supported order, 4 KB (order 0) through 1 GB (order 18).
const NumOrders = int(addr.MaxOrder) + 1

// DefaultEvery is the sampling interval when the caller does not choose
// one: every 2^20 references, ~20 points for the default 1M-ref cell and
// a few hundred for the long-run sweeps.
const DefaultEvery = 1 << 20

// DefaultRingCap bounds the preallocated ring. A run longer than
// Every×DefaultRingCap references decimates: the interval doubles and
// every other point is dropped, so the ring never reallocates and the
// series never exceeds this many points.
const DefaultRingCap = 512

// Point is one cumulative counter snapshot at stream position Refs.
// Counters accumulate from machine construction (warmup included): the
// series shows the whole run, and the reader may locate the warmup/main
// boundary by the fault burst rather than by a side channel.
type Point struct {
	Refs uint64 // stream position (references delivered so far)

	// Translation hardware (mmu.Stats projection, summed over procs).
	Accesses    uint64
	L1Hits      uint64
	L1Misses    uint64
	L2Hits      uint64 // STLB hits
	L2Misses    uint64 // STLB misses
	SidecarHits uint64
	Walks       uint64
	WalkRefs    uint64
	TCServes    uint64 // translation-cache fast-path serves

	// OS (vmm.Stats projection).
	Faults      uint64
	DemandPages uint64
	Promotions  uint64
	PageMerges  uint64

	// PromosByOrder counts promotions by target page order, cumulative.
	PromosByOrder [NumOrders]uint64

	// Census is the instantaneous mapped-page census by order — a
	// snapshot, not a counter, so flushing never differences it.
	Census [NumOrders]uint64
}

// Ring is the preallocated decimating sample buffer. Not safe for
// concurrent use; the sampler owns it from a single goroutine.
type Ring struct {
	every uint64
	pts   []Point
}

// NewRing returns a ring sampling at the given interval with storage for
// capacity points (DefaultRingCap when capacity <= 0). The backing array
// is allocated here, once; Push never allocates.
func NewRing(every uint64, capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	if every == 0 {
		every = DefaultEvery
	}
	return &Ring{every: every, pts: make([]Point, 0, capacity)}
}

// Every returns the current epoch interval, which doubles on each
// decimation.
func (r *Ring) Every() uint64 { return r.every }

// Points returns the buffered cumulative points in stream order. The
// slice aliases the ring's storage; callers consume it before pushing
// again.
func (r *Ring) Points() []Point { return r.pts }

// Full reports whether the next Push would decimate first.
func (r *Ring) Full() bool { return len(r.pts) == cap(r.pts) }

// Decimate drops the points at even indices — the odd multiples of the
// current interval — in place and doubles the interval. Because the ring
// holds cumulative points, the survivors are an EXACT series on the
// coarser grid, not an approximation. Callers skip the sample that
// triggered the overflow when its position falls off the coarser grid
// (the sim sampler does); otherwise intervals degrade with every push.
func (r *Ring) Decimate() {
	keep := 0
	for i := 1; i < len(r.pts); i += 2 {
		r.pts[keep] = r.pts[i]
		keep++
	}
	r.pts = r.pts[:keep]
	r.every *= 2
}

// Push appends a cumulative sample, decimating first when the ring is
// full. Never reallocates.
func (r *Ring) Push(p Point) {
	if r.Full() {
		r.Decimate()
	}
	r.pts = append(r.pts, p)
}

// Meta identifies the cell a series belongs to.
type Meta struct {
	Workload string
	Scheme   string
	Seed     int64
}

// Counters is the per-epoch delta block of a Record.
type Counters struct {
	Refs        uint64 `json:"refs"`
	Accesses    uint64 `json:"accesses"`
	L1Hits      uint64 `json:"l1_hits"`
	L1Misses    uint64 `json:"l1_misses"`
	L2Hits      uint64 `json:"l2_hits"`
	L2Misses    uint64 `json:"l2_misses"`
	SidecarHits uint64 `json:"sidecar_hits"`
	Walks       uint64 `json:"walks"`
	WalkRefs    uint64 `json:"walk_refs"`
	TCServes    uint64 `json:"tc_serves"`
	Faults      uint64 `json:"faults"`
	DemandPages uint64 `json:"demand_pages"`
	Promotions  uint64 `json:"promotions"`
	PageMerges  uint64 `json:"page_merges"`
}

// Record is one epoch of one cell's series as it appears on the wire:
// identity, grid position, the per-epoch counter deltas, and the
// instantaneous page-size census at the epoch boundary.
type Record struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Seed     int64  `json:"seed"`
	Epoch    int    `json:"epoch"`
	Every    uint64 `json:"every"` // final interval after any decimation
	Refs     uint64 `json:"refs"`  // cumulative stream position

	Delta  Counters          `json:"delta"`
	Promos [NumOrders]uint64 `json:"promos_by_order"`
	Census [NumOrders]uint64 `json:"census"`
}

// L1MissRate returns the epoch's L1 TLB miss rate, or 0 for an idle epoch.
func (r Record) L1MissRate() float64 {
	if r.Delta.Accesses == 0 {
		return 0
	}
	return float64(r.Delta.L1Misses) / float64(r.Delta.Accesses)
}

// MeanWalkDepth returns the epoch's mean page-walk memory references per
// walk — the walk-elimination signal the paper plots over time.
func (r Record) MeanWalkDepth() float64 {
	if r.Delta.Walks == 0 {
		return 0
	}
	return float64(r.Delta.WalkRefs) / float64(r.Delta.Walks)
}

// delta differences two cumulative points into an epoch's Counters.
func delta(cur, prev Point) Counters {
	return Counters{
		Refs:        cur.Refs - prev.Refs,
		Accesses:    cur.Accesses - prev.Accesses,
		L1Hits:      cur.L1Hits - prev.L1Hits,
		L1Misses:    cur.L1Misses - prev.L1Misses,
		L2Hits:      cur.L2Hits - prev.L2Hits,
		L2Misses:    cur.L2Misses - prev.L2Misses,
		SidecarHits: cur.SidecarHits - prev.SidecarHits,
		Walks:       cur.Walks - prev.Walks,
		WalkRefs:    cur.WalkRefs - prev.WalkRefs,
		TCServes:    cur.TCServes - prev.TCServes,
		Faults:      cur.Faults - prev.Faults,
		DemandPages: cur.DemandPages - prev.DemandPages,
		Promotions:  cur.Promotions - prev.Promotions,
		PageMerges:  cur.PageMerges - prev.PageMerges,
	}
}

// RecordsFor converts a flushed ring (cumulative points on a grid of the
// given interval) into wire records with per-epoch deltas. The first
// epoch's delta is against the zero point — the start of the run.
func RecordsFor(meta Meta, every uint64, pts []Point) []Record {
	out := make([]Record, 0, len(pts))
	var prev Point
	for i, p := range pts {
		rec := Record{
			Workload: meta.Workload,
			Scheme:   meta.Scheme,
			Seed:     meta.Seed,
			Epoch:    i,
			Every:    every,
			Refs:     p.Refs,
			Delta:    delta(p, prev),
			Census:   p.Census,
		}
		for o := range p.PromosByOrder {
			rec.Promos[o] = p.PromosByOrder[o] - prev.PromosByOrder[o]
		}
		out = append(out, rec)
		prev = p
	}
	return out
}

// Log serializes series records to a shared JSONL stream. Each cell's
// records are marshaled under the lock and written with a single Write
// call, so concurrent cells interleave at whole-cell granularity and a
// reader never sees a torn line. Errors are sticky, surfaced via Err —
// a failed sink must not abort the simulation that feeds it.
type Log struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewLog wraps w as a series sink.
func NewLog(w io.Writer) *Log { return &Log{w: w} }

// WriteCell flushes one cell's series: the points are converted to
// records and written as one contiguous JSONL block.
func (l *Log) WriteCell(meta Meta, every uint64, pts []Point) {
	if l == nil || len(pts) == 0 {
		return
	}
	var buf bytes.Buffer
	for _, rec := range RecordsFor(meta, every, pts) {
		b, err := json.Marshal(rec)
		if err != nil {
			l.fail(err)
			return
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if _, err := l.w.Write(buf.Bytes()); err != nil {
		l.err = err
	}
}

func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// Err reports the first write or marshal failure, if any.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ParseRecord decodes one JSONL line strictly: unknown fields are
// rejected (schema drift fails loudly, per the telemetry contract), as is
// trailing data after the record, and a record without a scheme or
// interval is malformed.
func ParseRecord(line []byte) (Record, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var rec Record
	if err := dec.Decode(&rec); err != nil {
		return Record{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Record{}, fmt.Errorf("series: trailing data after record")
	}
	if rec.Scheme == "" {
		return Record{}, fmt.Errorf("series: record missing scheme")
	}
	if rec.Every == 0 {
		return Record{}, fmt.Errorf("series: record missing epoch interval")
	}
	return rec, nil
}

// ReadRecords parses a JSONL stream, failing with the 1-based line
// number of the first malformed record. Blank lines are ignored.
func ReadRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		rec, err := ParseRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("series: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
