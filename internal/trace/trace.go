// Package trace defines the memory-reference stream flowing from workload
// generators into the simulator, mirroring the paper's PIN-based tracing of
// "memory management system calls and all memory accesses" (§IV-A).
//
// A workload drives a Sink: it requests mappings (the mmap system calls the
// OS turns into reservations) and emits references. Each reference carries
// the microarchitectural hints the cycle model needs: whether the access
// depends on the previous load (pointer chasing keeps misses on the
// critical path, §I) and how many non-memory instructions precede it
// (setting the workload's MPKI denominator).
package trace

import "tps/internal/addr"

// Ref is one data memory reference.
type Ref struct {
	// Addr is the virtual address referenced.
	Addr addr.Virt
	// Write marks stores.
	Write bool
	// Dep marks a reference whose address depends on the previous load's
	// value (a linked-structure traversal): its latency cannot overlap
	// with the preceding miss.
	Dep bool
	// Gap is the number of non-memory instructions executed since the
	// previous reference.
	Gap uint32
}

// Sink consumes a workload's events.
type Sink interface {
	// Mmap requests an anonymous mapping, returning its base address.
	Mmap(size uint64) (addr.Virt, error)
	// Munmap releases a mapping created by Mmap.
	Munmap(base addr.Virt) error
	// Ref performs one memory reference.
	Ref(r Ref) error
}

// BatchSink is optionally implemented by sinks that can consume references
// a slice at a time. Batched delivery turns the per-reference virtual call
// into a tight slice walk on the receiving side — the simulator's machine
// implements it, and the harness drives it through a Batcher.
type BatchSink interface {
	Sink
	// RefBatch performs the references in order, stopping at the first
	// failure. It must be equivalent to calling Ref once per element.
	RefBatch(refs []Ref) error
}

// EmitBatch delivers refs through s.RefBatch when implemented, or one at a
// time otherwise — the compatibility shim for plain sinks.
func EmitBatch(s Sink, refs []Ref) error {
	if bs, ok := s.(BatchSink); ok {
		return bs.RefBatch(refs)
	}
	for i := range refs {
		if err := s.Ref(refs[i]); err != nil {
			return err
		}
	}
	return nil
}

// TouchSink is optionally implemented by sinks that can consume a whole
// first-touch sweep as one event: the simulator's machine runs it as a
// page loop instead of one reference at a time.
type TouchSink interface {
	Sink
	// Touch performs one write per base page of [base, base+size), in
	// address order, each with the given instruction gap. It must be
	// equivalent to those references delivered through Ref.
	Touch(base addr.Virt, size uint64, gap uint32) error
}

// Touch delivers a first-touch sweep of [base, base+size): one write per
// base page, each with the given gap. A TouchSink receives it as one
// event, a BatchSink as the per-page references in batches of at most
// BatchSize, and any other sink one reference at a time.
func Touch(s Sink, base addr.Virt, size uint64, gap uint32) error {
	return touch(s, nil, base, size, gap)
}

// touch is Touch with the buffer a BatchSink's batches are built in: a
// Batcher passes its own, and nil allocates one.
func touch(s Sink, buf []Ref, base addr.Virt, size uint64, gap uint32) error {
	switch s := s.(type) {
	case TouchSink:
		return s.Touch(base, size, gap)
	case BatchSink:
		pages := TouchRefs(size)
		if buf == nil {
			buf = make([]Ref, min(pages, BatchSize))
		}
		for off := uint64(0); pages > 0; {
			batch := buf[:min(pages, uint64(len(buf)))]
			for i := range batch {
				batch[i] = Ref{Addr: base + addr.Virt(off), Write: true, Gap: gap}
				off += addr.BasePageSize
			}
			if err := s.RefBatch(batch); err != nil {
				return err
			}
			pages -= uint64(len(batch))
		}
		return nil
	}
	for off := uint64(0); off < size; off += addr.BasePageSize {
		if err := s.Ref(Ref{Addr: base + addr.Virt(off), Write: true, Gap: gap}); err != nil {
			return err
		}
	}
	return nil
}

// TouchRefs returns the number of references a sweep of size bytes
// makes: one per base page it starts, the last possibly partial.
func TouchRefs(size uint64) uint64 {
	return (size + addr.BasePageSize - 1) / addr.BasePageSize
}

// BatchSize is the Batcher buffer size, and so the largest batch a
// batching producer delivers: 512 references (8 KB) keeps the flush unit
// comfortably inside the L1 data cache while amortizing the interface
// dispatch down to one call per 512 references.
const BatchSize = 512

// Batcher adapts a per-Ref producer (the workload generators) onto batched
// delivery: references accumulate in a reusable buffer and flush through
// the sink's RefBatch. Mmap, Munmap, and Phase flush first, so the sink
// observes every event in exactly the order it was produced. The first
// failed flush is sticky: every later Ref, Flush, Touch, Mmap and Munmap
// returns it and forwards nothing, so a failure inside Phase (which cannot
// report one) is not lost. The zero value is not usable; construct with
// NewBatcher and call Flush after the final reference.
type Batcher struct {
	sink Sink
	buf  []Ref
	err  error // the first failed flush
}

// NewBatcher wraps a sink in a reference batcher.
func NewBatcher(s Sink) *Batcher {
	return &Batcher{sink: s, buf: make([]Ref, 0, BatchSize)}
}

// Ref implements Sink: buffer the reference, flushing when full.
func (b *Batcher) Ref(r Ref) error {
	if b.err != nil {
		return b.err
	}
	b.buf = append(b.buf, r)
	if len(b.buf) == cap(b.buf) {
		return b.Flush()
	}
	return nil
}

// Flush delivers all buffered references.
func (b *Batcher) Flush() error {
	if b.err != nil || len(b.buf) == 0 {
		return b.err
	}
	b.err = EmitBatch(b.sink, b.buf)
	b.buf = b.buf[:0]
	return b.err
}

// Touch implements TouchSink, flushing buffered references first. A sink
// that batches but cannot touch gets the sweep built in the Batcher's
// buffer, so a sweep allocates nothing.
func (b *Batcher) Touch(base addr.Virt, size uint64, gap uint32) error {
	if err := b.Flush(); err != nil {
		return err
	}
	return touch(b.sink, b.buf[:cap(b.buf)], base, size, gap)
}

// Mmap implements Sink, flushing buffered references first so faults and
// allocations interleave with references exactly as produced.
func (b *Batcher) Mmap(size uint64) (addr.Virt, error) {
	if err := b.Flush(); err != nil {
		return 0, err
	}
	return b.sink.Mmap(size)
}

// Munmap implements Sink, flushing buffered references first.
func (b *Batcher) Munmap(base addr.Virt) error {
	if err := b.Flush(); err != nil {
		return err
	}
	return b.sink.Munmap(base)
}

// Phase implements PhaseSink, flushing so warmup/main counter snapshots
// land on the exact reference boundary the generator announced. A failed
// flush keeps the marker back and surfaces on the next call.
func (b *Batcher) Phase(name string) {
	if b.Flush() == nil {
		AnnouncePhase(b.sink, name)
	}
}

// PhaseSink is optionally implemented by sinks that distinguish execution
// phases. Generators announce the start of their measured main phase with
// Phase(MainPhase) after the initialization sweep; harnesses discard
// warmup statistics at that point (the standard region-of-interest
// methodology — the paper's numbers are dominated by steady state, where
// initialization is a vanishing fraction of the trace).
type PhaseSink interface {
	Phase(name string)
}

// MainPhase is the conventional name of the measured phase.
const MainPhase = "main"

// AnnouncePhase forwards a phase marker if the sink supports it.
func AnnouncePhase(s Sink, name string) {
	if ps, ok := s.(PhaseSink); ok {
		ps.Phase(name)
	}
}

// CountingSink wraps a Sink and tallies instructions and references;
// harnesses embed it to compute MPKI.
type CountingSink struct {
	Sink
	Refs         uint64
	Instructions uint64
	Writes       uint64
}

// Ref implements Sink.
func (c *CountingSink) Ref(r Ref) error {
	c.Count([]Ref{r})
	return c.Sink.Ref(r)
}

// Count tallies refs without delivering them: for a harness that drives
// the wrapped sink itself and keeps the counter as its record.
func (c *CountingSink) Count(refs []Ref) {
	for i := range refs {
		c.Refs++
		c.Instructions += uint64(refs[i].Gap) + 1
		if refs[i].Write {
			c.Writes++
		}
	}
}

// CountTouch tallies a sweep of n pages with the given gap without
// delivering it: n writes, each after gap instructions.
func (c *CountingSink) CountTouch(n uint64, gap uint32) {
	c.Refs += n
	c.Instructions += n * (uint64(gap) + 1)
	c.Writes += n
}

// RefBatch implements BatchSink: tally the batch, then forward it whole so
// a batching producer keeps batched delivery through the wrapped sink.
func (c *CountingSink) RefBatch(refs []Ref) error {
	c.Count(refs)
	return EmitBatch(c.Sink, refs)
}

// Touch implements TouchSink: tally the sweep's references, then forward
// it whole.
func (c *CountingSink) Touch(base addr.Virt, size uint64, gap uint32) error {
	c.CountTouch(TouchRefs(size), gap)
	return Touch(c.Sink, base, size, gap)
}

// Phase implements PhaseSink: counters restart at the measured phase and
// the marker is forwarded to the wrapped sink.
func (c *CountingSink) Phase(name string) {
	if name == MainPhase {
		c.Refs, c.Instructions, c.Writes = 0, 0, 0
	}
	AnnouncePhase(c.Sink, name)
}
