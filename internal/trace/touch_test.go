package trace

import (
	"fmt"
	"slices"
	"testing"

	"tps/internal/addr"
)

// sweepRefs is a first-touch sweep as per-page references: one write per
// base page of [base, base+size), the last page possibly partial.
func sweepRefs(base addr.Virt, size uint64, gap uint32) []Ref {
	var out []Ref
	for off := uint64(0); off < size; off += addr.BasePageSize {
		out = append(out, Ref{Addr: base + addr.Virt(off), Write: true, Gap: gap})
	}
	return out
}

// sweepSizes cover the empty sweep, one partial page, exact batch
// multiples and sizes one page on either side of them.
var sweepSizes = []uint64{
	0, 100, addr.BasePageSize, 511 * addr.BasePageSize, 512 * addr.BasePageSize,
	513 * addr.BasePageSize, 1300*addr.BasePageSize + 7, 2048 * addr.BasePageSize,
}

// eventLog is a sink that records every event it receives, in order:
// "ref", "batch <n>" or "touch <pages>", plus the references themselves.
type eventLog struct {
	recordSink
	events []string
}

func (l *eventLog) Ref(r Ref) error {
	l.events = append(l.events, "ref")
	return l.recordSink.Ref(r)
}

// batchLog adds batched delivery to an eventLog.
type batchLog struct{ eventLog }

func (l *batchLog) RefBatch(refs []Ref) error {
	l.events = append(l.events, fmt.Sprintf("batch %d", len(refs)))
	l.refs = append(l.refs, refs...)
	return nil
}

// touchLog adds whole-sweep delivery to a batchLog.
type touchLog struct{ batchLog }

func (l *touchLog) Touch(base addr.Virt, size uint64, gap uint32) error {
	l.events = append(l.events, fmt.Sprintf("touch %d", TouchRefs(size)))
	l.refs = append(l.refs, sweepRefs(base, size, gap)...)
	return nil
}

func TestTouchFallbackBatchesForBatchSink(t *testing.T) {
	for _, size := range sweepSizes {
		l := &batchLog{}
		if err := Touch(l, 1<<30, size, 256); err != nil {
			t.Fatal(err)
		}
		if want := sweepRefs(1<<30, size, 256); !slices.Equal(l.refs, want) {
			t.Fatalf("size %d: got %d refs, want the %d per-page refs", size, len(l.refs), len(want))
		}
		var delivered uint64
		for _, e := range l.events {
			var n uint64
			if _, err := fmt.Sscanf(e, "batch %d", &n); err != nil || n == 0 || n > BatchSize {
				t.Fatalf("size %d: event %q, want batches of 1..%d refs", size, e, BatchSize)
			}
			delivered += n
		}
		if want := TouchRefs(size); delivered != want || len(l.events) != int((want+BatchSize-1)/BatchSize) {
			t.Errorf("size %d: %d refs in %d batches, want %d in full batches", size, delivered, len(l.events), want)
		}
	}
}

func TestTouchFallbackOneRefAtATimeForPlainSink(t *testing.T) {
	for _, size := range sweepSizes {
		l := &eventLog{}
		if err := Touch(l, 1<<30, size, 9); err != nil {
			t.Fatal(err)
		}
		want := sweepRefs(1<<30, size, 9)
		if !slices.Equal(l.refs, want) || len(l.events) != len(want) {
			t.Errorf("size %d: %d refs in %d events, want %d single refs", size, len(l.refs), len(l.events), len(want))
		}
	}
}

func TestTouchReachesTouchSinkWhole(t *testing.T) {
	l := &touchLog{}
	if err := Touch(l, 1<<30, 1300*addr.BasePageSize+7, 256); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(l.events, []string{"touch 1301"}) {
		t.Errorf("events %v, want one touch of 1301 pages", l.events)
	}
}

func TestCountingSinkTouchMatchesRefs(t *testing.T) {
	for _, size := range sweepSizes {
		touched := &CountingSink{Sink: &touchLog{}}
		perRef := &CountingSink{Sink: &recordSink{}}
		touched.Ref(Ref{Addr: 1, Gap: 3})
		perRef.Ref(Ref{Addr: 1, Gap: 3})
		if err := touched.Touch(1<<30, size, 256); err != nil {
			t.Fatal(err)
		}
		for _, r := range sweepRefs(1<<30, size, 256) {
			if err := perRef.Ref(r); err != nil {
				t.Fatal(err)
			}
		}
		if touched.Refs != perRef.Refs || touched.Instructions != perRef.Instructions || touched.Writes != perRef.Writes {
			t.Errorf("size %d: touch counts refs=%d instrs=%d writes=%d, per-ref %d/%d/%d", size,
				touched.Refs, touched.Instructions, touched.Writes, perRef.Refs, perRef.Instructions, perRef.Writes)
		}
		got, want := touched.Sink.(*touchLog).refs, perRef.Sink.(*recordSink).refs
		if !slices.Equal(got, want) {
			t.Errorf("size %d: forwarded %d refs, want %d", size, len(got), len(want))
		}
	}
}

// TestCountTouchMatchesCount holds CountTouch, the tally of a sweep, to
// Count of the sweep's per-page references, at gaps from 0 to the
// largest.
func TestCountTouchMatchesCount(t *testing.T) {
	for _, size := range sweepSizes {
		for _, gap := range []uint32{0, 16, ^uint32(0)} {
			var touched, perRef CountingSink
			touched.CountTouch(TouchRefs(size), gap)
			perRef.Count(sweepRefs(0, size, gap))
			if touched != perRef {
				t.Errorf("size %d, gap %d: CountTouch tallied %+v, Count %+v", size, gap, touched, perRef)
			}
		}
	}
}

func TestBatcherFlushesBeforeTouch(t *testing.T) {
	cases := []struct {
		name string
		sink interface {
			Sink
			log() *eventLog
		}
		want []string
	}{
		{"touch sink", &touchLog{}, []string{"batch 2", "touch 600", "batch 1"}},
		{"batch sink", &batchLog{}, []string{"batch 2", "batch 512", "batch 88", "batch 1"}},
	}
	for _, tc := range cases {
		b := NewBatcher(tc.sink)
		b.Ref(Ref{Addr: 1})
		b.Ref(Ref{Addr: 2})
		if err := b.Touch(1<<30, 600*addr.BasePageSize, 256); err != nil {
			t.Fatal(err)
		}
		b.Ref(Ref{Addr: 3})
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		l := tc.sink.log()
		if !slices.Equal(l.events, tc.want) {
			t.Errorf("%s: events %v, want %v", tc.name, l.events, tc.want)
		}
		want := append([]Ref{{Addr: 1}, {Addr: 2}}, sweepRefs(1<<30, 600*addr.BasePageSize, 256)...)
		want = append(want, Ref{Addr: 3})
		if !slices.Equal(l.refs, want) {
			t.Errorf("%s: references out of order", tc.name)
		}
	}
}

func (l *eventLog) log() *eventLog { return l }

// batchCount is a BatchSink that only counts the references it receives.
type batchCount struct {
	recordSink
	n int
}

func (c *batchCount) RefBatch(refs []Ref) error {
	c.n += len(refs)
	return nil
}

// TestBatcherTouchAllocatesNothing: a Batcher builds a sweep's batches for
// a sink that cannot touch in its own buffer.
func TestBatcherTouchAllocatesNothing(t *testing.T) {
	sink := &batchCount{}
	b := NewBatcher(sink)
	allocs := testing.AllocsPerRun(10, func() {
		if err := b.Touch(1<<30, 1300*addr.BasePageSize, 256); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a 1300-page sweep through a Batcher allocates %.0f objects, want 0", allocs)
	}
	if sink.n != 11*1300 {
		t.Errorf("the sink received %d references, want %d", sink.n, 11*1300)
	}
}
