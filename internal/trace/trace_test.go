package trace

import (
	"errors"
	"strings"
	"testing"

	"tps/internal/addr"
)

type recordSink struct {
	refs   []Ref
	phases []string
	maps   int
}

func (r *recordSink) Mmap(size uint64) (addr.Virt, error) {
	r.maps++
	return addr.Virt(r.maps) << 30, nil
}
func (r *recordSink) Munmap(base addr.Virt) error { return nil }
func (r *recordSink) Ref(ref Ref) error {
	r.refs = append(r.refs, ref)
	return nil
}
func (r *recordSink) Phase(name string) { r.phases = append(r.phases, name) }

func TestCountingSinkTallies(t *testing.T) {
	base := &recordSink{}
	c := &CountingSink{Sink: base}
	c.Ref(Ref{Addr: 1, Gap: 9})
	c.Ref(Ref{Addr: 2, Write: true, Gap: 0})
	if c.Refs != 2 || c.Writes != 1 {
		t.Errorf("refs=%d writes=%d", c.Refs, c.Writes)
	}
	if c.Instructions != 11 { // (9+1) + (0+1)
		t.Errorf("instructions=%d", c.Instructions)
	}
	if len(base.refs) != 2 {
		t.Error("refs not forwarded")
	}
}

func TestCountingSinkPhaseResets(t *testing.T) {
	base := &recordSink{}
	c := &CountingSink{Sink: base}
	c.Ref(Ref{Addr: 1, Gap: 100})
	c.Phase(MainPhase)
	if c.Refs != 0 || c.Instructions != 0 || c.Writes != 0 {
		t.Errorf("counters not reset: %+v", c)
	}
	c.Ref(Ref{Addr: 2, Gap: 3})
	if c.Refs != 1 || c.Instructions != 4 {
		t.Errorf("post-phase counting wrong: refs=%d instrs=%d", c.Refs, c.Instructions)
	}
	// The marker is forwarded to the wrapped sink.
	if len(base.phases) != 1 || base.phases[0] != MainPhase {
		t.Errorf("phases=%v", base.phases)
	}
	// Non-main phases don't reset.
	c.Phase("checkpoint")
	if c.Refs != 1 {
		t.Error("non-main phase reset counters")
	}
}

func TestAnnouncePhaseOnPlainSink(t *testing.T) {
	// A sink without PhaseSink must be a no-op, not a panic.
	plain := struct{ Sink }{}
	AnnouncePhase(plain, MainPhase)
}

func TestAnnouncePhaseForwards(t *testing.T) {
	base := &recordSink{}
	AnnouncePhase(base, "x")
	if len(base.phases) != 1 || base.phases[0] != "x" {
		t.Errorf("phases=%v", base.phases)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	var buf strings.Builder
	fw := NewFileWriter(&buf)
	// Drive a small synthetic stream through the writer.
	b0, err := fw.Mmap(16 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := fw.Mmap(8 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	want := []Ref{
		{Addr: b0 + 0x10, Write: true, Gap: 64},
		{Addr: b0 + 0x5123, Dep: true},
		{Addr: b1 + 0x2000, Gap: 3},
		{Addr: b1, Write: true, Dep: true, Gap: 9},
	}
	for _, r := range want {
		if err := fw.Ref(r); err != nil {
			t.Fatal(err)
		}
	}
	fw.Phase(MainPhase)
	if err := fw.Munmap(b1); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Replay into a recording sink: the stream must reproduce exactly,
	// modulo region base addresses.
	rec := &recordSink{}
	if err := Replay(strings.NewReader(buf.String()), rec); err != nil {
		t.Fatal(err)
	}
	if rec.maps != 2 {
		t.Fatalf("maps=%d", rec.maps)
	}
	if len(rec.refs) != len(want) {
		t.Fatalf("refs=%d, want %d", len(rec.refs), len(want))
	}
	// recordSink assigns bases (i+1)<<30; offsets and flags must match.
	wantOffsets := []uint64{0x10, 0x5123, 0x2000, 0}
	wantRegion := []int{0, 0, 1, 1}
	for i, r := range rec.refs {
		base := addr.Virt(wantRegion[i]+1) << 30
		if r.Addr != base+addr.Virt(wantOffsets[i]) {
			t.Errorf("ref %d addr=%#x", i, uint64(r.Addr))
		}
		if r.Write != want[i].Write || r.Dep != want[i].Dep || r.Gap != want[i].Gap {
			t.Errorf("ref %d = %+v, want %+v", i, r, want[i])
		}
	}
	if len(rec.phases) != 1 || rec.phases[0] != MainPhase {
		t.Errorf("phases=%v", rec.phases)
	}
}

func TestReplayRejectsMalformed(t *testing.T) {
	cases := []string{
		"bogus 1 2\n",
		"r 0 0\n",            // region before any mmap
		"mmap notanumber\n",  // bad size
		"mmap 4096\nr 5 0\n", // out-of-range region
		"mmap 4096\nr 0 xyz\n",
		"mmap 4096\nr 0 0 q\n",
		"munmap 3\n",
		"mmap 4096\nmunmap\n",   // munmap without its region
		"mmap 4096\nr 0 4096\n", // offset past the region end
		"mmap 1099511627777\n",  // region above the 1 TB limit
	}
	for _, c := range cases {
		if err := Replay(strings.NewReader(c), &recordSink{}); err == nil {
			t.Errorf("accepted malformed trace %q", c)
		}
	}
	// Comments and blank lines are fine.
	ok := "# comment\n\nmmap 4096\nr 0 0 d g12\n"
	if err := Replay(strings.NewReader(ok), &recordSink{}); err != nil {
		t.Errorf("rejected valid trace: %v", err)
	}
}

func TestFileWriterRejectsUnknownAddress(t *testing.T) {
	fw := NewFileWriter(&strings.Builder{})
	if err := fw.Ref(Ref{Addr: 0xdead}); err == nil {
		t.Error("ref outside regions accepted")
	}
	if err := fw.Munmap(0xbeef); err == nil {
		t.Error("munmap of unknown base accepted")
	}
}

// failOnceSink fails its first batch and accepts everything after it.
type failOnceSink struct {
	recordSink
	failed bool
}

var errFailOnce = errors.New("batch failed")

func (f *failOnceSink) RefBatch(refs []Ref) error {
	if !f.failed {
		f.failed = true
		return errFailOnce
	}
	f.refs = append(f.refs, refs...)
	return nil
}

// TestBatcherFlushErrorIsSticky: a flush that fails inside Phase, which
// cannot return it, fails every later call, and the Batcher forwards
// nothing after it.
func TestBatcherFlushErrorIsSticky(t *testing.T) {
	sink := &failOnceSink{}
	b := NewBatcher(sink)
	if err := b.Ref(Ref{Addr: 1}); err != nil {
		t.Fatal(err)
	}
	b.Phase(MainPhase)
	calls := []struct {
		name string
		call func() error
	}{
		{"Ref", func() error { return b.Ref(Ref{Addr: 2}) }},
		{"Flush", b.Flush},
		{"Touch", func() error { return b.Touch(1<<30, 4*addr.BasePageSize, 0) }},
		{"Mmap", func() error { _, err := b.Mmap(addr.BasePageSize); return err }},
		{"Munmap", func() error { return b.Munmap(1 << 30) }},
	}
	for _, c := range calls {
		if err := c.call(); !errors.Is(err, errFailOnce) {
			t.Errorf("%s after the failed flush returned %v, want %v", c.name, err, errFailOnce)
		}
	}
	if len(sink.refs) != 0 || len(sink.phases) != 0 || sink.maps != 0 {
		t.Errorf("the sink received %d refs, phases %v and %d mmaps after the failed flush", len(sink.refs), sink.phases, sink.maps)
	}
}
