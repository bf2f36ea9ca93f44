package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"tps/internal/addr"
	"tps/internal/trace"
	"tps/internal/workload"
)

// stride spaces the recorder's region bases; Replay caps every mapping at
// 1 TB and keeps offsets inside their region, so base/stride recovers the
// region and the remainder the offset.
const stride = 1 << 40

// event is one Sink call in region-relative form, so two replays compare
// without depending on where either sink placed its regions.
type event struct {
	op         string
	size       uint64 // mmap
	reg        int    // munmap, ref
	off        uint64 // ref
	write, dep bool
	gap        uint32
	name       string // phase
}

// recorder is a Sink that logs every call Replay makes.
type recorder struct {
	regions int
	events  []event
}

func (r *recorder) Mmap(size uint64) (addr.Virt, error) {
	r.regions++
	r.events = append(r.events, event{op: "mmap", size: size})
	return addr.Virt(uint64(r.regions) * stride), nil
}

func (r *recorder) Munmap(base addr.Virt) error {
	r.events = append(r.events, event{op: "munmap", reg: int(uint64(base)/stride) - 1})
	return nil
}

func (r *recorder) Ref(ref trace.Ref) error {
	r.events = append(r.events, event{
		op: "ref", reg: int(uint64(ref.Addr)/stride) - 1, off: uint64(ref.Addr) % stride,
		write: ref.Write, dep: ref.Dep, gap: ref.Gap,
	})
	return nil
}

func (r *recorder) Phase(name string) {
	r.events = append(r.events, event{op: "phase", name: name})
}

// rewrite serializes a recorded event sequence through a FileWriter.
func rewrite(t *testing.T, events []event) []byte {
	var buf bytes.Buffer
	fw := trace.NewFileWriter(&buf)
	var bases []addr.Virt
	for _, e := range events {
		var err error
		switch e.op {
		case "mmap":
			var b addr.Virt
			b, err = fw.Mmap(e.size)
			bases = append(bases, b)
		case "munmap":
			err = fw.Munmap(bases[e.reg])
		case "ref":
			err = fw.Ref(trace.Ref{Addr: bases[e.reg] + addr.Virt(e.off), Write: e.write, Dep: e.dep, Gap: e.gap})
		case "phase":
			fw.Phase(e.name)
		}
		if err != nil {
			t.Fatalf("FileWriter rejected an accepted %s event %+v: %v", e.op, e, err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReplay feeds arbitrary bytes to the trace-file parser. Replay must
// never panic, and every input it accepts must survive a round trip: the
// events it delivered, re-serialized through FileWriter and replayed
// again, come back as the identical sequence.
func FuzzReplay(f *testing.F) {
	var buf bytes.Buffer
	fw := trace.NewFileWriter(&buf)
	if err := workload.Sparse(64*addr.BasePageSize, 0.5).Run(fw, 64, 1); err != nil {
		f.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# comment\n\nmmap 65536\nmmap 8192\nw 0 16 g64\nr 0 20771 d\nphase main\nr 1 8191 d g9\nmunmap 1\n"))
	f.Add([]byte("mmap 4096\nmunmap\n"))
	f.Add([]byte("mmap 4096\nr 0 4096\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		first := &recorder{}
		if err := trace.Replay(bytes.NewReader(data), first); err != nil {
			return
		}
		again := &recorder{}
		if err := trace.Replay(bytes.NewReader(rewrite(t, first.events)), again); err != nil {
			t.Fatalf("re-serialized trace rejected: %v", err)
		}
		if !reflect.DeepEqual(first.events, again.events) {
			t.Fatalf("round trip changed the event sequence:\n got %+v\nwant %+v", again.events, first.events)
		}
	})
}
