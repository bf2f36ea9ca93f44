package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tps/internal/addr"
)

// Trace file format: one event per line, whitespace-separated.
//
//	mmap <bytes>             request a mapping of at most 1 TB (regions are
//	                         numbered in order of appearance, starting at 0)
//	munmap <region>          release a region
//	phase <name>             phase marker ("main" starts measurement)
//	r <region> <off> [d] [g<gap>]   read at region-relative offset
//	w <region> <off> [d] [g<gap>]   write at region-relative offset
//
// Offsets are region-relative, and must lie inside the region, so a dumped
// trace replays identically under any OS policy (absolute virtual layout
// depends on the policy's alignment choices). `d` marks an address dependence on the previous
// load; `g<N>` gives the instruction gap. Lines starting with '#' are
// comments.

// maxRegion is the largest mapping a trace file may carry. FileWriter
// spaces its synthetic region bases this far apart, so no two regions
// overlap and every address locates to exactly one region and offset.
const maxRegion = 1 << 40

// FileWriter is a Sink that serializes the stream to a trace file.
type FileWriter struct {
	w       *bufio.Writer
	regions []regionSpan
	next    int
}

type regionSpan struct {
	base addr.Virt
	size uint64
}

// NewFileWriter wraps an io.Writer as a recording Sink.
func NewFileWriter(w io.Writer) *FileWriter {
	return &FileWriter{w: bufio.NewWriterSize(w, 1<<20)}
}

// Mmap implements Sink: it assigns the next region number and a synthetic
// base address.
func (f *FileWriter) Mmap(size uint64) (addr.Virt, error) {
	if size > maxRegion {
		return 0, fmt.Errorf("trace: mmap of %d bytes exceeds the %d-byte region limit", size, uint64(maxRegion))
	}
	base := addr.Virt(uint64(f.next+1) * maxRegion)
	f.regions = append(f.regions, regionSpan{base: base, size: size})
	f.next++
	if _, err := fmt.Fprintf(f.w, "mmap %d\n", size); err != nil {
		return 0, err
	}
	return base, nil
}

// Munmap implements Sink.
func (f *FileWriter) Munmap(base addr.Virt) error {
	for i, r := range f.regions {
		if r.base == base {
			_, err := fmt.Fprintf(f.w, "munmap %d\n", i)
			return err
		}
	}
	return fmt.Errorf("trace: munmap of unknown base %#x", uint64(base))
}

// Ref implements Sink.
func (f *FileWriter) Ref(r Ref) error {
	reg, off, err := f.locate(r.Addr)
	if err != nil {
		return err
	}
	op := byte('r')
	if r.Write {
		op = 'w'
	}
	if _, err := fmt.Fprintf(f.w, "%c %d %d", op, reg, off); err != nil {
		return err
	}
	if r.Dep {
		if _, err := f.w.WriteString(" d"); err != nil {
			return err
		}
	}
	if r.Gap != 0 {
		if _, err := fmt.Fprintf(f.w, " g%d", r.Gap); err != nil {
			return err
		}
	}
	return f.w.WriteByte('\n')
}

// Phase implements PhaseSink.
func (f *FileWriter) Phase(name string) {
	fmt.Fprintf(f.w, "phase %s\n", name)
}

// Flush drains buffered output.
func (f *FileWriter) Flush() error { return f.w.Flush() }

func (f *FileWriter) locate(a addr.Virt) (int, uint64, error) {
	for i, r := range f.regions {
		if a >= r.base && a < r.base+addr.Virt(r.size) {
			return i, uint64(a - r.base), nil
		}
	}
	return 0, 0, fmt.Errorf("trace: address %#x outside all regions", uint64(a))
}

// Replay drives a Sink from a trace file produced by FileWriter (or
// written by hand / converted from an external tracer).
func Replay(r io.Reader, s Sink) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var regions []regionSpan
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		fail := func(err error) error {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch fields[0] {
		case "mmap":
			if len(fields) != 2 {
				return fail(fmt.Errorf("mmap wants 1 arg"))
			}
			size, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return fail(err)
			}
			if size > maxRegion {
				return fail(fmt.Errorf("mmap of %d bytes exceeds the %d-byte region limit", size, uint64(maxRegion)))
			}
			base, err := s.Mmap(size)
			if err != nil {
				return fail(err)
			}
			regions = append(regions, regionSpan{base: base, size: size})
		case "munmap":
			if len(fields) != 2 {
				return fail(fmt.Errorf("munmap wants 1 arg"))
			}
			reg, err := strconv.Atoi(fields[1])
			if err != nil || reg < 0 || reg >= len(regions) {
				return fail(fmt.Errorf("bad region %q", fields[1]))
			}
			if err := s.Munmap(regions[reg].base); err != nil {
				return fail(err)
			}
		case "phase":
			if len(fields) == 2 {
				AnnouncePhase(s, fields[1])
			}
		case "r", "w":
			if len(fields) < 3 {
				return fail(fmt.Errorf("ref wants region and offset"))
			}
			reg, err := strconv.Atoi(fields[1])
			if err != nil || reg < 0 || reg >= len(regions) {
				return fail(fmt.Errorf("bad region %q", fields[1]))
			}
			off, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return fail(err)
			}
			if off >= regions[reg].size {
				return fail(fmt.Errorf("offset %d outside region %d (%d bytes)", off, reg, regions[reg].size))
			}
			ref := Ref{Addr: regions[reg].base + addr.Virt(off), Write: fields[0] == "w"}
			for _, extra := range fields[3:] {
				switch {
				case extra == "d":
					ref.Dep = true
				case strings.HasPrefix(extra, "g"):
					g, err := strconv.ParseUint(extra[1:], 10, 32)
					if err != nil {
						return fail(err)
					}
					ref.Gap = uint32(g)
				default:
					return fail(fmt.Errorf("unknown field %q", extra))
				}
			}
			if err := s.Ref(ref); err != nil {
				return fail(err)
			}
		default:
			return fail(fmt.Errorf("unknown op %q", fields[0]))
		}
	}
	return sc.Err()
}
