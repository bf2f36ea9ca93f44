package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"tps"
)

// cellRun is one executed cell.
type cellRun struct {
	Cell       cell
	JSON       []byte // the Result's JSON encoding, compared byte for byte
	Refs       uint64 // references generated, warm-up included
	Start, End time.Time
	Err        error
}

func (r cellRun) dur() time.Duration { return r.End.Sub(r.Start) }

// settle records the cell's outcome.
func (r cellRun) settle(res tps.Result, err error) cellRun {
	if err == nil {
		r.JSON, err = json.Marshal(res)
	}
	r.Err = err
	return r
}

// runCell times one tps.Run call, counting the references the generator
// delivers through the Options.OnRefs hook.
func runCell(c cell) cellRun {
	out := cellRun{Cell: c}
	w, opts, err := c.options()
	if err != nil {
		out.Err = err
		return out
	}
	opts.OnRefs = func(n uint64) { out.Refs += n }
	out.Start = time.Now()
	res, err := tps.Run(w, opts)
	out.End = time.Now()
	if err != nil {
		err = fmt.Errorf("%v: %w", c, err)
	}
	return out.settle(res, err)
}

// closedLoop calls fn(0..n-1) on p workers, each taking the next index in
// order as soon as its previous call returns, and reports the makespan.
func closedLoop(n, p int, fn func(i int)) time.Duration {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// listPass runs every cell through run on p workers.
func listPass(cells []cell, p int, run func(cell) cellRun) ([]cellRun, time.Duration) {
	out := make([]cellRun, len(cells))
	wall := closedLoop(len(cells), p, func(i int) { out[i] = run(cells[i]) })
	return out, wall
}

func busyOf(runs []cellRun) time.Duration {
	var d time.Duration
	for _, r := range runs {
		d += r.dur()
	}
	return d
}

// pass is one end-to-end pass over a workload.
type pass struct {
	Wall time.Duration // makespan; for figures, the cold pass
	Busy time.Duration // sum of per-cell host time
	Refs uint64        // references generated, warm-up included
	Runs []cellRun     // tps.Run workloads
	Fig  *figuresRun   // figures workloads
	GC   gcStats       // runtime deltas over the pass
}

// runPass runs one end-to-end pass. It starts from a collected heap so
// passes do not inherit each other's garbage.
func runPass(w workload, seed int64, p int, dir string) pass {
	runtime.GC()
	before := readGC()
	var ps pass
	if w.Figures {
		f := runFigures(seed, p, dir)
		ps.Fig, ps.Wall, ps.Busy, ps.Refs = f, f.ColdWall, f.Cold.busy, f.Refs
	} else {
		ps.Runs, ps.Wall = listPass(w.cells(seed), p, runCell)
		ps.Busy = busyOf(ps.Runs)
		for _, r := range ps.Runs {
			ps.Refs += r.Refs
		}
	}
	ps.GC = readGC().minus(before)
	return ps
}

// gcStats holds the runtime/metrics counters the runtime.* metrics use.
type gcStats struct {
	gcCPU, totalCPU, idleCPU float64 // cpu-seconds
	allocBytes, cycles       uint64
}

var gcSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcStats {
	s := make([]metrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcStats{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), idleCPU: s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(), cycles: s[4].Value.Uint64(),
	}
}

func (a gcStats) minus(b gcStats) gcStats {
	return gcStats{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU,
		a.allocBytes - b.allocBytes, a.cycles - b.cycles}
}
