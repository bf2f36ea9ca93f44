package main

import (
	"fmt"
	"time"

	"tps"
	"tps/internal/addr"
	"tps/internal/buddy"
	"tps/internal/colt"
	"tps/internal/mmu"
	"tps/internal/rmm"
	"tps/internal/scheme"
	"tps/internal/trace"
	"tps/internal/vmm"
)

// The traced machine is the benchmark's own assembly of one simulated
// system from the public calls sim.newMachine makes, driven through a sink
// that times each call into a layer from outside: Kernel.Mmap/Munmap,
// MMU.Access per delivered batch (minus the Kernel.Resolve calls inside
// it), and Kernel.Resolve. It runs functional cells only; the cycle model
// and the SMT scheduler are internal to tps.Run, so their cost is measured
// as the difference to a functional twin. bench_test.go holds its results
// equal to tps.Run for every registered scheme.

// clock aggregates one layer's calls during one cell: the aggregated span.
type clock struct {
	Busy        time.Duration
	Calls       uint64
	First, Last time.Time
}

func (c *clock) add(start, end time.Time, busy time.Duration) {
	if c.Calls == 0 {
		c.First = start
	}
	c.Last = end
	c.Busy += busy
	c.Calls++
}

// cellTrace is one traced cell's host time per layer and its whole-run
// counters (warm-up included, as the host time is).
type cellTrace struct {
	Cell       cell
	Start, End time.Time
	Setup      clock // machine assembly, including any fragmentation churn
	Mmap       clock // Kernel.Mmap and Kernel.Munmap
	Access     clock // MMU.Access, one call per delivered batch
	Resolve    clock // Kernel.Resolve, one call per failed translation
	Gen        clock // the generator's own time inside Workload.Run
	Collect    clock // the census and statistics calls that build the Result
	Refs       uint64
	OS         vmm.Stats
	MMU        mmu.Stats
	TCServes   uint64
}

// layerClocks names the cell's layer clocks for spans.
func (t *cellTrace) layerClocks() map[string]clock {
	return map[string]clock{
		"workload.gen": t.Gen, "vmm.setup": t.Setup, "vmm.mmap": t.Mmap,
		"mmu.access": t.Access, "vmm.resolve": t.Resolve, "vmm.collect": t.Collect,
	}
}

// spanRecord is one aggregated span: a traced cell, or one layer's calls
// within it from the first start to the last end, with the call count and
// the busy time inside that interval.
type spanRecord struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Kind    string `json:"kind"` // "cell" or "layer"
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   uint64 `json:"calls,omitempty"`
	BusyNS  int64  `json:"busy_ns,omitempty"`
}

// appendSpans adds one round's cell and layer spans.
func appendSpans(out []spanRecord, round int, traces []*cellTrace) []spanRecord {
	for i, t := range traces {
		id := fmt.Sprintf("r%d.c%d", round, i)
		out = append(out, spanRecord{ID: id, Kind: "cell", Name: t.Cell.String(),
			StartNS: t.Start.UnixNano(), EndNS: t.End.UnixNano()})
		clocks := t.layerClocks()
		for _, name := range shareLayers {
			c, ok := clocks[name]
			if !ok || c.Calls == 0 {
				continue
			}
			out = append(out, spanRecord{ID: id + "." + name, Parent: id, Kind: "layer", Name: name,
				StartNS: c.First.UnixNano(), EndNS: c.Last.UnixNano(), Calls: c.Calls, BusyNS: int64(c.Busy)})
		}
	}
	return out
}

// machine is the traced system: one address space on fresh hardware.
type machine struct {
	kernel *vmm.Kernel
	mmu    *mmu.MMU
	att    scheme.Attachment
	tr     *cellTrace

	// Counters at the main-phase boundary; the Result reports the
	// measured phase only, as tps.Run does.
	baseMMU  mmu.Stats
	baseRMM  rmm.Stats
	baseCoLT colt.Stats
	baseSys  uint64
}

// assemble builds the machine tps.Run builds for opts, in sim.newMachine's
// order. The benchmark's cells set none of the kernel knobs newMachine
// copies from Options, so their defaults stand.
func assemble(name string, opts tps.Options, tr *cellTrace) (*machine, error) {
	start := time.Now()
	sch, ok := scheme.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scheme %q is not registered", name)
	}
	bud := buddy.New(opts.MemoryPages)
	if opts.PreFragment != nil {
		opts.PreFragment(bud)
	}
	kcfg := vmm.DefaultConfig(sch.Policy())
	sch.TuneKernel(&kcfg)
	mcfg := mmu.DefaultConfig(sch.Organization())
	mcfg.Levels = kcfg.Levels
	mcfg.Virtualized = opts.Virtualized
	hw := mmu.NewHardware(mcfg)
	m := &machine{kernel: vmm.New(kcfg, bud), tr: tr}
	m.att = sch.Attach(m.kernel)
	m.mmu = mmu.NewThread(hw, m.kernel.Table(), 0, m.att.Sidecar, m.att.Fill)
	m.kernel.AttachMMU(m.mmu)
	end := time.Now()
	tr.Setup.add(start, end, end.Sub(start))
	return m, nil
}

// Mmap implements trace.Sink.
func (m *machine) Mmap(size uint64) (addr.Virt, error) {
	start := time.Now()
	v, err := m.kernel.Mmap(size, 0)
	end := time.Now()
	m.tr.Mmap.add(start, end, end.Sub(start))
	return v, err
}

// Munmap implements trace.Sink.
func (m *machine) Munmap(base addr.Virt) error {
	start := time.Now()
	err := m.kernel.Munmap(base)
	end := time.Now()
	m.tr.Mmap.add(start, end, end.Sub(start))
	return err
}

// Ref implements trace.Sink; the Batcher delivers through RefBatch.
func (m *machine) Ref(r trace.Ref) error { return m.RefBatch([]trace.Ref{r}) }

// RefBatch implements trace.BatchSink with sim's functional loop: translate
// through MMU.Access and resolve failures in the kernel.
func (m *machine) RefBatch(refs []trace.Ref) error {
	start := time.Now()
	var resolve time.Duration
	for i := range refs {
		if err := m.mmu.Access(refs[i].Addr, refs[i].Write); err != nil {
			r0 := time.Now()
			_, err = m.kernel.Resolve(refs[i].Addr, refs[i].Write, mmu.Result{}, err)
			r1 := time.Now()
			m.tr.Resolve.add(r0, r1, r1.Sub(r0))
			resolve += r1.Sub(r0)
			if err != nil {
				return err
			}
		}
	}
	end := time.Now()
	m.tr.Access.add(start, end, end.Sub(start)-resolve)
	m.tr.Refs += uint64(len(refs))
	return nil
}

// Phase implements trace.PhaseSink: snapshot the warm-up counters.
func (m *machine) Phase(name string) {
	if name != trace.MainPhase {
		return
	}
	m.baseMMU = m.mmu.Stats()
	if m.att.RangeTLB != nil {
		m.baseRMM = m.att.RangeTLB.Stats()
	}
	if m.att.Coalescer != nil {
		m.baseCoLT = m.att.Coalescer.Stats()
	}
	m.baseSys = m.kernel.Stats().SysCycles
}

// result builds the tps.Result sim's collect builds for one functional
// address space.
func (m *machine) result(w tps.Workload, setup tps.Setup, c *trace.CountingSink) tps.Result {
	os := m.kernel.Stats()
	r := tps.Result{
		Workload:      w.Name,
		Setup:         setup,
		Scheme:        setup.SchemeName(),
		Refs:          c.Refs,
		Instructions:  c.Instructions,
		MMU:           subMMU(m.mmu.Stats(), m.baseMMU),
		OS:            os,
		Census:        m.kernel.PageSizeCensus(),
		MappedPages:   m.kernel.MappedBasePages(),
		DemandPages:   os.DemandPages,
		ReservedPages: m.kernel.ReservedBasePages(),
		PTEWrites:     m.kernel.Table().Stats().PTEWrites,
		SysCyclesMain: os.SysCycles - m.baseSys,
	}
	if rt := m.att.RangeTLB; rt != nil {
		s := rt.Stats()
		b := m.baseRMM
		r.RMM = rmm.Stats{Lookups: s.Lookups - b.Lookups, Hits: s.Hits - b.Hits,
			TableFills: s.TableFills - b.TableFills, TableRefs: s.TableRefs - b.TableRefs, Misses: s.Misses - b.Misses}
	}
	if co := m.att.Coalescer; co != nil {
		s := co.Stats()
		b := m.baseCoLT
		r.CoLT = colt.Stats{Fills: s.Fills - b.Fills, Coalesced: s.Coalesced - b.Coalesced, PagesSpanned: s.PagesSpanned - b.PagesSpanned}
	}
	r.WalkMemRefs = r.MMU.WalkRefs + r.MMU.NestedRefs + r.RMM.TableRefs
	if c.Instructions > 0 {
		r.L1MPKI = float64(r.MMU.L1Misses) / (float64(c.Instructions) / 1000)
	}
	return r
}

// subMMU subtracts the warm-up counters from a final snapshot.
func subMMU(a, b mmu.Stats) mmu.Stats {
	a.Accesses -= b.Accesses
	a.L1Hits -= b.L1Hits
	a.L1Misses -= b.L1Misses
	a.STLBHits -= b.STLBHits
	a.STLBMisses -= b.STLBMisses
	a.SidecarHits -= b.SidecarHits
	a.Walks -= b.Walks
	a.WalkRefs -= b.WalkRefs
	a.AliasExtras -= b.AliasExtras
	a.NestedRefs -= b.NestedRefs
	for i := range a.PWCHits {
		a.PWCHits[i] -= b.PWCHits[i]
	}
	a.ADWrites -= b.ADWrites
	return a
}

// runTraced runs a functional cell on the traced machine. The generator's
// self time is Workload.Run's time outside the timed sink calls.
func runTraced(c cell) (cellRun, *cellTrace) {
	tr := &cellTrace{Cell: c}
	out := cellRun{Cell: c}
	w, opts, err := c.options()
	if err != nil {
		out.Err = err
		return out, tr
	}
	out.Start = time.Now()
	tr.Start = out.Start
	m, err := assemble(c.Scheme, opts, tr)
	if err != nil {
		out.Err = err
		return out, tr
	}
	counter := &trace.CountingSink{Sink: m}
	b := trace.NewBatcher(counter)
	g0 := time.Now()
	err = w.Run(b, opts.Refs, opts.Seed)
	if err == nil {
		err = b.Flush()
	}
	g1 := time.Now()
	tr.Gen.add(g0, g1, g1.Sub(g0)-tr.Mmap.Busy-tr.Access.Busy-tr.Resolve.Busy)
	if err != nil {
		out.Err = fmt.Errorf("%v: %w", c, err)
		return out, tr
	}
	c0 := time.Now()
	res := m.result(w, opts.Setup, counter)
	tr.MMU, tr.TCServes, tr.OS = m.mmu.Stats(), m.mmu.TransCacheServes(), res.OS
	c1 := time.Now()
	tr.Collect.add(c0, c1, c1.Sub(c0))
	out.End, tr.End = c1, c1
	out.Refs = tr.Refs
	return out.settle(res, nil), tr
}
