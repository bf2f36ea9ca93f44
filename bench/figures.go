package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"tps"
	"tps/internal/store"
	"tps/internal/telemetry"
)

// timedStore wraps the store the Runner writes through. The engine
// consults the store once per cell it settles and persists each cell it
// computes, so a computed cell is timed from that Get to its Put.
type timedStore struct {
	inner store.Interface

	mu       sync.Mutex
	pending  map[string]time.Time // key -> start of its Get
	busy     time.Duration
	putTime  time.Duration
	gets     uint64
	hits     uint64
	puts     uint64
	bytes    uint64
	payloads [][]byte // every stored Result, for the cell-list check
}

func newTimedStore(inner store.Interface) *timedStore {
	return &timedStore{inner: inner, pending: make(map[string]time.Time)}
}

func (s *timedStore) Get(key string) ([]byte, bool, error) {
	start := time.Now()
	data, ok, err := s.inner.Get(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[key] = start
	s.gets++
	if ok {
		s.hits++
	}
	return data, ok, err
}

func (s *timedStore) Put(key string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(key, data)
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.bytes += uint64(len(data))
	s.putTime += end.Sub(start)
	if t, ok := s.pending[key]; ok {
		s.busy += end.Sub(t)
		delete(s.pending, key)
	}
	s.payloads = append(s.payloads, append([]byte(nil), data...))
	return err
}

// figuresRun is one figures-mini pass: a cold Runner writing a fresh
// store, then a second Runner replaying that store.
type figuresRun struct {
	Tables, Resumed      []string // rendered tables, in `figures -all` order
	Err, ResumeErr       error    // the failure that stopped each Runner
	Cold, Resume         *timedStore
	ColdWall, ResumeWall time.Duration
	Refs                 uint64 // references the cold pass generated
	Warnings             []string
}

// figureCount is the number of tables figures-mini renders.
const figureCount = 13

// renderFigures renders Table I and Figs. 2, 3 and 9-18 in `figures -all`
// order, stopping at the first failed figure.
func renderFigures(r *tps.Runner) ([]string, error) {
	out := []string{tps.TableI().Render()}
	for _, fig := range []func() (*tps.Table, error){
		r.Fig2, r.Fig3, r.Fig9, r.Fig10, r.Fig11, r.Fig12,
		r.Fig13, r.Fig14, r.Fig15, r.Fig16, r.Fig17, r.Fig18,
	} {
		t, err := fig()
		if err != nil {
			return out, err
		}
		out = append(out, t.Render())
	}
	return out, nil
}

// figuresText is the tables as `figures` prints them to stdout.
func figuresText(tables []string) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t)
		b.WriteString("\n")
	}
	return b.String()
}

// splitFigures inverts figuresText: every table ends in a newline and
// contains no blank line, so tables are separated by one blank line.
func splitFigures(text string) []string {
	parts := strings.SplitAfter(text, "\n\n")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p != "" {
			out = append(out, strings.TrimSuffix(p, "\n"))
		}
	}
	return out
}

func figSuiteWorkloads() ([]tps.Workload, error) {
	var out []tps.Workload
	for _, n := range figSuite {
		w, ok := tps.WorkloadByName(n)
		if !ok {
			return nil, fmt.Errorf("figures-mini: unknown workload %q", n)
		}
		out = append(out, w)
	}
	return out, nil
}

// openFigStore opens a fresh result store at dir.
func openFigStore(dir string) (*store.Store, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return store.Open(dir)
}

// runFigures runs one figures-mini pass in a fresh store at dir and removes
// the store afterwards. The cold Runner records telemetry, as cmd/figures
// always does; its reference counter is the pass's generated references.
func runFigures(seed int64, p int, dir string) *figuresRun {
	f := &figuresRun{Cold: newTimedStore(nil), Resume: newTimedStore(nil)}
	suite, err := figSuiteWorkloads()
	var st *store.Store
	if err == nil {
		st, err = openFigStore(dir)
	}
	if err != nil {
		f.Err = err
		return f
	}
	defer os.RemoveAll(dir)
	f.run(seed, p, suite, st)
	return f
}

func (f *figuresRun) run(seed int64, p int, suite []tps.Workload, st *store.Store) {
	var mu sync.Mutex
	warn := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		f.Warnings = append(f.Warnings, fmt.Sprintf(format, args...))
	}
	cfg := tps.FigureConfig{Refs: figRefs, Seed: seed, MemoryPages: memoryPages,
		Suite: suite, Parallelism: p, Warnf: warn}

	rec := telemetry.New()
	f.Cold = newTimedStore(store.WriteOnly(st))
	cold := cfg
	cold.Store, cold.Telemetry = f.Cold, rec
	start := time.Now()
	f.Tables, f.Err = renderFigures(tps.NewRunner(cold))
	f.ColdWall = time.Since(start)
	f.Refs = rec.Snapshot().RefsTotal

	f.Resume = newTimedStore(st)
	resume := cfg
	resume.Store = f.Resume
	start = time.Now()
	f.Resumed, f.ResumeErr = renderFigures(tps.NewRunner(resume))
	f.ResumeWall = time.Since(start)
}

// sortedPayloads returns the stored Results in a canonical order.
func (s *timedStore) sortedPayloads() []string {
	out := make([]string, len(s.payloads))
	for i, p := range s.payloads {
		out[i] = string(p)
	}
	sort.Strings(out)
	return out
}
