package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Cell settlement statuses recorded in the manifest.
const (
	StatusOK       = "ok"
	StatusStoreHit = "store-hit"
	StatusFailed   = "failed"
)

// CellRecord is one settled cell's manifest entry: its content address,
// labels, outcome, and wall-clock cost. Store-hit cells carry no wall
// time (replay is ~free) and failed cells carry the error.
type CellRecord struct {
	Cell     string  `json:"cell"`
	Workload string  `json:"workload"`
	Setup    string  `json:"setup"`             // display label
	Scheme   string  `json:"scheme,omitempty"`  // stable registry name
	Variant  string  `json:"variant,omitempty"` // cell variant ("smt+cyc"); "" for a plain cell
	Status   string  `json:"status"`
	WallS    float64 `json:"wall_s"`
	Refs     uint64  `json:"refs,omitempty"`
	Error    string  `json:"error,omitempty"`
	// TStartNS/TEndNS position the cell on the run's monotonic timeline
	// (nanoseconds since the recorder started, same clock as Event.TNS) —
	// the manifest's contribution to the trace view. Store hits are
	// zero-duration (replay is ~free).
	TStartNS int64 `json:"t_start_ns,omitempty"`
	TEndNS   int64 `json:"t_end_ns,omitempty"`
}

// RunConfig is the manifest's record of the sweep's configuration — what
// a resumed run must match for its store entries to be compatible.
type RunConfig struct {
	Refs         uint64   `json:"refs"`
	Seed         int64    `json:"seed"`
	MemoryPages  uint64   `json:"memory_pages"`
	Parallelism  int      `json:"parallelism"`
	Suite        []string `json:"suite,omitempty"`
	Target       string   `json:"target,omitempty"` // e.g. "-all", "-fig 10"
	CellTimeoutS float64  `json:"cell_timeout_s,omitempty"`
	Retries      int      `json:"retries,omitempty"`
	StoreDir     string   `json:"store_dir,omitempty"`
	Resume       bool     `json:"resume,omitempty"`
}

// ExitStatus records how the run ended: "ok", "interrupted" (signal), or
// "error", with the process exit code and the first error.
type ExitStatus struct {
	Status string `json:"status"`
	Code   int    `json:"code"`
	Error  string `json:"error,omitempty"`
}

// Manifest is the atomic end-of-run record: enough to attribute every
// number the run produced (simulator version salt, config, seeds), audit
// where the wall-clock went (per-cell records), and decide whether a
// resumed run may reuse this run's store entries.
type Manifest struct {
	Version    string       `json:"version"` // simulator version salt
	GoVersion  string       `json:"go_version"`
	Argv       []string     `json:"argv,omitempty"`
	StartedAt  time.Time    `json:"started_at"`
	FinishedAt time.Time    `json:"finished_at"`
	WallS      float64      `json:"wall_s"`
	Config     RunConfig    `json:"config"`
	Exit       ExitStatus   `json:"exit"`
	Totals     Snapshot     `json:"totals"`
	Cells      []CellRecord `json:"cells"`
}

// Manifest assembles the recorder's contribution to the manifest: timing,
// totals, and the per-cell records (sorted by workload/setup/key so two
// runs of the same grid produce comparable files). The caller fills
// Config, Exit, and Argv before writing.
func (r *Recorder) Manifest() Manifest {
	m := Manifest{
		GoVersion:  runtime.Version(),
		FinishedAt: time.Now(),
	}
	if r == nil {
		m.StartedAt = m.FinishedAt
		return m
	}
	m.StartedAt = r.start
	m.WallS = m.FinishedAt.Sub(r.start).Seconds()
	m.Totals = r.Snapshot()
	r.mu.Lock()
	m.Cells = append([]CellRecord(nil), r.cells...)
	r.mu.Unlock()
	sort.Slice(m.Cells, func(i, j int) bool {
		a, b := m.Cells[i], m.Cells[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Setup != b.Setup {
			return a.Setup < b.Setup
		}
		return a.Cell < b.Cell
	})
	return m
}

// WriteManifest writes the manifest atomically (temp file + rename in the
// target directory), so a crash mid-write never leaves a truncated or
// half-valid manifest — readers see the previous manifest or the new one.
func WriteManifest(path string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encode manifest: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return fmt.Errorf("telemetry: write manifest: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("telemetry: write manifest: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("telemetry: commit manifest: %w", err)
	}
	return nil
}

// ReadManifest loads and strictly decodes a manifest file.
func ReadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("telemetry: decode manifest %s: %w", path, err)
	}
	return m, nil
}
