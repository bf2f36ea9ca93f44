// Package fabric is the cross-host sweep protocol: the wire types and the
// two halves — lease coordinator and worker client — that let a fleet of
// processes grind one cell grid cooperatively, treating partial failure as
// the normal case.
//
// The design mirrors how the translation schemes it sweeps treat
// imperfection: coalesced TLBs exploit whatever contiguity fragmentation
// left behind instead of requiring reservations, and Svnapot degrades to
// smaller granules instead of faulting. Here, a dead worker, a straggler,
// or a flaky network costs re-dispatch latency, never correctness:
//
//   - Work is handed out as *leases* with a TTL. A worker renews its lease
//     while computing; a missed heartbeat expires the lease and the cell is
//     re-dispatched to someone else.
//   - Each grant bumps the cell's monotonic *generation*. Renewals must
//     present the current generation, so a worker whose lease was
//     re-issued (expiry, speculation) learns it is no longer the holder —
//     but it keeps computing, because...
//   - ...*completions are idempotent, keyed by the cell's store
//     fingerprint*, not by generation or holder. Cells are deterministic
//     functions of their spec, so a late original and a re-dispatched copy
//     produce identical bytes; the first completion settles the cell and
//     every later one is acknowledged as a duplicate and changes nothing.
//     This is the fleet exactness invariant: however many times a cell
//     runs, it counts once, and assembled output is byte-identical to a
//     serial run.
//   - Stragglers are speculatively re-issued to idle workers once their
//     lease age passes a threshold — the tail of a sweep shrinks to the
//     fastest copy of each remaining cell.
//   - A coordinator crash degrades gracefully: workers finish in-flight
//     leases into the shared result store and retry their completions
//     under backoff; a restarted coordinator re-seeds settled cells from
//     store contents and the sweep resumes where it left off.
//
// The package is deliberately result-agnostic: cell payloads are opaque
// JSON blobs validated by a caller-supplied hook, so fabric never imports
// the simulator (the tps package imports fabric, not the reverse — the
// engine reuses Backoff for its own cell retries). The one telemetry
// dependency is the span model (internal/telemetry/span), itself
// dependency-free: trace context rides the lease protocol so the
// coordinator can assemble one run-wide trace from worker-returned spans.
package fabric

import (
	"encoding/json"
	"io"

	"tps/internal/telemetry/span"
)

// CellSpec is the wire identity of one simulation cell: pure data, enough
// for any worker to reproduce the cell bit-exactly. The tps package maps a
// spec to a runnable configuration and to the content-addressed store
// fingerprint the fleet dedupes on (tps.SpecKey / tps.RunSpec).
type CellSpec struct {
	Workload    string  `json:"workload"`
	Scheme      string  `json:"scheme"`
	Refs        uint64  `json:"refs"`
	Seed        int64   `json:"seed"`
	MemoryPages uint64  `json:"memory_pages"`
	Threshold   float64 `json:"threshold,omitempty"`
	Frag        bool    `json:"frag,omitempty"`
}

// Lease is one grant of one cell to one worker. Key is the cell's store
// content address (the dedup key for completions); Generation is the
// cell's monotonic grant counter (the validity token for renewals). The
// lease expires TTLMS after the grant or the latest successful renewal.
//
// Trace and Span carry the sweep's distributed-tracing context: the
// run-wide trace ID and the cell's span ID. Workers parent their attempt
// spans under Span and return them in the completion payload; both fields
// are empty when tracing is not in play (they are advisory, never
// validated).
type Lease struct {
	Key        string   `json:"key"`
	Spec       CellSpec `json:"spec"`
	Generation uint64   `json:"generation"`
	TTLMS      int64    `json:"ttl_ms"`
	Trace      string   `json:"trace,omitempty"`
	Span       string   `json:"span,omitempty"`
}

// WorkerStats is the compact telemetry snapshot a worker pushes with every
// lease and renew request. Pushing (rather than the coordinator scraping
// each worker's /metrics endpoint) keeps aggregation working across NAT
// and firewalls: if a worker can take work, it can report progress.
type WorkerStats struct {
	RefsTotal   uint64  `json:"refs_total"`
	CellsDone   uint64  `json:"cells_done"`
	CellsFailed uint64  `json:"cells_failed"`
	UptimeS     float64 `json:"uptime_s"`
}

// GrantRequest asks the coordinator for one lease.
type GrantRequest struct {
	Worker string      `json:"worker"`
	Stats  WorkerStats `json:"stats"`
}

// GrantResponse carries a lease, a "poll again later" hint, or the fleet
// completion signal. Lease == nil with Done == false means every cell is
// currently leased and not yet stale enough to speculate on: the worker
// should sleep ~WaitMS (jittered) and ask again.
type GrantResponse struct {
	Lease  *Lease `json:"lease,omitempty"`
	Done   bool   `json:"done"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// RenewRequest extends a held lease; it must present the generation the
// grant carried.
type RenewRequest struct {
	Worker     string      `json:"worker"`
	Key        string      `json:"key"`
	Generation uint64      `json:"generation"`
	Stats      WorkerStats `json:"stats"`
}

// RenewResponse: OK == false means the lease is lost (expired and
// re-queued, or re-issued to another worker — including the clock-skew
// case where the heartbeat arrived after expiry). The worker should stop
// renewing but finish the cell anyway: its completion is still welcome
// and will be deduped if a re-dispatched copy got there first.
type RenewResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest settles a cell: a JSON-encoded result, or an error
// message for a cell that failed on the worker. Generation is advisory
// (logged, never enforced) — completion validity is keyed by Key alone.
// Spans carries the worker's attempt spans for the
// run-wide trace; the coordinator collects them even from duplicate
// completions, because a late original's spans ARE the straggler story.
type CompleteRequest struct {
	Worker     string          `json:"worker"`
	Key        string          `json:"key"`
	Generation uint64          `json:"generation"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	Spans      []span.Span     `json:"spans,omitempty"`
}

// CompleteResponse acknowledges a completion. Duplicate means the cell was
// already settled and this completion changed nothing (the normal fate of
// a late original after re-dispatch). Accepted == false means the payload
// was rejected — unknown key, or a result that failed validation (e.g. a
// torn read relayed by a faulty store) — and the cell will be recomputed.
type CompleteResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}

// decodeBody parses one lease-protocol body, request or response, into
// dst: the first JSON value of r, with unknown fields rejected. The
// coordinator and the client both decode through it.
func decodeBody(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// RefsPerSecBuckets is the width of the per-worker throughput histogram:
// log2 buckets, bucket i covering roughly [2^(10+i), 2^(11+i)) refs/sec
// with both tails clamped (bucket 0 absorbs anything below 2 Ki refs/s,
// the last bucket anything past 64 Gi refs/s).
const RefsPerSecBuckets = 16

// FleetWorker is one worker's aggregated view in the fleet snapshot:
// coordinator-side counters (grants, completions) merged with the stats
// the worker last pushed about itself. RefsPerSecHist is built by the
// coordinator from the deltas between consecutive stat pushes — each
// heartbeat interval contributes one observation — so a flat-lining
// worker is visible as mass in the low buckets, not just a stale total.
type FleetWorker struct {
	Name           string                    `json:"name"`
	LastSeenS      float64                   `json:"last_seen_s"`
	Granted        uint64                    `json:"granted"`
	Completed      uint64                    `json:"completed"`
	Stats          WorkerStats               `json:"stats"`
	RefsPerSecHist [RefsPerSecBuckets]uint64 `json:"refs_per_sec_hist"`
}

// GrantRecord is one grant of one cell in its lease timeline: who held
// the lease, over which generation, and how the grant ended. EndNS is 0
// while the lease is live.
type GrantRecord struct {
	Gen     uint64 `json:"gen"`
	Worker  string `json:"worker"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns,omitempty"`
	Outcome string `json:"outcome,omitempty"` // completed/expired/failed/superseded
}

// LeaseTimeline is one cell's full grant history in the fleet snapshot —
// the /metrics answer to "which lease/worker is the critical path", and
// the raw material of straggler attribution (a cell with more than one
// grant was expired or speculated at least once).
type LeaseTimeline struct {
	Key      string        `json:"key"`
	Workload string        `json:"workload"`
	Scheme   string        `json:"scheme"`
	Status   string        `json:"status"` // pending/leased/done/failed
	Seeded   bool          `json:"seeded,omitempty"`
	Grants   []GrantRecord `json:"grants,omitempty"`
}

// FleetSnapshot is the coordinator's /metrics view: grid progress, the
// robustness counters (how often each degradation path fired), and the
// per-worker aggregation. cells_done includes store-seeded cells;
// completions counts first-completions only, so
// completions + store_seeded + cells_failed == cells_done + cells_failed
// when the sweep finishes, however many duplicates arrived.
type FleetSnapshot struct {
	Trace         string        `json:"trace"`
	UptimeS       float64       `json:"uptime_s"`
	CellsTotal    int           `json:"cells_total"`
	CellsDone     int           `json:"cells_done"`
	CellsFailed   int           `json:"cells_failed"`
	CellsLeased   int           `json:"cells_leased"`
	CellsPending  int           `json:"cells_pending"`
	StoreSeeded   int           `json:"store_seeded"`
	Completions   uint64        `json:"completions"`
	Duplicates    uint64        `json:"duplicates"`
	Rejected      uint64        `json:"rejected"`
	Expirations   uint64        `json:"expirations"`
	Speculations  uint64        `json:"speculations"`
	StaleRenewals uint64        `json:"stale_renewals"`
	Requeues      uint64        `json:"requeues"`
	RefsTotal     uint64        `json:"refs_total"`
	Workers       []FleetWorker `json:"workers"`
	// Leases is the per-cell grant history, in grid registration order.
	Leases []LeaseTimeline `json:"leases,omitempty"`
}
