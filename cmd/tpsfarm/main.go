// Command tpsfarm is the sweep-fabric coordinator: it partitions a
// scheme-comparison grid into cells, serves them to tpsworker processes
// as expiring leases over HTTP, and assembles the results into the same
// table — byte for byte — that a local `figures -schemes ...` run prints.
//
// Robustness is the operating assumption, not the exception:
//
//   - A worker that dies (SIGKILL, OOM, unplugged) simply stops renewing
//     its leases; they expire and re-dispatch to whoever asks next.
//   - Stragglers are speculatively re-issued to idle workers; whichever
//     copy finishes first settles the cell, the loser is deduped.
//   - Duplicate completions (network retries, late originals) are
//     acknowledged and ignored: cells are deterministic, completion is
//     idempotent keyed by the store fingerprint, and no cell ever counts
//     twice.
//   - With -store, every completion is persisted content-addressed, so a
//     killed coordinator restarted with the same flags resumes from store
//     contents — workers that kept computing through the outage land
//     their cells in the store and/or retry their completions into the
//     restarted process.
//
// The fleet is observable at GET /metrics on the fabric address: grid
// progress, every degradation counter (expirations, speculations,
// duplicates, stale renewals), and a per-worker aggregation of the stats
// each worker pushes with its lease traffic.
//
// Usage:
//
//	tpsfarm -listen 0.0.0.0:8719 -store /shared/cells -schemes all -suite gcc,leela
//	tpsworker -farm http://coordinator:8719 -store /shared/cells   # on each host
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tps"
	"tps/internal/fabric"
	"tps/internal/store"
	"tps/internal/telemetry"
	"tps/internal/telemetry/span"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen      = flag.String("listen", "127.0.0.1:0", "serve the lease API and fleet /metrics on this address")
		schemes     = flag.String("schemes", "all", "comma-separated scheme names, or \"all\"")
		suite       = flag.String("suite", "", "comma-separated workload subset (default: the full evaluation suite)")
		refs        = flag.Uint64("refs", 1<<20, "measured references per cell")
		seed        = flag.Int64("seed", 42, "workload generator seed")
		storeDir    = flag.String("store", "", "shared result store: completions persist here and a restarted coordinator resumes from it")
		ttl         = flag.Duration("ttl", 10*time.Second, "lease lifetime without a heartbeat; expired leases re-dispatch")
		speculate   = flag.Duration("speculate", 0, "re-issue an in-flight cell to an idle worker after this lease age (0 = 3×ttl, <0 disables)")
		maxFailures = flag.Int("max-failures", 3, "settle a cell as failed after this many worker-side errors")
		progress    = flag.Bool("progress", true, "stream table rows to stderr as their cells land fleet-wide")
		events      = flag.String("events", "", "append lease-protocol lifecycle events (JSONL) here; each line carries the worker involved (origin) and the lease generation")
		traceOut    = flag.String("trace", "", "write the assembled run-wide span trace (JSONL; coordinator lease spans + worker attempt spans) to this file at exit")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := tps.SchemeNames()
	if !strings.EqualFold(*schemes, "all") {
		names = strings.Split(*schemes, ",")
	}
	setups, err := tps.SchemesByName(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpsfarm: %v\n", err)
		return 2
	}
	cfg := tps.FigureConfig{Refs: *refs, Seed: *seed}
	if *suite != "" {
		for _, name := range strings.Split(*suite, ",") {
			w, ok := tps.WorkloadByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "tpsfarm: unknown workload %q\n", name)
				return 2
			}
			cfg.Suite = append(cfg.Suite, w)
		}
	}

	// The grid, in table order, with each cell's content address — the
	// identity every worker and every store-resident result agrees on.
	specs := tps.FleetCells(cfg, setups)
	keys := make([]string, len(specs))
	for i, spec := range specs {
		if keys[i], err = tps.SpecKey(spec); err != nil {
			fmt.Fprintf(os.Stderr, "tpsfarm: %v\n", err)
			return 2
		}
	}

	// The shared store is both the persistence hook for completions and
	// the resume source: cells already settled (by a previous coordinator
	// incarnation, or by workers that outlived one) are seeded as done
	// and never re-dispatched. An unusable store degrades to in-memory
	// with one warning, exactly like the single-process engine.
	var st store.Interface
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpsfarm: store unavailable, coordinating in-memory only: %v\n", err)
		} else {
			st = s
		}
	}

	// The events stream mirrors the coordinator's lease protocol as the
	// same JSONL schema the workers and the engine emit, so one tpsreport
	// invocation can interleave cell lifecycle and lease grants/expiries
	// in emission order. The hook runs under the coordinator lock; Emit
	// is one marshal and one write, which keeps it cheap enough.
	var onEvent func(fabric.LeaseEvent)
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpsfarm: cannot open events file: %v\n", err)
			return 2
		}
		defer f.Close()
		elog := telemetry.NewEventLog(f)
		epoch := time.Now()
		onEvent = func(ev fabric.LeaseEvent) {
			elog.Emit(telemetry.Event{
				TNS:      time.Since(epoch).Nanoseconds(),
				Event:    "lease-" + ev.Kind,
				Cell:     ev.Key,
				Workload: ev.Spec.Workload,
				Scheme:   ev.Spec.Scheme,
				Worker:   -1,
				Origin:   ev.Worker,
				Gen:      ev.Gen,
				Error:    ev.Err,
			})
		}
	}

	coord := fabric.New(fabric.Config{
		TTL:            *ttl,
		SpeculateAfter: *speculate,
		MaxFailures:    *maxFailures,
		OnEvent:        onEvent,
		Validate: func(data []byte) error {
			_, err := tps.DecodeResult(data)
			return err
		},
		OnComplete: func(key string, _ fabric.CellSpec, result []byte) {
			if st != nil {
				if err := st.Put(key, result); err != nil {
					fmt.Fprintf(os.Stderr, "tpsfarm: store write failed (result stays in-memory): %v\n", err)
				}
			}
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "tpsfarm: "+format+"\n", args...)
		},
	})
	if *traceOut != "" {
		// Written on every exit path: an interrupted sweep still leaves
		// spans for everything that was granted, completed, or expired
		// up to the kill — including worker-side attempt spans
		// collected with completions.
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpsfarm: cannot write trace: %v\n", err)
				return
			}
			defer f.Close()
			if err := span.WriteAll(f, coord.Trace()); err != nil {
				fmt.Fprintf(os.Stderr, "tpsfarm: trace write failed: %v\n", err)
			}
		}()
	}
	seeded := 0
	for i, spec := range specs {
		if st != nil {
			if data, ok, err := st.Get(keys[i]); err == nil && ok {
				if _, derr := tps.DecodeResult(data); derr == nil {
					coord.AddSettled(keys[i], spec, data)
					seeded++
					continue
				}
				// Undecodable entries (schema drift the checksum cannot
				// see) are treated as misses; the cell recomputes.
			}
		}
		coord.Add(keys[i], spec)
	}
	if seeded > 0 {
		fmt.Fprintf(os.Stderr, "tpsfarm: resuming with %d/%d cells settled from %s\n",
			seeded, len(specs), *storeDir)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpsfarm: cannot bind fabric address %s: %v\n", *listen, err)
		return 1
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "tpsfarm: serving fabric on http://%s/ (%d cells; fleet metrics on /metrics)\n",
		ln.Addr(), len(specs))

	// Assemble the table exactly as figures does, pulling each cell from
	// the fleet as it lands. Rows stream to stderr in row order while
	// later cells are still being computed elsewhere.
	t := tps.SchemeGridTable(setups)
	if *progress {
		t.Stream = os.Stderr
		t.StreamNote = func() string {
			s := coord.Snapshot()
			return fmt.Sprintf("cells %d/%d, %d workers", s.CellsDone+s.CellsFailed, s.CellsTotal, len(s.Workers))
		}
		fmt.Fprintf(os.Stderr, "%s\n", t.Title)
	}
	keyOf := make(map[string]string, len(specs))
	for i, spec := range specs {
		keyOf[spec.Workload+"|"+spec.Scheme] = keys[i]
	}
	tbl, err := tps.FillSchemeGrid(t, cfgSuite(cfg), setups, func(w tps.Workload, s tps.Setup) (tps.Result, error) {
		raw, err := coord.WaitResult(ctx, keyOf[w.Name+"|"+s.SchemeName()])
		if err != nil {
			return tps.Result{}, err
		}
		return tps.DecodeResult(raw)
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tpsfarm: interrupted")
			return 130
		}
		fmt.Fprintf(os.Stderr, "tpsfarm: %v\n", err)
		return 1
	}
	fmt.Println(tbl.Render())

	s := coord.Snapshot()
	fmt.Fprintf(os.Stderr, "tpsfarm: %d cells in %s (%d computed by %d workers, %d resumed from store, %d duplicates deduped, %d expirations, %d speculations)\n",
		s.CellsDone, time.Duration(s.UptimeS*float64(time.Second)).Round(10*time.Millisecond),
		s.Completions, len(s.Workers), s.StoreSeeded, s.Duplicates, s.Expirations, s.Speculations)
	return 0
}

// cfgSuite resolves the effective suite (FleetCells applied the default;
// the assembly loop must iterate the same one).
func cfgSuite(cfg tps.FigureConfig) []tps.Workload {
	if cfg.Suite != nil {
		return cfg.Suite
	}
	return tps.EvalSuite()
}
