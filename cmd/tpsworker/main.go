// Command tpsworker is one sweep-fabric worker: it pulls cell leases from
// a tpsfarm coordinator, computes them with the simulator, and reports
// results — built to be killed.
//
// The robustness contract, from the worker's side:
//
//   - While computing, a heartbeat goroutine renews the lease. If a renewal
//     is refused (the lease expired — e.g. this worker's clock drifted or
//     it stalled — and was re-issued elsewhere), the worker stops renewing
//     but finishes the cell and completes anyway: cells are deterministic,
//     completion is idempotent, and the coordinator dedupes by fingerprint.
//   - Cell failures re-run under the engine's capped, jittered backoff
//     (-retries) before being reported; reported failures re-dispatch
//     coordinator-side, so one bad host costs latency, not the sweep.
//   - With -store, every finished cell is persisted content-addressed
//     before the completion RPC — if the coordinator is down, the result
//     is already durable and a restarted coordinator resumes from it.
//     All coordinator RPCs retry under jittered backoff; the worker only
//     gives up on a coordinator that stays unreachable for -patience.
//   - -chaos-http injects seeded transport faults (drops, duplicated
//     requests, truncated responses, delays) into the worker's own HTTP
//     exchanges — the fleet must produce byte-identical output anyway,
//     and scripts/chaos_farm.sh holds it to that in CI.
//
// The worker's own live metrics (-listen) use the same telemetry endpoint
// as figures; a failed bind warns once and the worker keeps working. Its
// counters are also pushed to the coordinator with every lease/renew
// request, so the fleet /metrics view never depends on scraping workers.
//
// Usage:
//
//	tpsworker -farm http://coordinator:8719 -store /shared/cells -parallel 4
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
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
		farm      = flag.String("farm", "", "coordinator base URL (required), e.g. http://10.0.0.7:8719")
		name      = flag.String("name", "", "worker name in leases and fleet metrics (default host-pid)")
		parallel  = flag.Int("parallel", 0, "concurrent leases (0 = GOMAXPROCS)")
		storeDir  = flag.String("store", "", "persist finished cells to this (ideally shared) content-addressed store before completing")
		retries   = flag.Int("retries", 2, "re-run a transiently failing cell up to N times under capped, jittered backoff before reporting failure")
		listen    = flag.String("listen", "", "serve this worker's live metrics (/metrics, pprof) on this address; a failed bind warns and continues")
		events    = flag.String("events", "", "append structured JSONL lifecycle events here; each line carries this worker's name (origin) and the lease generation")
		patience  = flag.Duration("patience", 2*time.Minute, "keep retrying an unreachable coordinator this long before exiting")
		chaosHTTP = flag.Float64("chaos-http", 0, "fault-inject this fraction of HTTP exchanges (per mode: drop, drop-after, duplicate, truncate; plus delays) — chaos testing only")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for -chaos-http fault schedule")
	)
	flag.Parse()
	if *farm == "" {
		fmt.Fprintln(os.Stderr, "tpsworker: -farm URL is required")
		return 2
	}
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rec := telemetry.New()
	rec.ConfigureWorkers(*parallel)
	rec.SetOrigin(*name)
	if *events != "" {
		// O_APPEND: many workers may share one events file on shared
		// storage; EventLog's whole-line writes keep the stream parseable.
		f, err := os.OpenFile(*events, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpsworker: cannot open events file: %v\n", err)
			return 2
		}
		defer f.Close()
		rec.LogTo(telemetry.NewEventLog(f))
	}
	if *listen != "" {
		// Same graceful-degradation policy as figures -listen: the
		// metrics endpoint is a view, never a dependency.
		addr, shutdown := telemetry.Serve(*listen, rec, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "tpsworker: "+format+"\n", args...)
		})
		defer shutdown()
		if addr != "" {
			fmt.Fprintf(os.Stderr, "tpsworker: serving metrics on http://%s/metrics\n", addr)
		}
	}

	var st store.Interface
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpsworker: store unavailable, completing over HTTP only: %v\n", err)
		} else {
			st = s
		}
	}

	client := &fabric.Client{
		Base:   *farm,
		Worker: *name,
		Stats: func() fabric.WorkerStats {
			s := rec.Snapshot()
			return fabric.WorkerStats{
				RefsTotal:   s.RefsTotal,
				CellsDone:   s.CellsDone,
				CellsFailed: s.CellsFailed,
				UptimeS:     s.UptimeS,
			}
		},
	}
	if *chaosHTTP > 0 {
		ft := fabric.NewFaultyTransport(nil, *chaosSeed, fabric.TransportRates{
			Drop: *chaosHTTP, DropAfter: *chaosHTTP / 2, Duplicate: *chaosHTTP,
			Truncate: *chaosHTTP / 2, Delay: *chaosHTTP,
		})
		client.HTTP = &http.Client{Transport: ft, Timeout: 30 * time.Second}
		fmt.Fprintf(os.Stderr, "tpsworker: chaos transport enabled (rate %.2f, seed %d)\n", *chaosHTTP, *chaosSeed)
	}

	w := &worker{
		client: client, rec: rec, st: st,
		retries: *retries, patience: *patience,
	}
	var wg sync.WaitGroup
	errs := make([]error, *parallel)
	for slot := 0; slot < *parallel; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs[slot] = w.loop(ctx, slot)
		}(slot)
	}
	wg.Wait()

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "tpsworker: interrupted")
		return 130
	}
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpsworker: %v\n", err)
			return 3
		}
	}
	s := rec.Snapshot()
	fmt.Fprintf(os.Stderr, "tpsworker: fleet drained; computed %d cells (%d failed) in %s\n",
		s.CellsDone, s.CellsFailed, time.Duration(s.UptimeS*float64(time.Second)).Round(10*time.Millisecond))
	return 0
}

// worker is the per-process lease-pulling state shared by all slots.
type worker struct {
	client   *fabric.Client
	rec      *telemetry.Recorder
	st       store.Interface
	retries  int
	patience time.Duration

	warnOnce sync.Once
}

// loop is one slot's pull-compute-complete cycle; it returns nil when the
// coordinator reports the fleet done, ctx.Err() on cancellation, and an
// error only for a coordinator unreachable past the patience window.
func (w *worker) loop(ctx context.Context, slot int) error {
	idle := fabric.Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second}
	var unreachableSince time.Time
	fails := 0
	for ctx.Err() == nil {
		lease, done, wait, err := w.client.Lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// The client already retried; persistent failure here means
			// the coordinator is down. Keep trying for the patience
			// window — it may be restarting — then give up.
			if unreachableSince.IsZero() {
				unreachableSince = time.Now()
			}
			if time.Since(unreachableSince) > w.patience {
				return fmt.Errorf("coordinator unreachable for %s: %w", w.patience, err)
			}
			fails++
			if err := idle.Sleep(ctx, min(fails, 5)); err != nil {
				return err
			}
			continue
		}
		unreachableSince = time.Time{}
		fails = 0
		if done {
			return nil
		}
		if lease == nil {
			t := time.NewTimer(fabric.Backoff{Base: wait, Cap: wait * 2}.Delay(0))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
			continue
		}
		w.runLease(ctx, slot, lease)
	}
	return ctx.Err()
}

// runLease computes one leased cell under heartbeat cover and completes
// it. Cancellation mid-cell completes nothing: the lease expires on its
// own and re-dispatches.
func (w *worker) runLease(ctx context.Context, slot int, lease *fabric.Lease) {
	ci := telemetry.CellInfo{
		Key:      lease.Key,
		Workload: lease.Spec.Workload,
		Setup:    lease.Spec.Scheme,
		Scheme:   lease.Spec.Scheme,
		Gen:      lease.Generation,
	}
	w.rec.CellQueued(ci)
	w.rec.CellStarted(ci, slot)

	// The heartbeat renews at TTL/3 until the cell settles or the lease
	// is refused (expired and re-issued — keep computing, stop renewing).
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		ttl := time.Duration(lease.TTLMS) * time.Millisecond
		interval := ttl / 3
		if interval < 20*time.Millisecond {
			interval = 20 * time.Millisecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				ok, err := w.client.Renew(hbCtx, lease)
				if err == nil && !ok {
					return // lease lost; completion will still be offered
				}
			}
		}
	}()

	start := time.Now()
	res, spans, err := w.computeWithRetries(ctx, slot, ci, lease)
	stopHB()
	hbWG.Wait()
	dur := time.Since(start)

	if ctx.Err() != nil {
		// Interrupted mid-cell: report nothing; the lease expires and the
		// cell re-dispatches cleanly.
		w.rec.CellFailed(ci, slot, dur, ctx.Err())
		return
	}

	var raw []byte
	var errmsg string
	if err != nil {
		errmsg = err.Error()
		w.rec.CellFailed(ci, slot, dur, err)
	} else {
		if raw, err = tps.EncodeResult(res); err != nil {
			errmsg = err.Error()
			w.rec.CellFailed(ci, slot, dur, err)
		} else {
			// Durability before acknowledgment: once the store has the
			// cell, even a coordinator that never answers again cannot
			// lose this work — a restarted one seeds it from here.
			if w.st != nil {
				if perr := w.st.Put(lease.Key, raw); perr != nil {
					w.warnOnce.Do(func() {
						fmt.Fprintf(os.Stderr, "tpsworker: store write failed, relying on HTTP completion (%v)\n", perr)
					})
				}
			}
			w.rec.CellFinished(ci, slot, dur, telemetry.Counters{
				Refs:        res.Refs,
				L1Hits:      res.MMU.L1Hits,
				L1Misses:    res.MMU.L1Misses,
				L2Hits:      res.MMU.STLBHits,
				L2Misses:    res.MMU.STLBMisses,
				WalkMemRefs: res.WalkMemRefs,
				AliasExtras: res.MMU.AliasExtras,
			})
		}
	}
	if _, cerr := w.client.CompleteSpans(ctx, lease, raw, errmsg, spans); cerr != nil && ctx.Err() == nil {
		// Completion never landed. If the store took the result the work
		// is safe; either way the coordinator re-dispatches on expiry.
		fmt.Fprintf(os.Stderr, "tpsworker: completion for %s/%s not delivered: %v\n",
			lease.Spec.Workload, lease.Spec.Scheme, cerr)
	}
}

// computeWithRetries mirrors the engine's opt-in retry policy: transient
// failures re-run under capped, jittered backoff; cancellation is final.
// When the lease carries trace context it also returns the worker-side
// spans — one attempt span per (re)run, parented to the cell span the
// coordinator named in the lease — for the completion RPC to ship back.
func (w *worker) computeWithRetries(ctx context.Context, slot int, ci telemetry.CellInfo, lease *fabric.Lease) (tps.Result, []span.Span, error) {
	bo := fabric.Backoff{}
	onRefs := w.rec.WorkerRefs(slot)
	traced := lease.Trace != ""
	var spans []span.Span
	for attempt := 0; ; attempt++ {
		start := time.Now()
		res, err := tps.RunSpec(ctx, lease.Spec, onRefs)
		if traced {
			sp := span.Span{
				Trace: lease.Trace, ID: span.NewID(), Parent: lease.Span,
				Kind:   span.KindAttempt,
				Name:   lease.Spec.Workload + "/" + lease.Spec.Scheme,
				Worker: w.client.Worker, Gen: lease.Generation,
				StartNS: start.UnixNano(), EndNS: time.Now().UnixNano(),
				Outcome: span.OutcomeCompleted,
			}
			if err != nil {
				sp.Outcome = span.OutcomeFailed
				sp.Err = err.Error()
			}
			spans = append(spans, sp)
		}
		if err == nil || attempt >= w.retries || ctx.Err() != nil {
			return res, spans, err
		}
		if err := bo.Sleep(ctx, attempt); err != nil {
			return tps.Result{}, spans, err
		}
		w.rec.CellRetried(ci, slot, attempt+1)
	}
}
