package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"tps/internal/telemetry/span"
)

// Client is the worker side of the lease protocol: thin, retrying RPC
// wrappers over the coordinator's HTTP surface. Every call retries
// transport-level failures (connection refused, dropped responses,
// truncated bodies that fail to decode) under jittered backoff — on a
// chaotic network an RPC that eventually lands is indistinguishable from
// one that landed first try. Retried completions are exactly the
// duplicate-delivery case the coordinator dedupes by fingerprint, so
// retrying is always safe.
type Client struct {
	// Base is the coordinator root, e.g. "http://10.0.0.7:8719".
	Base string
	// Worker names this worker in leases and the fleet snapshot.
	Worker string
	// HTTP is the transport; nil uses a client with a 30 s call timeout.
	// Chaos tests and -chaos-http install a FaultyTransport here.
	HTTP *http.Client
	// Attempts bounds transport retries per call; <= 0 means 6.
	Attempts int
	// Backoff paces the retries; the zero value is the shared default.
	Backoff Backoff
	// Stats supplies the worker-side telemetry pushed with lease and
	// renew requests; nil pushes zeros.
	Stats func() WorkerStats
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (cl *Client) attempts() int {
	if cl.Attempts > 0 {
		return cl.Attempts
	}
	return 6
}

func (cl *Client) stats() WorkerStats {
	if cl.Stats != nil {
		return cl.Stats()
	}
	return WorkerStats{}
}

// post sends one JSON request and strictly decodes the JSON response,
// retrying transport and decode failures. A 4xx status is a protocol
// error and returns immediately; everything else is presumed transient.
func (cl *Client) post(ctx context.Context, path string, reqBody, respBody any) error {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("fabric: encode %s: %w", path, err)
	}
	var last error
	for attempt := 0; attempt < cl.attempts(); attempt++ {
		if attempt > 0 {
			if err := cl.Backoff.Sleep(ctx, attempt-1); err != nil {
				return err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			cl.Base+path, bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("fabric: %s: %w", path, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cl.httpClient().Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			last = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			last = err
			continue
		}
		if resp.StatusCode/100 == 4 {
			return fmt.Errorf("fabric: %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
		}
		if resp.StatusCode != http.StatusOK {
			last = fmt.Errorf("fabric: %s: %s", path, resp.Status)
			continue
		}
		if err := decodeBody(bytes.NewReader(body), respBody); err != nil {
			last = fmt.Errorf("fabric: %s: undecodable response (%w)", path, err)
			continue // truncated/garbled body: retry
		}
		return nil
	}
	return fmt.Errorf("fabric: %s: %d attempts failed, last: %w", path, cl.attempts(), last)
}

// Lease asks for work. done reports fleet completion (the worker may
// exit); a nil lease with done == false means poll again after ~wait.
func (cl *Client) Lease(ctx context.Context) (lease *Lease, done bool, wait time.Duration, err error) {
	var resp GrantResponse
	err = cl.post(ctx, "/fabric/lease", GrantRequest{Worker: cl.Worker, Stats: cl.stats()}, &resp)
	if err != nil {
		return nil, false, 0, err
	}
	wait = time.Duration(resp.WaitMS) * time.Millisecond
	if wait <= 0 {
		wait = time.Second
	}
	return resp.Lease, resp.Done, wait, nil
}

// Renew heartbeats a held lease. ok == false means the lease is lost
// (expired or re-issued): stop renewing, finish the cell, complete anyway.
func (cl *Client) Renew(ctx context.Context, lease *Lease) (ok bool, err error) {
	var resp RenewResponse
	err = cl.post(ctx, "/fabric/renew", RenewRequest{
		Worker: cl.Worker, Key: lease.Key, Generation: lease.Generation,
		Stats: cl.stats(),
	}, &resp)
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// Complete reports a cell's result (or terminal worker-side error). The
// call is idempotent server-side; the client retries it as eagerly as any
// other.
func (cl *Client) Complete(ctx context.Context, lease *Lease, result []byte, errmsg string) (CompleteResponse, error) {
	return cl.CompleteSpans(ctx, lease, result, errmsg, nil)
}

// CompleteSpans is Complete carrying the worker's attempt spans for the
// run-wide trace. Spans ride the same idempotent request;
// a retried completion re-sends them and the coordinator's per-cell span
// cap absorbs the duplication.
func (cl *Client) CompleteSpans(ctx context.Context, lease *Lease, result []byte, errmsg string, spans []span.Span) (CompleteResponse, error) {
	var resp CompleteResponse
	err := cl.post(ctx, "/fabric/complete", CompleteRequest{
		Worker: cl.Worker, Key: lease.Key, Generation: lease.Generation,
		Result: result, Error: errmsg, Spans: spans,
	}, &resp)
	return resp, err
}
