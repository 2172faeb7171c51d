// Package client is the Go SDK for the embedding service's /v1 HTTP API.
//
// It speaks exactly the wire types of pkg/api: requests are the api request
// structs, successes decode into the api response structs, and every
// non-2xx response surfaces as a *api.Error — callers branch on the typed
// code (errors.As) instead of parsing strings or status text.
//
// Retry policy: transient rejections — 429 over_capacity / queue_full and
// 503 unavailable — are retried with exponential backoff, honouring the
// server's Retry-After hint (header or retry_after_ms body field) when it
// is longer than the backoff step.  504 timeout is retried for idempotent
// GETs and for the compute endpoints, whose results land in the server's
// cache while the client waits, so the retry is usually a hit.  Everything
// else (400, 404, 422, 500) returns immediately.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/pkg/api"
)

// Client calls one embedding service.  The zero value is not usable; use
// New.  Client is immutable after New and safe for concurrent use.
type Client struct {
	base    string
	http    *http.Client
	retries int
	backoff time.Duration
	secret  string
	// sleep is swappable for tests; it must respect ctx cancellation.
	sleep func(ctx context.Context, d time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (connection
// pooling, TLS, proxies).  The default has no overall timeout — per-call
// deadlines belong to the caller's context.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetries bounds how many times a transient failure is retried
// (default 4; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base backoff delay, doubled per attempt (default
// 250ms).  The server's Retry-After hint overrides it when longer.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithSecret attaches the fabric shared secret to every request (the
// X-Fabric-Secret header).  Required for the internal endpoints — chunk
// execution and peer join; public endpoints ignore the header.
func WithSecret(s string) Option { return func(c *Client) { c.secret = s } }

// New returns a Client for the service at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		http:    &http.Client{},
		retries: 4,
		backoff: 250 * time.Millisecond,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// retryable reports whether a typed API error is worth retrying: the
// request was rejected without (or before) being processed, or the result
// is being computed and cached server-side.
func retryable(e *api.Error) bool {
	switch e.Code {
	case api.CodeOverCapacity, api.CodeQueueFull, api.CodeUnavailable, api.CodeTimeout:
		return true
	}
	return false
}

// transientDial reports whether a transport-level failure is worth retrying
// with the same backoff as a 429/503: connection refused (the peer is down
// or restarting — the fabric's worker-loss path) or connection reset (it
// died mid-request).  Both mean the request was not processed, so a resend
// is safe.  Context cancellation is never retried.
func transientDial(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// decodeError turns a non-2xx response into a *api.Error, tolerating
// non-envelope bodies (proxies, panics) by synthesizing one from the
// status.
func decodeError(resp *http.Response, body []byte) *api.Error {
	var env api.ErrorResponse
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		e := env.Error
		if e.RetryAfterMS == 0 {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				e.RetryAfterMS = int64(secs) * 1000
			}
		}
		return e
	}
	code := api.CodeInternal
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		code = api.CodeOverCapacity
	case http.StatusServiceUnavailable:
		code = api.CodeUnavailable
	case http.StatusGatewayTimeout:
		code = api.CodeTimeout
	case http.StatusBadRequest:
		code = api.CodeBadRequest
	case http.StatusNotFound:
		code = api.CodeNotFound
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	if msg == "" {
		msg = resp.Status
	}
	return &api.Error{Code: code, Message: msg}
}

// send runs one request under the retry policy and returns the first 2xx
// response, whose body the caller must close.  payload, when non-nil, is a
// JSON body resent on every attempt — requests must stay resubmittable for
// retry to be sound, which the retried codes guarantee (the server rejected
// without side effects, or the call is idempotent).
func (c *Client) send(ctx context.Context, method, path string, hdr http.Header, payload []byte) (*http.Response, error) {
	delay := c.backoff
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		maps.Copy(req.Header, hdr)
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.secret != "" {
			req.Header.Set(api.FabricSecretHeader, c.secret)
		}
		resp, err := c.http.Do(req)
		if err == nil && resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return resp, nil
		}
		wait := delay
		if err == nil {
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			apiErr := decodeError(resp, data)
			if !retryable(apiErr) {
				return nil, apiErr
			}
			if hint := time.Duration(apiErr.RetryAfterMS) * time.Millisecond; hint > wait {
				wait = hint
			}
			err = apiErr
		} else if !transientDial(err) {
			// Anything but a refused or reset dial — including a ctx
			// cause — returns unmasked.
			return nil, err
		}
		// A context that dies while backing off reports the last failure.
		if attempt >= c.retries || c.sleep(ctx, wait) != nil {
			return nil, err
		}
		delay *= 2
	}
}

// do runs one JSON API call through send and decodes the 2xx body into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	resp, err := c.send(ctx, method, path, nil, payload)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// To EOF with no cap: the request bounds a 2xx body (an include_map
	// embed, a plansweep chunk can pass 16 MiB), and reading it whole lets
	// the keep-alive connection be reused.
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decode %s response: %w", path, err)
	}
	return nil
}

// call is one JSON API call whose 2xx body decodes into a T: do, with the
// result returned by pointer and nil on error.
func call[T any](ctx context.Context, c *Client, method, path string, body any) (*T, error) {
	var out T
	if err := c.do(ctx, method, path, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz checks service liveness.
func (c *Client) Healthz(ctx context.Context) (*api.HealthzResponse, error) {
	return call[api.HealthzResponse](ctx, c, http.MethodGet, "/healthz", nil)
}

// Plan plans a shape without building the embedding.
func (c *Client) Plan(ctx context.Context, req api.PlanRequest) (*api.PlanResponse, error) {
	return call[api.PlanResponse](ctx, c, http.MethodPost, "/v1/plan", req)
}

// Embed plans, builds and measures one embedding.
func (c *Client) Embed(ctx context.Context, req api.EmbedRequest) (*api.EmbedResponse, error) {
	return call[api.EmbedResponse](ctx, c, http.MethodPost, "/v1/embed", req)
}

// Compare measures one shape under every applicable technique.
func (c *Client) Compare(ctx context.Context, req api.CompareRequest) (*api.CompareResponse, error) {
	return call[api.CompareResponse](ctx, c, http.MethodPost, "/v1/compare", req)
}

// SubmitJob submits a batch sweep and returns its accepted (queued)
// status.  A queue_full rejection is retried with backoff — the server
// guarantees a rejected submit had no side effects.
func (c *Client) SubmitJob(ctx context.Context, req api.JobSubmitRequest) (*api.JobStatus, error) {
	return call[api.JobStatus](ctx, c, http.MethodPost, "/v1/jobs", req)
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	return call[api.JobStatus](ctx, c, http.MethodGet, "/v1/jobs/"+id, nil)
}

// Jobs lists every job the server knows, in creation order.
func (c *Client) Jobs(ctx context.Context) ([]api.JobStatus, error) {
	var out api.JobListResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// CancelJob cancels a job and returns its resulting status.
func (c *Client) CancelJob(ctx context.Context, id string) (*api.JobStatus, error) {
	return call[api.JobStatus](ctx, c, http.MethodDelete, "/v1/jobs/"+id, nil)
}

// JobResults opens the job's NDJSON result stream starting at byte offset
// (0 for the beginning).  The stream long-polls: it ends only when the job
// is terminal and fully delivered, the context is cancelled, or the
// connection drops.  The caller must Close the reader; to resume after a
// drop, pass the total byte count consumed so far as the new offset.
func (c *Client) JobResults(ctx context.Context, id string, offset int64) (io.ReadCloser, error) {
	hdr := http.Header{}
	if offset > 0 {
		hdr.Set(api.ResultsOffsetHeader, strconv.FormatInt(offset, 10))
	}
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/results", hdr, nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// JobArtifact opens the plan-census artifact of a finished plancensus job
// as a download stream (the raw internal/artifact file bytes).  Before the
// job finishes the server answers 409 not_ready, returned as a *api.Error
// without retrying — poll with WatchJob first, or back off on the error's
// RetryAfterMS.  The caller must Close the reader.
func (c *Client) JobArtifact(ctx context.Context, id string) (io.ReadCloser, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/artifact", nil, nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// ExecuteChunk runs exactly one chunk of a job spec on this server (the
// fabric worker endpoint, POST /v1/internal/chunks) and returns its
// deterministic output.  The server requires the fabric shared secret
// (WithSecret) and answers 503 unavailable when started without one.
// Chunk execution is side-effect free on the worker, so the usual retry
// policy (429/503 and transient dial failures) applies safely.
func (c *Client) ExecuteChunk(ctx context.Context, req api.ChunkRequest) (*api.ChunkResult, error) {
	return call[api.ChunkResult](ctx, c, http.MethodPost, "/v1/internal/chunks", req)
}

// Peers lists the coordinator's fabric peers with health and per-peer
// dispatch counters (GET /v1/peers).
func (c *Client) Peers(ctx context.Context) (*api.PeersResponse, error) {
	return call[api.PeersResponse](ctx, c, http.MethodGet, "/v1/peers", nil)
}

// JoinPeer registers addr (a worker's advertised base URL) with the
// coordinator (POST /v1/peers, the -join handshake).  Requires the fabric
// secret; joining an already-known address re-dials it.
func (c *Client) JoinPeer(ctx context.Context, addr string) (*api.PeersResponse, error) {
	return call[api.PeersResponse](ctx, c, http.MethodPost, "/v1/peers", api.PeerJoinRequest{Addr: addr})
}

// RawMetrics fetches the server's Prometheus text exposition verbatim, for
// callers that read or diff counters such as embedserver_plan_tier_*_total
// across a run.
func (c *Client) RawMetrics(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// WatchJob polls a job until it reaches a terminal state, invoking fn on
// every status observed (including the terminal one).  fn may be nil.  It
// returns the terminal status; the error reports polling failures, not job
// failure — inspect the returned state for that.
func (c *Client) WatchJob(ctx context.Context, id string, interval time.Duration, fn func(api.JobStatus)) (*api.JobStatus, error) {
	if interval <= 0 {
		interval = time.Second
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if fn != nil {
			fn(*st)
		}
		if st.State.Terminal() {
			return st, nil
		}
		if err := c.sleep(ctx, interval); err != nil {
			return nil, err
		}
	}
}
