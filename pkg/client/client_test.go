package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
	"repro/pkg/api"
)

// newTestClient spins up a real Server (with an attached job manager) under
// httptest and returns an SDK client pointed at it, with sleeps shrunk so
// retry/watch tests run in milliseconds.
func newTestClient(t *testing.T, opts ...Option) (*Client, *server.Server) {
	t.Helper()
	s := server.New(server.Config{})
	m, err := jobs.Open(jobs.Config{
		DataDir: t.TempDir(),
		Planner: s.Planner(),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	s.AttachJobs(m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := New(ts.URL, opts...)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d / 100):
			return nil
		}
	}
	return c, s
}

func TestClientRoundTrip(t *testing.T) {
	c, _ := newTestClient(t)
	ctx := context.Background()

	hz, err := c.Healthz(ctx)
	if err != nil || hz.Status != "ok" || hz.Version != api.Version {
		t.Fatalf("healthz: %+v, %v", hz, err)
	}

	plan, err := c.Plan(ctx, api.PlanRequest{Shape: "5x6x7"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CubeDim != 8 || plan.Plan == "" {
		t.Fatalf("plan: %+v", plan)
	}

	emb, err := c.Embed(ctx, api.EmbedRequest{Shape: "5x6x7", IncludeMap: true})
	if err != nil {
		t.Fatal(err)
	}
	if emb.Metrics.CubeDim != 8 || emb.Embedding == nil || len(emb.Embedding.Map) != 210 {
		t.Fatalf("embed: %+v", emb)
	}

	cmp, err := c.Compare(ctx, api.CompareRequest{Shape: "3x5x7", Simnet: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) == 0 || len(cmp.Simnet) != len(cmp.Rows) {
		t.Fatalf("compare: %d rows, %d simnet entries", len(cmp.Rows), len(cmp.Simnet))
	}
}

// TestClientTypedErrors asserts every failing endpoint surfaces as a typed
// *api.Error with the right code, for each failure status the server emits.
func TestClientTypedErrors(t *testing.T) {
	c, _ := newTestClient(t, WithRetries(0))
	ctx := context.Background()

	cases := []struct {
		name string
		call func() error
		code api.ErrorCode
	}{
		{"bad shape", func() error {
			_, err := c.Plan(ctx, api.PlanRequest{Shape: "banana"})
			return err
		}, api.CodeBadRequest},
		{"too large", func() error {
			_, err := c.Plan(ctx, api.PlanRequest{Shape: "100000x100000x100000"})
			return err
		}, api.CodeShapeTooLarge},
		{"job not found", func() error {
			_, err := c.Job(ctx, "j-nope-000001")
			return err
		}, api.CodeNotFound},
		{"bad job params", func() error {
			_, err := c.SubmitJob(ctx, api.JobSubmitRequest{Kind: "census"})
			return err
		}, api.CodeBadRequest},
		{"unknown kind", func() error {
			_, err := c.SubmitJob(ctx, api.JobSubmitRequest{Kind: "mystery"})
			return err
		}, api.CodeBadRequest},
	}
	for _, tc := range cases {
		err := tc.call()
		var ae *api.Error
		if !errors.As(err, &ae) {
			t.Fatalf("%s: err %T %v is not *api.Error", tc.name, err, err)
		}
		if ae.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, ae.Code, tc.code)
		}
	}
}

// TestClientRetriesQueueFull verifies the backoff loop: a server that
// answers 429 queue_full (with a Retry-After hint) twice and then accepts
// must succeed through the SDK, and the hint must reach the sleep.
func TestClientRetriesQueueFull(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(api.ErrorResponse{
				Version: api.Version,
				Error:   &api.Error{Code: api.CodeQueueFull, Message: "full", RetryAfterMS: 1500},
			})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(api.JobStatus{Version: api.Version, ID: "j-x-000001", State: api.JobQueued})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, WithRetries(3), WithBackoff(10*time.Millisecond))
	c.sleep = func(ctx context.Context, d time.Duration) error { slept = append(slept, d); return nil }

	st, err := c.SubmitJob(context.Background(), api.JobSubmitRequest{Kind: api.JobCensus, Census: &api.CensusParams{MaxN: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j-x-000001" || calls.Load() != 3 {
		t.Fatalf("status %+v after %d calls", st, calls.Load())
	}
	// Both sleeps must honour the 1500ms body hint over the 10ms/20ms backoff.
	if len(slept) != 2 || slept[0] != 1500*time.Millisecond || slept[1] != 1500*time.Millisecond {
		t.Fatalf("slept %v, want two 1.5s waits", slept)
	}
}

// TestClientRetriesExhausted: a permanently-full queue yields the typed
// queue_full error after the configured attempts.
func TestClientRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{
			Version: api.Version,
			Error:   &api.Error{Code: api.CodeUnavailable, Message: "draining"},
		})
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond))
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	_, err := c.Healthz(context.Background())
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeUnavailable {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d calls, want 3 (1 + 2 retries)", calls.Load())
	}
}

// TestClientNonEnvelopeError: a proxy-style plain-text failure still comes
// back as a typed error, synthesized from the status code.
func TestClientNonEnvelopeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway or something", http.StatusNotFound)
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(0))
	_, err := c.Healthz(context.Background())
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeNotFound || ae.Message == "" {
		t.Fatalf("err = %v", err)
	}
}

// TestClientJobLifecycle drives submit → watch → results → cancel-noop
// against the real server and checks the streamed records parse.
func TestClientJobLifecycle(t *testing.T) {
	c, _ := newTestClient(t)
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, api.JobSubmitRequest{Kind: api.JobCensus, Census: &api.CensusParams{MaxN: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	fin, err := c.WatchJob(ctx, st.ID, time.Millisecond, func(api.JobStatus) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobDone || seen == 0 {
		t.Fatalf("watch: %+v after %d observations", fin, seen)
	}
	if fin.Progress.Shapes != 1<<9 {
		t.Fatalf("shapes = %d", fin.Progress.Shapes)
	}

	list, err := c.Jobs(ctx)
	if err != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("jobs list: %+v, %v", list, err)
	}

	rc, err := c.JobResults(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	full, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	var lines, summaries int
	sc := bufio.NewScanner(bytes.NewReader(full))
	for sc.Scan() {
		var disc struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &disc); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines++
		if disc.Type == api.RecordSummary {
			summaries++
		}
	}
	if lines == 0 || summaries != 1 {
		t.Fatalf("stream: %d lines, %d summaries", lines, summaries)
	}

	// Offset resume returns the exact suffix.
	off := int64(len(full) / 3)
	rc2, err := c.JobResults(ctx, st.ID, off)
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	tail, err := io.ReadAll(rc2)
	if err != nil {
		t.Fatal(err)
	}
	if string(tail) != string(full[off:]) {
		t.Fatalf("resume at %d: got %d bytes, want %d", off, len(tail), int64(len(full))-off)
	}
}

// TestClientCancelJob cancels a queued job through the SDK.
func TestClientCancelJob(t *testing.T) {
	c, _ := newTestClient(t)
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, api.JobSubmitRequest{Kind: api.JobCensus, Census: &api.CensusParams{MaxN: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.WatchJob(ctx, st.ID, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobCancelled {
		t.Fatalf("state = %s", fin.State)
	}
}

// TestLargeBodiesDecodeWhole: a 2xx body over 16 MiB — an include_map embed
// of 2^21 nodes, a plansweep chunk of 50k shapes — decodes whole, and each
// call reuses the one keep-alive connection.
func TestLargeBodiesDecodeWhole(t *testing.T) {
	plan := strings.Repeat("x", 17<<20)
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var v any
		switch r.URL.Path {
		case "/v1/embed":
			v = api.EmbedResponse{Version: api.Version, Plan: plan}
		case "/v1/internal/chunks":
			v = api.ChunkResult{Version: api.ChunkSchemaVersion, Plans: []api.PlanEntry{{Plan: plan}}}
		default:
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()
	for range 2 {
		emb, err := c.Embed(ctx, api.EmbedRequest{Shape: "128x128x128", IncludeMap: true})
		if err != nil {
			t.Fatalf("Embed: %v", err)
		}
		if len(emb.Plan) != len(plan) {
			t.Fatalf("Embed decoded a %d-byte plan, want %d", len(emb.Plan), len(plan))
		}
		res, err := c.ExecuteChunk(ctx, api.ChunkRequest{Version: api.ChunkSchemaVersion})
		if err != nil {
			t.Fatalf("ExecuteChunk: %v", err)
		}
		if len(res.Plans) != 1 || len(res.Plans[0].Plan) != len(plan) {
			t.Fatalf("ExecuteChunk decoded %d plans, want one of %d bytes", len(res.Plans), len(plan))
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("4 calls opened %d connections, want 1 reused", n)
	}
}
