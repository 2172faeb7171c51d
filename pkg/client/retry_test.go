package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/pkg/api"
)

// flakyTransport fails the first `fails` round trips, then delegates to the
// real transport.  A failing round trip returns err — http.Client wraps it
// in a *url.Error, which errors.Is unwraps, exactly what a refused dial to a
// restarting peer looks like — or, with err nil, a 503 unavailable envelope
// with Retry-After: 1.
type flakyTransport struct {
	inner http.RoundTripper
	err   error
	fails int

	mu    sync.Mutex
	calls int
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n <= f.fails {
		if f.err != nil {
			return nil, f.err
		}
		body, _ := json.Marshal(api.ErrorResponse{
			Version: api.Version,
			Error:   &api.Error{Code: api.CodeUnavailable, Message: "draining"},
		})
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable",
			Header:     http.Header{"Retry-After": {"1"}},
			Body:       io.NopCloser(bytes.NewReader(body)),
			Request:    req,
		}, nil
	}
	return f.inner.RoundTrip(req)
}

func (f *flakyTransport) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// flakyClient is newTestClient with the transport replaced; the returned
// counter reports how many round trips were attempted.
func flakyClient(t *testing.T, err error, fails int, opts ...Option) (*Client, *flakyTransport) {
	t.Helper()
	c, _ := newTestClient(t, opts...)
	ft := &flakyTransport{inner: http.DefaultTransport, err: err, fails: fails}
	c.http = &http.Client{Transport: ft}
	return c, ft
}

// TestTransientDialRetried: connection-refused failures back off and retry
// until the peer answers — the path a fabric coordinator takes when a worker
// registers a moment before its listener accepts, or restarts between
// chunks.
func TestTransientDialRetried(t *testing.T) {
	for _, dialErr := range []error{syscall.ECONNREFUSED, syscall.ECONNRESET} {
		c, ft := flakyClient(t, dialErr, 2, WithRetries(4))
		hz, err := c.Healthz(context.Background())
		if err != nil {
			t.Fatalf("%v twice then up: %v", dialErr, err)
		}
		if hz.Status != "ok" {
			t.Fatalf("healthz after retry: %+v", hz)
		}
		if got := ft.count(); got != 3 {
			t.Fatalf("round trips = %d, want 3 (2 refused + 1 ok)", got)
		}
	}
}

// TestTransientDialExhausted: the retry budget bounds the attempts and the
// last dial error surfaces unmasked.
func TestTransientDialExhausted(t *testing.T) {
	c, ft := flakyClient(t, syscall.ECONNREFUSED, 100, WithRetries(2))
	_, err := c.Healthz(context.Background())
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("err = %v, want ECONNREFUSED", err)
	}
	if got := ft.count(); got != 3 {
		t.Fatalf("round trips = %d, want 3 (1 + 2 retries)", got)
	}
}

// TestNonTransientDialNotRetried: transport failures that do not look like
// a down peer (DNS, TLS, protocol errors) return immediately.
func TestNonTransientDialNotRetried(t *testing.T) {
	boom := errors.New("tls: handshake failure")
	c, ft := flakyClient(t, boom, 100, WithRetries(4))
	_, err := c.Healthz(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the handshake failure", err)
	}
	if got := ft.count(); got != 1 {
		t.Fatalf("round trips = %d, want 1 (no retry)", got)
	}
}

// TestCancelledDialNotRetried: context cancellation is never retried, even
// though it surfaces as a transport-level error.
func TestCancelledDialNotRetried(t *testing.T) {
	c, ft := flakyClient(t, context.Canceled, 100, WithRetries(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Healthz(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ft.count(); got > 1 {
		t.Fatalf("round trips = %d, want at most 1 (no retry)", got)
	}
}

// TestStreamsRetried: the stream openers and the plain GETs share the retry
// loop of every other call.  A refused dial and then a 503 with Retry-After
// are both retried, the second wait honours the hint, and the third round
// trip succeeds.
func TestStreamsRetried(t *testing.T) {
	c, _ := newTestClient(t)
	ctx := context.Background()
	id := submitCensus(t, c)
	if st, err := c.WatchJob(ctx, id, time.Millisecond, nil); err != nil || st.State != api.JobDone {
		t.Fatalf("watch: %+v, %v", st, err)
	}
	rc, err := c.JobResults(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	results, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		read func(c *Client) ([]byte, error)
		want []byte // nil: any body
	}{
		{"JobResults", func(c *Client) ([]byte, error) {
			rc, err := c.JobResults(ctx, id, 0)
			if err != nil {
				return nil, err
			}
			defer rc.Close()
			return io.ReadAll(rc)
		}, results},
		{"JobEvents", func(c *Client) ([]byte, error) {
			s, err := c.JobEvents(ctx, id, 0, true)
			if err != nil {
				return nil, err
			}
			defer s.Close()
			var rows []byte
			for {
				ev, err := s.Next()
				if err == io.EOF {
					return rows, nil
				}
				if err != nil {
					return nil, err
				}
				if ev.Type == "row" {
					rows = append(append(rows, ev.Data...), '\n')
				}
			}
		}, results},
		{"RawMetrics", func(c *Client) ([]byte, error) {
			m, err := c.RawMetrics(ctx)
			return []byte(m), err
		}, nil},
	} {
		ft := &flakyTransport{
			inner: &flakyTransport{inner: http.DefaultTransport, fails: 1},
			err:   syscall.ECONNREFUSED,
			fails: 1,
		}
		flaky := New(c.base, WithBackoff(10*time.Millisecond))
		flaky.http = &http.Client{Transport: ft}
		var slept []time.Duration
		flaky.sleep = func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		}
		got, err := tc.read(flaky)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.want != nil && !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: stream differs from the results download (%d vs %d bytes)", tc.name, len(got), len(tc.want))
		}
		if n := ft.count(); n != 3 {
			t.Fatalf("%s: round trips = %d, want 3 (refused, 503, ok)", tc.name, n)
		}
		if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != time.Second {
			t.Fatalf("%s: slept %v, want [10ms 1s]", tc.name, slept)
		}
	}
}
