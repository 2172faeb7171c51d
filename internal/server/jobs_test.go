package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/pkg/api"
)

// newJobServer wires a Server to a fresh job manager over a temp data dir
// and registers manager shutdown with the test's cleanup.
func newJobServer(t testing.TB, jcfg jobs.Config) (*Server, http.Handler) {
	t.Helper()
	s := New(Config{})
	jcfg.DataDir = t.TempDir()
	jcfg.Planner = s.Planner()
	jcfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	m, err := jobs.Open(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	s.AttachJobs(m)
	return s, s.Handler()
}

func doReq(t testing.TB, h http.Handler, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decodeEnvelope asserts a response is the api.ErrorResponse envelope with
// the expected status and code and a non-empty message.
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder, status int, code api.ErrorCode) api.ErrorResponse {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status = %d, want %d (body %s)", rec.Code, status, rec.Body.String())
	}
	var env api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("non-envelope error body %q: %v", rec.Body.String(), err)
	}
	if env.Error == nil || env.Error.Code != code || env.Error.Message == "" {
		t.Fatalf("envelope = %+v, want code %q", env, code)
	}
	if env.Version != api.Version {
		t.Fatalf("envelope version = %d, want %d", env.Version, api.Version)
	}
	return env
}

func submitJob(t testing.TB, h http.Handler, body string) api.JobStatus {
	t.Helper()
	rec := doReq(t, h, http.MethodPost, "/v1/jobs", body, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var st api.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("submit status: %+v", st)
	}
	return st
}

func waitJobDone(t testing.TB, h http.Handler, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rec := doReq(t, h, http.MethodGet, "/v1/jobs/"+id, "", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
		}
		var st api.JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return api.JobStatus{}
}

// TestJobsRoundTrip submits a census job over HTTP, watches it to
// completion, streams the results, and checks the stream against the
// synchronous census the stats package computes directly.
func TestJobsRoundTrip(t *testing.T) {
	_, h := newJobServer(t, jobs.Config{})
	st := submitJob(t, h, `{"kind":"census","census":{"max_n":3}}`)

	// The job appears in the listing.
	rec := doReq(t, h, http.MethodGet, "/v1/jobs", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d %s", rec.Code, rec.Body.String())
	}
	var list api.JobListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}

	fin := waitJobDone(t, h, st.ID)
	if fin.State != api.JobDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	if fin.Progress.Shapes != 1<<9 {
		t.Fatalf("progress = %+v, want %d shapes", fin.Progress, 1<<9)
	}

	rec = doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/results", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("results: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	rows := stats.Figure2Parallel(3, 1)
	var gotRows, summaries int
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var disc struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &disc); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch disc.Type {
		case api.RecordCensusRow:
			var row api.CensusRowRecord
			if err := json.Unmarshal([]byte(line), &row); err != nil {
				t.Fatal(err)
			}
			want := rows[row.N-1]
			if row.S != want.S || row.Total != want.Total || row.Exceptions != want.Exceptions {
				t.Fatalf("row n=%d: got %+v want %+v", row.N, row, want)
			}
			gotRows++
		case api.RecordSummary:
			summaries++
		}
	}
	if gotRows != 3 || summaries != 1 {
		t.Fatalf("stream had %d rows and %d summaries", gotRows, summaries)
	}
}

// TestJobsResultsOffsetResume re-streams from a mid-stream byte offset and
// must receive exactly the suffix of the full body.
func TestJobsResultsOffsetResume(t *testing.T) {
	_, h := newJobServer(t, jobs.Config{})
	st := submitJob(t, h, `{"kind":"plansweep","plansweep":{"dims":3,"max_axis":6,"max_nodes":128}}`)
	waitJobDone(t, h, st.ID)

	full := doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/results", "", nil).Body.String()
	if len(full) < 100 {
		t.Fatalf("stream too short to split: %d bytes", len(full))
	}
	off := len(full) / 2
	rec := doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/results", "",
		map[string]string{api.ResultsOffsetHeader: strconv.Itoa(off)})
	if rec.Code != http.StatusOK {
		t.Fatalf("resume: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(api.ResultsOffsetHeader); got != strconv.Itoa(off) {
		t.Fatalf("offset header echoed %q, want %d", got, off)
	}
	if rec.Body.String() != full[off:] {
		t.Fatalf("resumed stream is not the suffix (got %d bytes, want %d)", rec.Body.Len(), len(full)-off)
	}

	// Past-the-end offset is a 400 envelope, not a hang.
	rec = doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/results", "",
		map[string]string{api.ResultsOffsetHeader: strconv.Itoa(len(full) + 1)})
	decodeEnvelope(t, rec, http.StatusBadRequest, api.CodeBadRequest)
}

// TestJobsCancelOverHTTP cancels a queued job via DELETE and sees the
// cancelled state immediately and on subsequent reads.
func TestJobsCancelOverHTTP(t *testing.T) {
	_, h := newJobServer(t, jobs.Config{})
	st := submitJob(t, h, `{"kind":"census","census":{"max_n":8}}`)
	rec := doReq(t, h, http.MethodDelete, "/v1/jobs/"+st.ID, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body.String())
	}
	fin := waitJobDone(t, h, st.ID)
	if fin.State != api.JobCancelled {
		t.Fatalf("state after cancel = %s", fin.State)
	}
}

// TestOversizedBody413 sends bodies one byte over the 1 MiB cap to
// /v1/plan and /v1/jobs: both a whole JSON object padded with whitespace
// (which a reader that stops at the object would accept) and an object cut
// off by the cap (which a truncating reader would call unexpected EOF) must
// be a 413 with the bad_request envelope naming the limit.  A body of
// exactly 1 MiB is still served.
func TestOversizedBody413(t *testing.T) {
	_, h := newJobServer(t, jobs.Config{})
	const limit = 1 << 20
	pad := func(obj string, n int) string { return obj + strings.Repeat(" ", n-len(obj)) }
	cut := func(prefix string, n int) string { return prefix + strings.Repeat("x", n-len(prefix)) }
	valid := map[string]string{
		"/v1/plan": `{"shape":"4x4"}`,
		"/v1/jobs": `{"kind":"census","census":{"max_n":4}}`,
	}
	for path, obj := range valid {
		for name, body := range map[string]string{
			"padded":    pad(obj, limit+1),
			"truncated": cut(`{"kind":"`, limit+1),
		} {
			rec := doReq(t, h, http.MethodPost, path, body, nil)
			env := decodeEnvelope(t, rec, http.StatusRequestEntityTooLarge, api.CodeBadRequest)
			if !strings.Contains(env.Error.Message, "1 MiB") {
				t.Errorf("%s %s: message %q does not name the 1 MiB limit", path, name, env.Error.Message)
			}
		}
	}
	if rec := doReq(t, h, http.MethodPost, "/v1/plan", pad(valid["/v1/plan"], limit), nil); rec.Code != http.StatusOK {
		t.Fatalf("1 MiB body: %d %s", rec.Code, rec.Body.String())
	}
	if rec := doReq(t, h, http.MethodPost, "/v1/jobs", pad(valid["/v1/jobs"], limit), nil); rec.Code != http.StatusAccepted {
		t.Fatalf("1 MiB job body: %d %s", rec.Code, rec.Body.String())
	}
}

// TestJobsErrorEnvelopes drives every jobs failure path and asserts the
// typed envelope — bad body (400), validation (400), not found (404),
// queue full (429 + Retry-After), and no manager attached (503).
func TestJobsErrorEnvelopes(t *testing.T) {
	_, h := newJobServer(t, jobs.Config{QueueDepth: 1})

	rec := doReq(t, h, http.MethodPost, "/v1/jobs", `{"kind":`, nil)
	env := decodeEnvelope(t, rec, http.StatusBadRequest, api.CodeBadRequest)
	if env.Error.RetryAfterMS != 0 {
		t.Fatalf("bad request carries retry hint: %+v", env.Error)
	}

	rec = doReq(t, h, http.MethodPost, "/v1/jobs", `{"kind":"census","census":{"max_n":99}}`, nil)
	decodeEnvelope(t, rec, http.StatusBadRequest, api.CodeBadRequest)

	rec = doReq(t, h, http.MethodGet, "/v1/jobs/j-nope-000001", "", nil)
	decodeEnvelope(t, rec, http.StatusNotFound, api.CodeNotFound)
	rec = doReq(t, h, http.MethodDelete, "/v1/jobs/j-nope-000001", "", nil)
	decodeEnvelope(t, rec, http.StatusNotFound, api.CodeNotFound)
	rec = doReq(t, h, http.MethodGet, "/v1/jobs/j-nope-000001/results", "", nil)
	decodeEnvelope(t, rec, http.StatusNotFound, api.CodeNotFound)

	// Saturate the queue: the runner picks up one job, one waits, then the
	// depth-1 queue is full.  Keep submitting until the 429 shows up — the
	// first jobs may drain arbitrarily fast.
	sawFull := false
	for i := 0; i < 20 && !sawFull; i++ {
		rec = doReq(t, h, http.MethodPost, "/v1/jobs", `{"kind":"census","census":{"max_n":7}}`, nil)
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			env := decodeEnvelope(t, rec, http.StatusTooManyRequests, api.CodeQueueFull)
			if rec.Header().Get("Retry-After") == "" || env.Error.RetryAfterMS <= 0 {
				t.Fatalf("429 without retry hint: header %q, body %+v", rec.Header().Get("Retry-After"), env.Error)
			}
			sawFull = true
		default:
			t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
		}
	}
	if !sawFull {
		t.Fatal("queue never reported full")
	}

	// A server without an attached manager answers 503 on every jobs route.
	bare := New(Config{}).Handler()
	rec = doReq(t, bare, http.MethodPost, "/v1/jobs", `{"kind":"census","census":{"max_n":3}}`, nil)
	decodeEnvelope(t, rec, http.StatusServiceUnavailable, api.CodeUnavailable)
	rec = doReq(t, bare, http.MethodGet, "/v1/jobs", "", nil)
	decodeEnvelope(t, rec, http.StatusServiceUnavailable, api.CodeUnavailable)
	rec = doReq(t, bare, http.MethodGet, "/v1/jobs/x/results", "", nil)
	decodeEnvelope(t, rec, http.StatusServiceUnavailable, api.CodeUnavailable)
}

// TestJobsMetricsExposition checks the job gauges appear on /metrics once a
// manager is attached.
func TestJobsMetricsExposition(t *testing.T) {
	_, h := newJobServer(t, jobs.Config{})
	st := submitJob(t, h, `{"kind":"census","census":{"max_n":3}}`)
	waitJobDone(t, h, st.ID)
	rec := doReq(t, h, http.MethodGet, "/metrics", "", nil)
	body := rec.Body.String()
	for _, name := range []string{
		"embedserver_jobs_done 1",
		"embedserver_jobs_queue_capacity",
		"embedserver_jobs_shapes_total 512",
		"embedserver_jobs_result_bytes_total",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %q:\n%s", name, body)
		}
	}
}
