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
	"repro/pkg/api"
)

// sseTestEvent is one parsed text/event-stream frame.  id is -1 when the
// frame carried no id line.
type sseTestEvent struct {
	typ  string
	id   int64
	data string
}

// parseSSE parses a text/event-stream body into its frames, failing the test
// on any framing violation (unknown field, bad id, dataless frame).
func parseSSE(t *testing.T, body string) []sseTestEvent {
	t.Helper()
	var out []sseTestEvent
	for _, block := range strings.Split(body, "\n\n") {
		if block == "" {
			continue
		}
		ev := sseTestEvent{id: -1}
		seenData := false
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.typ = line[len("event: "):]
			case strings.HasPrefix(line, "id: "):
				id, err := strconv.ParseInt(line[len("id: "):], 10, 64)
				if err != nil {
					t.Fatalf("bad SSE id line %q: %v", line, err)
				}
				ev.id = id
			case strings.HasPrefix(line, "data: "):
				ev.data = line[len("data: "):]
				seenData = true
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
		if ev.typ == "" || !seenData {
			t.Fatalf("SSE frame missing event/data: %q", block)
		}
		out = append(out, ev)
	}
	return out
}

// sseRows filters the row events and re-derives the NDJSON stream they
// carry, checking that each row's id is the byte offset just past its line.
func sseRows(t *testing.T, evs []sseTestEvent, from int64) (rows []sseTestEvent, ndjson string) {
	t.Helper()
	cur := from
	var b strings.Builder
	for _, ev := range evs {
		if ev.typ != "row" {
			if ev.id != -1 {
				t.Fatalf("%s event carries id %d, want none", ev.typ, ev.id)
			}
			continue
		}
		want := cur + int64(len(ev.data)) + 1
		if ev.id != want {
			t.Fatalf("row id = %d, want %d (offset %d + %d data bytes + newline)",
				ev.id, want, cur, len(ev.data))
		}
		cur = ev.id
		b.WriteString(ev.data)
		b.WriteByte('\n')
		rows = append(rows, ev)
	}
	return rows, b.String()
}

// TestSSEStreamMatchesResultsDownload: the full event stream of a finished
// job re-assembles byte-identically into the NDJSON download, interleaves at
// least one progress event, and terminates with a done event carrying the
// terminal status.
func TestSSEStreamMatchesResultsDownload(t *testing.T) {
	_, h := newJobServer(t, jobs.Config{})
	st := submitJob(t, h, `{"kind":"census","census":{"max_n":4}}`)
	if fin := waitJobDone(t, h, st.ID); fin.State != api.JobDone {
		t.Fatalf("job ended %s", fin.State)
	}
	ndjson := doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/results", "", nil)
	if ndjson.Code != http.StatusOK {
		t.Fatalf("results: %d", ndjson.Code)
	}

	rec := doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/events", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs := parseSSE(t, rec.Body.String())
	rows, got := sseRows(t, evs, 0)
	if got != ndjson.Body.String() {
		t.Fatalf("reassembled rows differ from NDJSON download (%d vs %d bytes)",
			len(got), ndjson.Body.Len())
	}
	if len(rows) == 0 {
		t.Fatal("no row events")
	}
	last := evs[len(evs)-1]
	if last.typ != "done" {
		t.Fatalf("last event = %q, want done", last.typ)
	}
	if !strings.Contains(last.data, `"done"`) {
		t.Fatalf("done event data %q does not carry the terminal status", last.data)
	}
	var progress bool
	for _, ev := range evs {
		if ev.typ == "progress" {
			progress = true
		}
	}
	if !progress {
		t.Error("stream carried no progress event")
	}

	// rows=off: same stream shape, no row events.
	rec = doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/events?rows=off", "", nil)
	evs = parseSSE(t, rec.Body.String())
	for _, ev := range evs {
		if ev.typ == "row" {
			t.Fatalf("rows=off stream still carries row events")
		}
	}
	if evs[len(evs)-1].typ != "done" {
		t.Fatalf("rows=off stream did not end with done")
	}
}

// openJobServerAt opens a server over an existing jobs data dir and returns
// the manager so the test can stop it ("kill the server") mid-scenario.
func openJobServerAt(t *testing.T, dir string) (*Server, http.Handler, *jobs.Manager) {
	t.Helper()
	s := New(Config{})
	m, err := jobs.Open(jobs.Config{
		DataDir: dir,
		Planner: s.Planner(),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachJobs(m)
	return s, s.Handler(), m
}

// TestSSEResumeAcrossRestart is the ISSUE's resume criterion: a client that
// consumed a prefix of the stream before the server died reconnects to a
// fresh process on the same data dir with Last-Event-ID, and the
// concatenation of the two streams' row payloads is byte-identical to the
// NDJSON download.
func TestSSEResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, h, m := openJobServerAt(t, dir)
	st := submitJob(t, h, `{"kind":"census","census":{"max_n":4}}`)
	if fin := waitJobDone(t, h, st.ID); fin.State != api.JobDone {
		t.Fatalf("job ended %s", fin.State)
	}
	ndjson := doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/results", "", nil).Body.String()

	// First connection: the "client" processes only the first half of the
	// rows before its server is killed — exactly the state of a consumer cut
	// off mid-stream, since SSE delivers a prefix in order.
	rec := doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/events", "", nil)
	rows, _ := sseRows(t, parseSSE(t, rec.Body.String()), 0)
	if len(rows) < 2 {
		t.Fatalf("need at least 2 rows to cut the stream, got %d", len(rows))
	}
	prefix := rows[:len(rows)/2]
	lastID := prefix[len(prefix)-1].id
	var got strings.Builder
	for _, ev := range prefix {
		got.WriteString(ev.data)
		got.WriteByte('\n')
	}

	// Kill: stop the manager, then bring up a new server on the same dir.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	m.Close(ctx)
	cancel()
	_, h2, m2 := openJobServerAt(t, dir)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m2.Close(ctx)
	})

	// Reconnect with Last-Event-ID; rows resume at the exact byte offset.
	rec = doReq(t, h2, http.MethodGet, "/v1/jobs/"+st.ID+"/events", "",
		map[string]string{"Last-Event-ID": strconv.FormatInt(lastID, 10)})
	if rec.Code != http.StatusOK {
		t.Fatalf("resumed events: %d %s", rec.Code, rec.Body.String())
	}
	resumed, tail := sseRows(t, parseSSE(t, rec.Body.String()), lastID)
	if len(resumed) == 0 {
		t.Fatal("resumed stream carried no rows")
	}
	if first := resumed[0].id; first <= lastID {
		t.Fatalf("resumed stream replayed already-consumed rows (first id %d <= %d)", first, lastID)
	}
	got.WriteString(tail)
	if got.String() != ndjson {
		t.Fatalf("prefix + resumed rows differ from NDJSON download (%d vs %d bytes)",
			got.Len(), len(ndjson))
	}

	// An offset past the committed length is a client bug, not a hang.
	rec = doReq(t, h2, http.MethodGet, "/v1/jobs/"+st.ID+"/events", "",
		map[string]string{"Last-Event-ID": strconv.FormatInt(int64(len(ndjson))+1, 10)})
	decodeEnvelope(t, rec, http.StatusBadRequest, api.CodeBadRequest)
}

// TestSSEFollowsBigJobOnOneConnection: a plansweep chunk commits a whole
// first axis of rows at once, so one poll can reveal thousands of rows.  A
// live subscriber must still follow the job to its done event on one
// connection, with rows byte-identical to the results download, while a
// second subscriber of the same job never reads its stream at all.
func TestSSEFollowsBigJobOnOneConnection(t *testing.T) {
	s, _ := newJobServer(t, jobs.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	get := func(ctx context.Context, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return resp
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"plansweep","plansweep":{"dims":3,"max_axis":40,"max_nodes":65536}}`))
	if err != nil {
		t.Fatal(err)
	}
	var st api.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}

	stalledCtx, stall := context.WithCancel(ctx)
	stalled := get(stalledCtx, "/v1/jobs/"+st.ID+"/events")
	defer func() {
		stall()
		stalled.Body.Close()
	}()

	live := get(ctx, "/v1/jobs/"+st.ID+"/events")
	body, err := io.ReadAll(live.Body)
	live.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	evs := parseSSE(t, string(body))
	if len(evs) == 0 {
		t.Fatal("empty event stream")
	}
	if last := evs[len(evs)-1]; last.typ != "done" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("stream ended with %s %q after %d events, want done", last.typ, last.data, len(evs))
	}
	_, got := sseRows(t, evs, 0)

	results := get(ctx, "/v1/jobs/"+st.ID+"/results")
	want, err := io.ReadAll(results.Body)
	results.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("rows differ from the results download (%d vs %d bytes)", len(got), len(want))
	}
}

// FuzzJobStreamOffset sends each input as the resume offset of both result
// streams of one finished job: Last-Event-ID on /events, Last-Event-Offset
// on /results.  Both answer 200 or a 400 envelope, never a 5xx.  On a 200
// the rows start exactly at the offset, even one inside a line: each row id
// is the offset just past its payload, the payloads concatenate to the
// /results body, and the stream ends with done.
func FuzzJobStreamOffset(f *testing.F) {
	_, h := newJobServer(f, jobs.Config{})
	st := submitJob(f, h, `{"kind":"census","census":{"max_n":3}}`)
	if fin := waitJobDone(f, h, st.ID); fin.State != api.JobDone {
		f.Fatalf("job ended %s", fin.State)
	}
	full := doReq(f, h, http.MethodGet, "/v1/jobs/"+st.ID+"/results", "", nil).Body.String()
	committed := int64(len(full))
	for _, seed := range []string{
		"", "0", "5",
		strconv.Itoa(strings.IndexByte(full, '\n') + 1),
		strconv.FormatInt(committed, 10),
		strconv.FormatInt(committed+1, 10),
		"-1", "x", "9223372036854775807",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		events := doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/events", "", map[string]string{"Last-Event-ID": raw})
		results := doReq(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/results", "", map[string]string{api.ResultsOffsetHeader: raw})
		if events.Code != http.StatusOK || results.Code != http.StatusOK {
			decodeEnvelope(t, events, http.StatusBadRequest, api.CodeBadRequest)
			decodeEnvelope(t, results, http.StatusBadRequest, api.CodeBadRequest)
			return
		}
		offset := int64(0)
		if raw != "" {
			var err error
			if offset, err = strconv.ParseInt(raw, 10, 64); err != nil {
				t.Fatalf("offset %q answered 200: %v", raw, err)
			}
		}
		evs := parseSSE(t, events.Body.String())
		if len(evs) == 0 || evs[len(evs)-1].typ != "done" {
			t.Fatalf("offset %q: stream does not end with done", raw)
		}
		if _, rows := sseRows(t, evs, offset); rows != results.Body.String() {
			t.Fatalf("offset %q: rows differ from the results body (%d vs %d bytes)", raw, len(rows), results.Body.Len())
		}
	})
}
