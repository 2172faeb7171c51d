package client

import (
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pkg/api"
)

// submitCensus submits a small census job and returns its id.
func submitCensus(t *testing.T, c *Client) string {
	t.Helper()
	st, err := c.SubmitJob(context.Background(), api.JobSubmitRequest{
		Kind:   api.JobCensus,
		Census: &api.CensusParams{MaxN: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestJobEventsStream: the SSE stream's row events reassemble into exactly
// the NDJSON results download, and the stream ends with a done event whose
// id-tracking makes resume offsets available.
func TestJobEventsStream(t *testing.T) {
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
	ndjson, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}

	s, err := c.JobEvents(ctx, id, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var rows strings.Builder
	var sawDone, sawProgress bool
	for {
		ev, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if sawDone {
			t.Fatalf("event %q after done", ev.Type)
		}
		switch ev.Type {
		case "row":
			rows.Write(ev.Data)
			rows.WriteByte('\n')
			if ev.ID != int64(rows.Len()) {
				t.Fatalf("row id %d != %d bytes reassembled", ev.ID, rows.Len())
			}
		case "progress":
			sawProgress = true
		case "done":
			sawDone = true
			var st api.JobStatus
			if err := json.Unmarshal(ev.Data, &st); err != nil || st.State != api.JobDone {
				t.Fatalf("done event %s: %v", ev.Data, err)
			}
		}
	}
	if !sawDone || !sawProgress {
		t.Fatalf("stream done=%v progress=%v, want both", sawDone, sawProgress)
	}
	if rows.String() != string(ndjson) {
		t.Fatalf("rows differ from download (%d vs %d bytes)", rows.Len(), len(ndjson))
	}
	if s.LastRowID() != int64(len(ndjson)) {
		t.Fatalf("LastRowID = %d, want %d", s.LastRowID(), len(ndjson))
	}

	// Resume from midway: only the suffix arrives.
	mid := int64(0)
	for i, line := range strings.SplitAfter(string(ndjson), "\n") {
		if i == 0 {
			mid = int64(len(line))
		}
	}
	s2, err := c.JobEvents(ctx, id, mid, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var tail strings.Builder
	for {
		ev, err := s2.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type == "row" {
			tail.Write(ev.Data)
			tail.WriteByte('\n')
		}
	}
	if tail.String() != string(ndjson[mid:]) {
		t.Fatalf("resumed rows differ from download suffix (%d vs %d bytes)", tail.Len(), len(ndjson)-int(mid))
	}
}

// TestJobTrace fetches the stitched span tree of a traced job run.
func TestJobTrace(t *testing.T) {
	c, _ := newTestClient(t)
	ctx := context.Background()
	id := submitCensus(t, c)
	if st, err := c.WatchJob(ctx, id, time.Millisecond, nil); err != nil || st.State != api.JobDone {
		t.Fatalf("watch: %+v, %v", st, err)
	}
	raw, err := c.JobTrace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var root obs.SpanJSON
	if err := json.Unmarshal(raw, &root); err != nil {
		t.Fatal(err)
	}
	if root.Name != "job" || root.TraceID == "" {
		t.Fatalf("trace root = %+v, want a job span with a trace id", root)
	}
}
