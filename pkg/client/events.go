package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Live job streaming over server-sent events (GET /v1/jobs/{id}/events).
//
// The SSE stream carries the same committed-offset protocol as the NDJSON
// results download: every "row" event is one result line and its id is the
// byte offset just past that line, so Event.ID of the last row consumed is
// exactly the offset to resume from — on this endpoint (as Last-Event-ID)
// or on JobResults.  "progress", "fabric" and "done" events interleave with
// the rows and carry no id.

// JobEvent is one server-sent event from the live job stream.
type JobEvent struct {
	// Type is "row", "progress", "fabric" or "done".
	Type string
	// ID is the result-stream byte offset after this row, or -1 for the
	// id-less event types.
	ID int64
	// Data is the event payload: a result NDJSON line (row), an
	// api.JobStatus (progress, done), or an api.FabricStatus (fabric).
	Data []byte
}

// EventStream is an open SSE connection.  Not safe for concurrent use.
type EventStream struct {
	body io.ReadCloser
	br   *bufio.Reader
	// lastRow tracks the byte offset of the last row event returned, for
	// resuming after a drop (starts at the connect offset).
	lastRow int64
}

// JobEvents opens the live event stream for a job from the given result
// byte offset (0 for the beginning).  With rows=false the server omits row
// events — the cheap mode for progress watching.  The stream ends (Next
// returns io.EOF) after the "done" event, or earlier if the connection drops
// (a server restart); resume by reconnecting from LastRowID.
func (c *Client) JobEvents(ctx context.Context, id string, offset int64, rows bool) (*EventStream, error) {
	path := "/v1/jobs/" + id + "/events"
	if !rows {
		path += "?rows=off"
	}
	hdr := http.Header{"Accept": {"text/event-stream"}}
	if offset > 0 {
		hdr.Set("Last-Event-ID", strconv.FormatInt(offset, 10))
	}
	resp, err := c.send(ctx, http.MethodGet, path, hdr, nil)
	if err != nil {
		return nil, err
	}
	return &EventStream{body: resp.Body, br: bufio.NewReader(resp.Body), lastRow: offset}, nil
}

// Next returns the next event.  io.EOF means the server closed the stream —
// after "done" that is the normal end; without one it was a drop, and the
// caller should reconnect from LastRowID.
func (s *EventStream) Next() (*JobEvent, error) {
	ev := &JobEvent{ID: -1}
	var data []byte
	seen := false
	for {
		line, err := s.br.ReadBytes('\n')
		if err != nil {
			if err == io.EOF && len(bytes.TrimSpace(line)) == 0 {
				return nil, io.EOF
			}
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if !seen {
				continue // stray blank (keep-alive), keep reading
			}
			ev.Data = data
			if ev.Type == "row" && ev.ID >= 0 {
				s.lastRow = ev.ID
			}
			return ev, nil
		case bytes.HasPrefix(line, []byte(":")):
			// comment / keep-alive
		case bytes.HasPrefix(line, []byte("event: ")):
			ev.Type, seen = string(line[len("event: "):]), true
		case bytes.HasPrefix(line, []byte("id: ")):
			id, perr := strconv.ParseInt(string(line[len("id: "):]), 10, 64)
			if perr != nil {
				return nil, fmt.Errorf("client: bad SSE id line %q", line)
			}
			ev.ID, seen = id, true
		case bytes.HasPrefix(line, []byte("data: ")):
			// Successive data lines join with \n per the SSE spec; the
			// server emits one per event, but parse the general form.
			if data != nil {
				data = append(data, '\n')
			}
			data = append(data, line[len("data: "):]...)
			seen = true
		}
	}
}

// LastRowID is the byte offset of the last row event consumed (or the
// connect offset if none) — the resume point after a dropped stream.
func (s *EventStream) LastRowID() int64 { return s.lastRow }

// Close releases the connection.
func (s *EventStream) Close() error { return s.body.Close() }

// JobTrace fetches a finished job's stitched span tree (the obs.SpanJSON
// root, covering coordinator and worker spans for a distributed run).  409
// not_ready until the run has written one.
func (c *Client) JobTrace(ctx context.Context, id string) (json.RawMessage, error) {
	var out json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
