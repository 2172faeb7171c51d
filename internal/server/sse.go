package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Server-sent-events live job streaming: GET /v1/jobs/{id}/events is the SSE
// twin of the NDJSON results endpoint, built on the same committed-offset
// protocol and the same per-request follower (followResults).
//
// Event framing: each committed NDJSON result line becomes one "row" event
// whose data is the line without its trailing newline and whose SSE id is
// the byte offset just PAST that line in the result stream.  So the
// concatenation of row payloads, each followed by "\n", is byte-identical to
// the results download from the same offset — and a client reconnecting with
// Last-Event-ID resumes exactly, because committed offsets are replay-stable
// across coordinator restarts.  "progress", "fabric" and "done" events
// interleave with the rows but carry no id, so they never perturb resume
// offsets.

// writeSSE renders one event in text/event-stream framing; id < 0 omits the
// id line.
func (s *Server) writeSSE(w io.Writer, typ string, id int64, data []byte) error {
	var err error
	if id >= 0 {
		_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", typ, id, data)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, data)
	}
	if err == nil {
		s.m.sseEvents.Add(1)
	}
	return err
}

// handleJobEvents streams a job live over SSE.  Resume: the Last-Event-ID
// header (or ?offset=) is a result-stream byte offset; rows start exactly
// there, replayed from the committed file and then followed live.
// ?rows=off suppresses row events for a progress-only subscriber
// (client.JobEvents with rows false).  Registered outside instrument for the
// same reason as the results stream: it follows the job for its whole life.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	raw, what := r.Header.Get("Last-Event-ID"), "Last-Event-ID"
	if raw == "" {
		raw, what = r.URL.Query().Get("offset"), "offset"
	}
	f, offset, ok := s.openStream(w, r, raw, what)
	if !ok {
		return
	}
	rows := r.URL.Query().Get("rows") != "off"

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	s.m.sseSubscribers.Add(1)
	defer s.m.sseSubscribers.Add(-1)

	id := r.PathValue("id")
	cur := offset
	br := bufio.NewReader(nil)
	var lastProgress, lastFabric []byte
	err := s.followResults(r.Context(), id, f, offset, func(span io.Reader) error {
		if rows {
			br.Reset(span)
			for {
				// Spans end on a newline, so EOF leaves no partial line.
				line, err := br.ReadBytes('\n')
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				cur += int64(len(line))
				if err := s.writeSSE(w, "row", cur, line[:len(line)-1]); err != nil {
					return err
				}
			}
		}
		if st, err := s.jobs.Status(id); err == nil {
			if b, err := json.Marshal(st); err == nil && !bytes.Equal(b, lastProgress) {
				lastProgress = b
				if err := s.writeSSE(w, "progress", -1, b); err != nil {
					return err
				}
			}
			if st.Fabric != nil {
				if b, err := json.Marshal(st.Fabric); err == nil && !bytes.Equal(b, lastFabric) {
					lastFabric = b
					if err := s.writeSSE(w, "fabric", -1, b); err != nil {
						return err
					}
				}
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err == nil {
		// The job is terminal, so the last progress is its final status.
		_ = s.writeSSE(w, "done", -1, lastProgress)
	}
}
