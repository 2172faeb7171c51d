package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/pkg/api"
)

// The /v1/jobs handlers.  Submit/list/status/cancel are ordinary
// instrumented endpoints; the results stream is registered outside the
// semaphore and the request timeout because it long-polls until the job
// reaches a terminal state (see Handler).  Every one of them is registered
// behind withJobs, so a handler runs only with a manager attached.

// withJobs guards a jobs route: without an attached manager it answers 503
// rather than 404, so a client can tell "no batch subsystem configured"
// from "no such job".
func (s *Server) withJobs(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.jobs == nil {
			respondErr(w, r, errUnavailable("batch jobs are not enabled on this server (start embedserver with -data-dir)"))
			return
		}
		h(w, r)
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobSubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		respondErr(w, r, err)
		return
	}
	st, err := s.jobs.Submit(req)
	if err != nil {
		respondErr(w, r, jobsError(err))
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.JobListResponse{
		Version: api.Version,
		Jobs:    s.jobs.List(),
	})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Status(r.PathValue("id"))
	if err != nil {
		respondErr(w, r, jobsError(err))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		respondErr(w, r, jobsError(err))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobArtifact downloads a finished plancensus job's artifact file.
// Before the job is done the endpoint answers 409 (the file on disk would
// be torn or still growing); ServeFile gives clients range requests for
// free, so an interrupted multi-hundred-MB download can resume.
func (s *Server) handleJobArtifact(w http.ResponseWriter, r *http.Request) {
	path, err := s.jobs.ArtifactPath(r.PathValue("id"))
	if err != nil {
		respondErr(w, r, jobsError(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}

// handleJobTrace downloads a job's span tree — for a distributed job, the
// single trace stitched from coordinator dispatch/fold spans and every
// worker's chunk subtrees.  409 until a run of the job has finished: while
// it is queued or running, or when it was cancelled before it ran
// (embedctl trace -job renders it as a Chrome trace).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	path, err := s.jobs.TracePath(r.PathValue("id"))
	if err != nil {
		respondErr(w, r, jobsError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	http.ServeFile(w, r, path)
}

// resultsPollInterval paces followResults.
const resultsPollInterval = 150 * time.Millisecond

// openStream is the prelude of both result streams (/results and /events).
// raw is the client's resume offset, named what in the 400 it draws when
// malformed; an offset past the committed length is a 400 too.  It opens the
// results file, which a queued job does not have yet (f is then nil).  When
// ok is false the request has been answered.
func (s *Server) openStream(w http.ResponseWriter, r *http.Request, raw, what string) (f *os.File, offset int64, ok bool) {
	info, err := s.jobs.Results(r.PathValue("id"))
	if err != nil {
		respondErr(w, r, jobsError(err))
		return nil, 0, false
	}
	if raw != "" {
		offset, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || offset < 0 {
			respondErr(w, r, errBadRequest("bad %s %q", what, raw))
			return nil, 0, false
		}
	}
	if offset > info.Committed {
		respondErr(w, r, errBadRequest("offset %d is past the committed stream length %d", offset, info.Committed))
		return nil, 0, false
	}
	f, err = os.Open(info.Path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		respondErr(w, r, err)
		return nil, 0, false
	}
	return f, offset, true
}

// followResults follows job id's result stream from offset on behalf of one
// request, taking ownership of f (nil until the file exists).  Every
// resultsPollInterval it hands tick the newly committed span [cur,
// Committed), possibly empty; the next span starts where this one ends.  A
// span is whole NDJSON lines, because the runner commits whole chunks (only
// a mid-line offset makes the first span start mid-line).  It returns
// nil once the job is terminal and every committed byte has been handed
// over, or early with the request's cancellation, tick's error, or the
// manager's error for an evicted job.
//
// The job runner never waits on a follower: a follower only reads bytes the
// runner has already committed, and a slow client blocks only its own
// handler's writes.
func (s *Server) followResults(ctx context.Context, id string, f *os.File, offset int64, tick func(span io.Reader) error) error {
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	cur := offset
	for {
		info, err := s.jobs.Results(id)
		if err != nil {
			return err
		}
		if f == nil {
			f, _ = os.Open(info.Path)
		}
		end := cur
		if f != nil {
			end = info.Committed
		}
		// With f still nil the span is empty, so it never reads from f.
		if err := tick(io.NewSectionReader(f, cur, end-cur)); err != nil {
			return err
		}
		cur = end
		if info.State.Terminal() && cur >= info.Committed {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(resultsPollInterval):
		}
	}
}

// handleJobResults streams a job's committed NDJSON results from the given
// Last-Event-Offset (default zero) and keeps following the file until the
// job reaches a terminal state and every committed byte has been sent.
// Because only committed bytes (those covered by a checkpoint or the final
// flush) are served, a client that records the byte offset of what it has
// consumed can reconnect with that offset after either side restarts and
// see exactly the missing suffix — the stream is deterministic, so offsets
// remain valid across server crashes.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	f, offset, ok := s.openStream(w, r, r.Header.Get(api.ResultsOffsetHeader), api.ResultsOffsetHeader+" header")
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(api.ResultsOffsetHeader, strconv.FormatInt(offset, 10))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// A client that goes away or a job evicted mid-stream both just end the
	// body; the client resumes from the bytes it holds.
	_ = s.followResults(r.Context(), r.PathValue("id"), f, offset, func(span io.Reader) error {
		if _, err := io.Copy(w, span); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}
