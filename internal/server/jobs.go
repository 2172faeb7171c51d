package server

import (
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
// reaches a terminal state (see Handler).

// jobsManager guards every jobs endpoint: without an attached manager the
// routes answer 503 rather than 404, so a client can tell "no batch
// subsystem configured" from "no such job".
func (s *Server) jobsManager(w http.ResponseWriter, r *http.Request) bool {
	if s.jobs == nil {
		respondErr(w, r, errUnavailable("batch jobs are not enabled on this server (start embedserver with -data-dir)"))
		return false
	}
	return true
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsManager(w, r) {
		return
	}
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
	if !s.jobsManager(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, api.JobListResponse{
		Version: APIVersion,
		Jobs:    s.jobs.List(),
	})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if !s.jobsManager(w, r) {
		return
	}
	st, err := s.jobs.Status(r.PathValue("id"))
	if err != nil {
		respondErr(w, r, jobsError(err))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.jobsManager(w, r) {
		return
	}
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
	if !s.jobsManager(w, r) {
		return
	}
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
// worker's chunk subtrees.  409 until a run has written one (embedctl trace
// -job renders it as a Chrome trace).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if !s.jobsManager(w, r) {
		return
	}
	path, err := s.jobs.TracePath(r.PathValue("id"))
	if err != nil {
		respondErr(w, r, jobsError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	http.ServeFile(w, r, path)
}

// resultsPollInterval paces the long-poll loop in handleJobResults.  A
// variable, not a constant, so tests can tighten it.
var resultsPollInterval = 150 * time.Millisecond

// handleJobResults streams a job's committed NDJSON results from the given
// Last-Event-Offset (default zero) and keeps following the file until the
// job reaches a terminal state and every committed byte has been sent.
// Because only committed bytes (those covered by a checkpoint or the final
// flush) are served, a client that records the byte offset of what it has
// consumed can reconnect with that offset after either side restarts and
// see exactly the missing suffix — the stream is deterministic, so offsets
// remain valid across server crashes.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	if !s.jobsManager(w, r) {
		return
	}
	info, err := s.jobs.Results(r.PathValue("id"))
	if err != nil {
		respondErr(w, r, jobsError(err))
		return
	}
	offset := int64(0)
	if h := r.Header.Get(api.ResultsOffsetHeader); h != "" {
		offset, err = strconv.ParseInt(h, 10, 64)
		if err != nil || offset < 0 {
			respondErr(w, r, errBadRequest("bad %s header %q", api.ResultsOffsetHeader, h))
			return
		}
	}
	if offset > info.Committed {
		respondErr(w, r, errBadRequest("offset %d is past the committed stream length %d", offset, info.Committed))
		return
	}
	f, err := os.Open(info.Path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// Queued job that has not produced its results file yet: an
			// empty stream is correct, follow it below once it appears.
			f = nil
		} else {
			respondErr(w, r, err)
			return
		}
	}
	if f != nil {
		defer f.Close()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(api.ResultsOffsetHeader, strconv.FormatInt(offset, 10))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	cur := offset
	for {
		info, err = s.jobs.Results(r.PathValue("id"))
		if err != nil {
			return // job evicted mid-stream; the client sees a truncated body
		}
		if f == nil {
			f, err = os.Open(info.Path)
			if err != nil {
				f = nil
			} else {
				defer f.Close()
			}
		}
		if f != nil && info.Committed > cur {
			n, err := io.Copy(w, io.NewSectionReader(f, cur, info.Committed-cur))
			cur += n
			if err != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if info.State.Terminal() && cur >= info.Committed {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(resultsPollInterval):
		}
	}
}
