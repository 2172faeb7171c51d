package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/jobs"
	"repro/pkg/api"
)

// Fabric endpoints: the worker-mode chunk executor and the peer-admin
// surface.
//
//	POST /v1/internal/chunks  execute one chunk of a job spec (worker mode)
//	GET  /v1/peers            list fabric peers (public, read-only)
//	POST /v1/peers            register a peer (a worker's -join handshake)
//
// The chunk executor and the join endpoint are guarded by the shared fabric
// secret (X-Fabric-Secret): the fabric is an internal trust domain, not part
// of the public API.  Without a configured secret the guarded endpoints
// answer 503 — a server not started with -fabric-secret is not a fabric
// member and must not execute arbitrary compute on behalf of strangers.
//
// Chunk execution is long-running compute (a census chunk can take seconds),
// so like the results stream and the artifact download it is registered
// outside instrument: it must not occupy an inflight slot meant for
// interactive requests nor run under the 30s interactive timeout.

// fabricAuthed enforces the shared-secret guard on an internal endpoint.
// It writes the error response itself and reports whether the caller may
// proceed.
func (s *Server) fabricAuthed(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.FabricSecret == "" {
		respondErr(w, r, errUnavailable("fabric is not enabled (start the server with -fabric-secret)"))
		return false
	}
	got := r.Header.Get(api.FabricSecretHeader)
	if subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.FabricSecret)) != 1 {
		respondErr(w, r, errUnauthorized("missing or wrong %s header", api.FabricSecretHeader))
		return false
	}
	return true
}

// ExecuteChunk runs one chunk of a job spec with the server's Workers and
// planner.  The worker endpoint and a coordinator's loopback peer both call
// it, so every node runs a job's chunks at its one -workers width.  A
// request of another chunk schema is refused by number, a 400 on the route.
func (s *Server) ExecuteChunk(ctx context.Context, req api.ChunkRequest) (*api.ChunkResult, error) {
	if req.Version != api.ChunkSchemaVersion {
		return nil, fmt.Errorf("%w: chunk request schema v%d, this server speaks chunk schema v%d",
			jobs.ErrBadRequest, req.Version, api.ChunkSchemaVersion)
	}
	return jobs.ExecuteChunk(ctx, req, s.cfg.Workers, s.planner)
}

// handleChunkExecute is worker mode: build a fresh runner for the enclosed
// job spec, execute exactly one chunk, return its portable result.  The
// request is validated exactly like a job submission; determinism of the
// runners means re-execution of the same chunk (a coordinator requeue)
// returns the same bytes.
func (s *Server) handleChunkExecute(w http.ResponseWriter, r *http.Request) {
	if !s.fabricAuthed(w, r) {
		return
	}
	var req api.ChunkRequest
	if err := decodeBody(w, r, &req); err != nil {
		respondErr(w, r, err)
		return
	}
	res, err := s.ExecuteChunk(r.Context(), req)
	if err != nil {
		respondErr(w, r, jobsError(err))
		return
	}
	// Compact, unlike /v1: indentation is ~40% of a plansweep chunk.
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

// handlePeersList reports the fabric pool's peers.  Read-only and
// unauthenticated — the same operational visibility as /metrics.
func (s *Server) handlePeersList(w http.ResponseWriter, r *http.Request) {
	if s.pool == nil {
		respondErr(w, r, errUnavailable("no fabric pool attached (start the server with -fabric-secret)"))
		return
	}
	writeJSON(w, http.StatusOK, api.PeersResponse{Version: api.Version, Peers: s.pool.Peers()})
}

// handlePeersJoin registers a worker with the coordinator's pool (the
// worker's -join self-registration).  Secret-guarded: joining the fabric
// routes compute to the joined address.  Re-joining an existing address
// re-dials it — this is how a restarted worker comes back.
func (s *Server) handlePeersJoin(w http.ResponseWriter, r *http.Request) {
	if !s.fabricAuthed(w, r) {
		return
	}
	if s.pool == nil {
		respondErr(w, r, errUnavailable("no fabric pool attached"))
		return
	}
	var req api.PeerJoinRequest
	if err := decodeBody(w, r, &req); err != nil {
		respondErr(w, r, err)
		return
	}
	if err := s.pool.Add(req.Addr); err != nil {
		respondErr(w, r, errBadRequest("%v", err))
		return
	}
	writeJSON(w, http.StatusOK, api.PeersResponse{Version: api.Version, Peers: s.pool.Peers()})
}
