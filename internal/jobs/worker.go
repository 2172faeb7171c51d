package jobs

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/pkg/api"
)

// ExecuteChunk executes exactly one chunk of a job spec and returns its
// portable result — the compute half of the fabric's worker mode (POST
// /v1/internal/chunks).  It needs no Manager: no data dir, no queue, no
// checkpoints — a fresh runner is built, validated exactly like a
// submission, and driven for the one chunk.  Determinism of the runners
// makes re-execution free: the coordinator may send the same chunk to
// several peers (requeue after a failure) and every copy returns the same
// bytes.
//
// defaultWorkers is the per-chunk parallelism when the job spec does not
// set workers (< 1 means GOMAXPROCS); planner should be the server's own
// so worker-side planning warms the shared plan cache (nil builds a
// default one).  Validation failures wrap ErrBadRequest; a panicking chunk
// is recovered into an error, failing only this request.
func ExecuteChunk(ctx context.Context, req api.ChunkRequest, defaultWorkers int, planner *core.Planner) (res *api.ChunkResult, err error) {
	if req.Version != api.Version {
		return nil, fmt.Errorf("%w: chunk request schema v%d, this server speaks v%d",
			ErrBadRequest, req.Version, api.Version)
	}
	if planner == nil {
		planner = core.NewPlanner(core.DefaultOptions)
	}
	r, err := buildRunner(&req.Job, workersFor(&req.Job, defaultWorkers), planner, "")
	if err != nil {
		return nil, err
	}
	dr, ok := r.(distRunner)
	if !ok {
		return nil, fmt.Errorf("%w: kind %q cannot run distributed", ErrBadRequest, req.Job.Kind)
	}
	if req.Chunk < 0 || req.Chunk >= r.chunks() {
		return nil, fmt.Errorf("%w: chunk %d out of range [0,%d)", ErrBadRequest, req.Chunk, r.chunks())
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("jobs: chunk %d panicked: %v", req.Chunk, p)
		}
	}()
	// When the coordinator propagated a trace context, run the chunk under a
	// local root span and ship its snapshot back, stamped with the caller's
	// trace ID and parent span ID so the coordinator can validate the stitch.
	var span *obs.Span
	if req.Trace != nil && req.Trace.TraceID != "" {
		ctx, span = obs.StartRoot(ctx, fmt.Sprintf("exec chunk %d", req.Chunk))
		span.SetAttr("chunk", req.Chunk)
		span.SetAttr("kind", string(req.Job.Kind))
	}
	out, err := dr.remote(ctx, req.Chunk)
	span.End()
	if err != nil {
		return nil, err
	}
	out.Version, out.Chunk = api.Version, req.Chunk
	if span != nil {
		snap := span.Snapshot()
		snap.TraceID = req.Trace.TraceID
		snap.ParentSpanID = req.Trace.ParentSpanID
		if raw, merr := json.Marshal(snap); merr == nil {
			out.Span = raw
		}
	}
	return out, nil
}
