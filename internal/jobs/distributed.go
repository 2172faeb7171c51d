package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/stats"
	"repro/pkg/api"
)

// distRunner extends kindRunner with the two halves of distributed
// execution.  Every job kind implements it: the worker side packages one
// chunk portably, the coordinator side folds shipped chunks back in index
// order.  A distributed run is the same runner driven by a fabric.Dispatch
// instead of the local loop, committing through the same resultLog, which
// is why the two produce byte-identical streams.
type distRunner interface {
	kindRunner
	// remote runs one chunk on a FRESH runner (worker side) and returns it
	// in portable form: the chunk's NDJSON rows plus the aggregate delta of
	// just this chunk (a fresh runner's post-chunk snapshot IS the delta),
	// or position-independent plan entries for plancensus.
	remote(ctx context.Context, chunk int) (*api.ChunkResult, error)
	// fold merges one shipped chunk into the runner (coordinator side),
	// appending the chunk's stream bytes to buf and returning its shape
	// count — the distributed counterpart of runChunk, called strictly in
	// chunk-index order.  Implementations validate before mutating, so a
	// failed fold leaves the aggregate untouched (same contract as
	// runChunk).
	fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error)
}

// remoteRows is the shared worker-side path for the row-stream kinds:
// run the chunk into a buffer, snapshot the (fresh) aggregate as the delta.
func remoteRows(ctx context.Context, r kindRunner, chunk int) (*api.ChunkResult, error) {
	var buf bytes.Buffer
	n, err := r.runChunk(ctx, chunk, &buf)
	if err != nil {
		return nil, err
	}
	agg, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	return &api.ChunkResult{Shapes: n, Rows: bytes.Clone(buf.Bytes()), Agg: agg}, nil
}

func (r *censusRunner) remote(ctx context.Context, chunk int) (*api.ChunkResult, error) {
	if r.agg != nil {
		return nil, errors.New("jobs: census remote chunk requires a fresh runner")
	}
	return remoteRows(ctx, r, chunk)
}

func (r *censusRunner) fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error) {
	var part []stats.CensusTally
	if err := json.Unmarshal(res.Agg, &part); err != nil {
		return 0, fmt.Errorf("jobs: census chunk %d aggregate: %w", res.Chunk, err)
	}
	if len(part) != r.maxN+1 {
		return 0, fmt.Errorf("jobs: census chunk %d aggregate has %d buckets, want %d",
			res.Chunk, len(part), r.maxN+1)
	}
	buf.Write(res.Rows)
	// Element-wise integer addition of the chunk's delta — associative, so
	// folding deltas in index order equals the sequential aggregate exactly.
	r.agg = stats.MergeCensusTallies(r.agg, part)
	return res.Shapes, nil
}

func (r *epsilonRunner) remote(ctx context.Context, chunk int) (*api.ChunkResult, error) {
	return remoteRows(ctx, r, chunk)
}

// fold for epsilon is pure append: rows are independent, there is no
// aggregate.
func (r *epsilonRunner) fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error) {
	buf.Write(res.Rows)
	return res.Shapes, nil
}

func (r *plansweepRunner) remote(ctx context.Context, chunk int) (*api.ChunkResult, error) {
	if len(r.hist) != 0 || r.minimal != 0 || r.optimal != 0 {
		return nil, errors.New("jobs: plansweep remote chunk requires a fresh runner")
	}
	return remoteRows(ctx, r, chunk)
}

func (r *plansweepRunner) fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error) {
	var a plansweepAgg
	if err := json.Unmarshal(res.Agg, &a); err != nil {
		return 0, fmt.Errorf("jobs: plansweep chunk %d aggregate: %w", res.Chunk, err)
	}
	buf.Write(res.Rows)
	for k, v := range a.Hist {
		r.hist[k] += v
	}
	r.minimal += a.Minimal
	r.optimal += a.Optimal
	return res.Shapes, nil
}

// remote for plancensus cannot ship rows or artifact bytes — both embed
// the cumulative string cursor, which depends on every earlier chunk.  It
// ships one position-independent PlanEntry per shape in rank order instead;
// the coordinator's fold replays them through its own builder, which
// assigns the cursor and emits the chunk record, reproducing the exact
// bytes of a local run.
func (r *plancensusRunner) remote(ctx context.Context, chunk int) (*api.ChunkResult, error) {
	c := chunk + 1
	lo, hi := artifact.ChunkRange(r.params.Dims, c)
	plans := make([]api.PlanEntry, 0, hi-lo)
	var addErr error
	artifact.EachShapeWithMax(r.params.Dims, c, func(s mesh.Shape) {
		if addErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			addErr = err
			return
		}
		p := r.planner.PlanGuest(r.family, s)
		rec := artifact.RecFromPlan(p)
		plans = append(plans, api.PlanEntry{
			Kind: rec.Kind.String(), Method: rec.Method, Dilation: rec.Dilation,
			CubeDim: rec.CubeDim, Minimal: rec.Minimal, Plan: rec.Plan,
		})
	})
	if addErr != nil {
		return nil, addErr
	}
	if uint64(len(plans)) != hi-lo {
		return nil, fmt.Errorf("jobs: plancensus chunk %d enumerated %d shapes, want %d",
			c, len(plans), hi-lo)
	}
	return &api.ChunkResult{Shapes: hi - lo, Plans: plans}, nil
}

func (r *plancensusRunner) fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error) {
	if err := r.ensureBuilder(); err != nil {
		return 0, err
	}
	c := res.Chunk + 1
	lo, hi := artifact.ChunkRange(r.params.Dims, c)
	if uint64(len(res.Plans)) != hi-lo {
		return 0, fmt.Errorf("jobs: plancensus chunk %d shipped %d plans, want %d",
			c, len(res.Plans), hi-lo)
	}
	hist := map[string]uint64{}
	var minimal uint64
	i := 0
	var foldErr error
	artifact.EachShapeWithMax(r.params.Dims, c, func(s mesh.Shape) {
		if foldErr != nil {
			return
		}
		if i >= len(res.Plans) {
			foldErr = fmt.Errorf("jobs: plancensus chunk %d ran out of shipped plans at rank %d", c, i)
			return
		}
		pe := res.Plans[i]
		i++
		kind, err := core.ParseKind(pe.Kind)
		if err != nil {
			foldErr = fmt.Errorf("jobs: plancensus chunk %d: %w", c, err)
			return
		}
		if err := r.b.AddRec(s, artifact.Rec{
			Kind: kind, Method: pe.Method, Dilation: pe.Dilation,
			CubeDim: pe.CubeDim, Minimal: pe.Minimal, Plan: pe.Plan,
		}); err != nil {
			foldErr = err
			return
		}
		if pe.Dilation < 0 {
			hist["unknown"]++
		} else {
			hist[strconv.Itoa(pe.Dilation)]++
		}
		if pe.Minimal {
			minimal++
		}
	})
	// A torn replay (foldErr below) leaves the builder position drifted
	// from the aggregate; ensureBuilder reopens it at the checkpointed
	// position on the next attempt, exactly like a failed local chunk.
	if foldErr != nil {
		return 0, foldErr
	}
	if err := r.b.Flush(); err != nil {
		return 0, err
	}
	next, cursor := r.b.Pos()
	if next != hi {
		return 0, fmt.Errorf("jobs: plancensus chunk %d wrote to rank %d, want %d", c, next, hi)
	}
	if err := writeRecord(buf, api.PlanCensusChunkRecord{
		Type: api.RecordPlanCensusChunk, MaxAxisValue: c,
		Records: hi - lo, RankLo: lo, RankHi: hi, StringBytes: cursor,
	}); err != nil {
		return 0, err
	}
	r.nextRank, r.cursor = next, cursor
	for k, v := range hist {
		r.hist[k] += v
	}
	r.minimal += minimal
	return hi - lo, nil
}

// runBodyDistributed is the fabric chunk source: chunks execute on the
// pool's peers and arrive through a Dispatch that folds them strictly in
// index order on this goroutine, each committed through the same log as
// the local loop's.  Its checkpoints also record which peer each in-flight
// chunk was on.
func (m *Manager) runBodyDistributed(ctx context.Context, l *resultLog, r distRunner) error {
	d := fabric.NewDispatch(m.cfg.Fabric, l.j.req, l.total)
	l.j.mu.Lock()
	l.j.dispatch = d
	l.j.mu.Unlock()
	defer func() {
		l.j.mu.Lock()
		l.j.dispatch = nil
		l.j.mu.Unlock()
	}()
	var buf bytes.Buffer
	err := d.Run(ctx, l.next, func(res *api.ChunkResult) error {
		buf.Reset()
		n, err := r.fold(res, &buf)
		if err != nil {
			return err
		}
		return l.commit(buf.Bytes(), n, d.Owners)
	})
	// errAbandoned is the test hook's simulated kill: no further disk writes.
	if err != nil && !errors.Is(err, errAbandoned) && ctx.Err() != nil {
		_ = l.checkpoint(nil) // best effort, as in runBody
		return ctx.Err()
	}
	return err
}
