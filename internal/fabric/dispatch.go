package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/pkg/api"
)

// maxAttempts bounds executions of one chunk across peers before the job
// fails: a chunk that keeps erroring everywhere is deterministic poison
// (e.g. a worker-side panic), not a transport flake.
const maxAttempts = 5

// errChunkSchema marks a result in another chunk schema; it fails the job.
var errChunkSchema = errors.New("fabric: result in chunk schema")

// Dispatch shards one job's chunk range across a Pool's peers and folds
// the results strictly in chunk-index order.
//
// Concurrency model: all scheduling state is mutated only by the Run
// goroutine — executions run in worker goroutines that report back over a
// channel, and the fold callback runs on the Run goroutine itself (it
// writes the job's result files).  The mutex exists solely so Progress can
// snapshot the state from other goroutines (job status).
//
// Determinism: a chunk may execute more than once (requeue after a peer
// failure, client-level retry), but every execution of a chunk returns the
// same bytes, and each index is folded exactly once, in order — late
// duplicate results are dropped.  So the folded stream is the same bytes a
// single-node run produces, regardless of peer count, completion order, or
// worker loss.
type Dispatch struct {
	pool   *Pool
	job    api.JobSubmitRequest
	total  int
	window int
	// idleWait paces the scheduler while no peer is live (waiting for a
	// health-probe revival); swappable for tests.
	idleWait time.Duration
	// span is the job-level parent captured from Run's context: every
	// execution attempt opens a "dispatch chunk N" child under it (failed
	// attempts carry an error attr, so requeues show up as extra spans with
	// gaps), and each worker's returned snapshot is stitched under its
	// dispatch span.  Set once before any exec goroutine starts; nil when
	// Run's context carries no span.
	span *obs.Span

	mu       sync.Mutex
	lanes    map[string]int // peer addr → Chrome-export lane (2+)
	next     int            // next fresh chunk index to dispatch
	nextFold int            // next chunk index to fold
	pending  []int
	buffered map[int]*api.ChunkResult
	running  map[int]*peer
	attempts map[int]int
	done     map[string]uint64
	requeued uint64
	fatal    error
}

// execDone is one execution attempt's outcome.
type execDone struct {
	chunk int
	pr    *peer
	res   *api.ChunkResult
	err   error
}

// NewDispatch prepares a dispatcher for one job run over [0, total)
// chunks.  The job spec is sent verbatim to workers (minus nothing — the
// worker re-validates it and rebuilds the same kind runner).
func NewDispatch(pool *Pool, job api.JobSubmitRequest, total int) *Dispatch {
	w := 2 * pool.slots()
	if w < 16 {
		w = 16
	}
	return &Dispatch{
		pool:     pool,
		job:      job,
		total:    total,
		window:   w,
		idleWait: 50 * time.Millisecond,
		buffered: make(map[int]*api.ChunkResult),
		running:  make(map[int]*peer),
		attempts: make(map[int]int),
		done:     make(map[string]uint64),
	}
}

// Run dispatches chunks [start, total) and calls fold once per chunk,
// strictly in index order, on the calling goroutine.  It returns nil when
// every chunk through total-1 has been folded, ctx.Err() on cancellation
// (the checkpointed fold position makes the interruption resumable), a
// fold error verbatim, or a fatal dispatch error (a chunk rejected as
// invalid, or failing maxAttempts times).
func (d *Dispatch) Run(ctx context.Context, start int, fold func(*api.ChunkResult) error) error {
	d.span = obs.FromContext(ctx)
	d.mu.Lock()
	d.next, d.nextFold = start, start
	d.mu.Unlock()
	if start >= d.total {
		return nil
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	ectx, cancel := context.WithCancel(ctx)
	defer cancel() // runs before wg.Wait: unblocks undelivered senders
	results := make(chan execDone)
	inflight := 0
	for {
		// Fold everything deliverable at the in-order frontier.
		for {
			d.mu.Lock()
			res, ok := d.buffered[d.nextFold]
			if ok {
				delete(d.buffered, d.nextFold)
			}
			d.mu.Unlock()
			if !ok {
				break
			}
			fs := d.span.StartChild(fmt.Sprintf("fold chunk %d", res.Chunk))
			err := fold(res)
			fs.End()
			if err != nil {
				return err
			}
			d.pool.folded.Add(1)
			d.mu.Lock()
			d.nextFold++
			doneAll := d.nextFold >= d.total
			d.mu.Unlock()
			if doneAll {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		d.mu.Lock()
		fatal := d.fatal
		d.mu.Unlock()
		if fatal != nil {
			return fatal
		}
		// Launch every dispatchable chunk: requeued indexes first (they
		// are the fold frontier), then fresh ones while the reorder window
		// has room and a peer slot is free.
		launched := 0
		for {
			chunk, pr, ok := d.pick()
			if !ok {
				break
			}
			launched++
			inflight++
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := api.ChunkRequest{Version: api.ChunkSchemaVersion, Job: d.job, Chunk: chunk}
				dspan := d.span.StartChild(fmt.Sprintf("dispatch chunk %d", chunk))
				if dspan != nil {
					dspan.SetAttr("peer", pr.addr)
					dspan.SetLane(d.lane(pr.addr))
					d.mu.Lock()
					att := d.attempts[chunk] + 1
					d.mu.Unlock()
					dspan.SetAttr("attempt", att)
					sc := dspan.Context()
					req.Trace = &api.TraceContext{TraceID: sc.TraceID, ParentSpanID: sc.SpanID}
				}
				res, err := pr.t.Execute(ectx, req)
				if err != nil {
					dspan.SetAttr("error", err.Error())
				} else if res != nil && len(res.Span) > 0 && req.Trace != nil {
					var snap obs.SpanJSON
					if json.Unmarshal(res.Span, &snap) == nil && snap.TraceID == req.Trace.TraceID {
						dspan.AttachRemote(&snap)
					}
				}
				dspan.End()
				select {
				case results <- execDone{chunk: chunk, pr: pr, res: res, err: err}:
				case <-ectx.Done():
					d.pool.release(pr)
				}
			}()
		}
		if inflight == 0 {
			if launched != 0 {
				continue
			}
			// Nothing running and nothing dispatchable — every peer is
			// down and there is no local fallback.  Wait for the health
			// loop to revive someone.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d.idleWait):
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case r := <-results:
			inflight--
			d.finish(ctx, r)
		}
	}
}

// pick claims the next chunk to execute and a peer slot for it, or reports
// none available.  Requeued chunks go first; fresh chunks only while they
// stay within the reorder window of the fold frontier (bounding buffered
// out-of-order results).
func (d *Dispatch) pick() (int, *peer, bool) {
	d.mu.Lock()
	chunk := -1
	fromPending := len(d.pending) > 0
	if fromPending {
		chunk = d.pending[0]
	} else if d.next < d.total && d.next-d.nextFold < d.window {
		chunk = d.next
	}
	d.mu.Unlock()
	if chunk < 0 {
		return 0, nil, false
	}
	pr := d.pool.acquire()
	if pr == nil {
		return 0, nil, false
	}
	d.mu.Lock()
	if fromPending {
		d.pending = d.pending[1:]
	} else {
		d.next++
	}
	d.running[chunk] = pr
	d.mu.Unlock()
	return chunk, pr, true
}

// finish folds one execution outcome into the scheduling state: buffer a
// valid result (dropping late duplicates), or demote the peer and requeue
// the chunk on failure.
func (d *Dispatch) finish(ctx context.Context, r execDone) {
	d.pool.release(r.pr)
	d.mu.Lock()
	delete(d.running, r.chunk)
	d.mu.Unlock()
	if r.err == nil {
		switch {
		case r.res == nil:
			r.err = fmt.Errorf("fabric: peer %s returned no result for chunk %d", r.pr.addr, r.chunk)
		case r.res.Version != api.ChunkSchemaVersion:
			r.err = fmt.Errorf("%w v%d, want v%d", errChunkSchema, r.res.Version, api.ChunkSchemaVersion)
		case r.res.Chunk != r.chunk:
			r.err = fmt.Errorf("fabric: peer %s answered chunk %d for chunk %d", r.pr.addr, r.res.Chunk, r.chunk)
		}
	}
	if r.err != nil {
		if ctx.Err() != nil {
			return // shutting down; the error is ours, not the peer's
		}
		d.failChunk(r)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if r.chunk < d.nextFold || d.buffered[r.chunk] != nil {
		return // late duplicate of an already-requeued chunk; folded once only
	}
	d.buffered[r.chunk] = r.res
	d.done[r.pr.addr]++
}

// failChunk handles one failed execution: deterministic rejections, results
// in another chunk schema and local-executor failures are fatal
// (re-running cannot change them); transport-level failures demote the
// peer and requeue the chunk for a survivor, up to maxAttempts executions.
func (d *Dispatch) failChunk(r execDone) {
	d.pool.fail(r.pr, r.err)
	var apiErr *api.Error
	deterministic := errors.Is(r.err, errChunkSchema) || errors.As(r.err, &apiErr) &&
		(apiErr.Code == api.CodeBadRequest || apiErr.Code == api.CodeShapeTooLarge ||
			apiErr.Code == api.CodeUnauthorized || apiErr.Code == api.CodeNotFound)
	if deterministic || r.pr.local {
		d.setFatal(fmt.Errorf("fabric: chunk %d on %s: %w", r.chunk, r.pr.addr, r.err))
		return
	}
	d.mu.Lock()
	d.attempts[r.chunk]++
	att := d.attempts[r.chunk]
	d.mu.Unlock()
	if att >= maxAttempts {
		d.setFatal(fmt.Errorf("fabric: chunk %d failed on %d peers, last on %s: %w", r.chunk, att, r.pr.addr, r.err))
		return
	}
	d.pool.noteRequeue(r.pr)
	d.mu.Lock()
	d.requeued++
	d.pending = insertSorted(d.pending, r.chunk)
	d.mu.Unlock()
}

// lane returns the Chrome-export lane for a peer, assigning 2, 3, ... in
// first-seen order (lane 1 is the coordinator's own root row).
func (d *Dispatch) lane(addr string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lanes == nil {
		d.lanes = make(map[string]int)
	}
	l, ok := d.lanes[addr]
	if !ok {
		l = len(d.lanes) + 2
		d.lanes[addr] = l
	}
	return l
}

func (d *Dispatch) setFatal(err error) {
	d.mu.Lock()
	if d.fatal == nil {
		d.fatal = err
	}
	d.mu.Unlock()
}

// insertSorted inserts v into ascending s, skipping duplicates.
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Progress snapshots the per-peer chunk assignment for job status.
func (d *Dispatch) Progress() api.FabricProgress {
	peers := d.pool.Peers()
	d.mu.Lock()
	defer d.mu.Unlock()
	byPeer := make(map[string][]int)
	for chunk, pr := range d.running {
		byPeer[pr.addr] = append(byPeer[pr.addr], chunk)
	}
	out := api.FabricProgress{Requeued: d.requeued}
	for _, ps := range peers {
		inf := byPeer[ps.Addr]
		sort.Ints(inf)
		out.Peers = append(out.Peers, api.JobPeer{
			Addr:     ps.Addr,
			State:    ps.State,
			InFlight: inf,
			Done:     d.done[ps.Addr],
		})
	}
	return out
}
