// Package jobs is the asynchronous batch-sweep subsystem: a bounded job
// manager that runs the paper's whole-range sweeps (the Figure 2 coverage
// census, the ε-distribution table, full planner sweeps) as resumable
// background jobs over the shared sweep pool.
//
// Determinism is the load-bearing property.  A job's work is cut into
// chunks that execute sequentially in index order (parallelism lives inside
// a chunk, behind sweep.FoldCtx, whose reduction is index-ordered); every
// aggregate is integer-derived; records carry no timestamps.  The NDJSON
// result stream is therefore a pure function of the request — independent
// of worker count, scheduling, retries and resume points — which is what
// lets the manager checkpoint mid-job and, after a kill, truncate the
// stream to the last checkpoint and replay forward to a byte-identical
// final result.  It is also what makes streaming sound: bytes handed to a
// client are committed in the sense that any future replay reproduces them
// exactly, so a client can resume a broken stream by byte offset.
//
// Failure isolation: a panicking chunk is recovered, retried up to
// retryLimit times, and fails only its own job; the manager, its other
// jobs, and the serving path stay up.
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/pkg/api"
)

// Sentinel errors the API layer maps onto the error envelope.
var (
	// ErrQueueFull rejects a submission when the bounded queue is full.  The
	// job was not accepted, so resubmitting later is safe.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrBadRequest wraps every submission-validation failure.
	ErrBadRequest = errors.New("jobs: invalid request")
	// ErrClosed rejects submissions to a closing manager.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotReady reports an artifact download before the producing job
	// reached the done state.
	ErrNotReady = errors.New("jobs: job has not finished")
)

// errShutdown and errCancelled distinguish why a run's context died:
// shutdown checkpoints and leaves the job resumable, cancel is terminal.
var (
	errShutdown  = errors.New("jobs: manager shutting down")
	errCancelled = errors.New("jobs: cancelled by client")
	// errAbandoned is returned by the afterChunk test hook to make a run
	// vanish without any further disk write — the closest a test can get to
	// SIGKILL while staying in-process.
	errAbandoned = errors.New("jobs: run abandoned (test hook)")
)

const (
	// maxWorkers caps the per-chunk parallelism a request may ask for, on
	// a job's own node and on the fabric workers that run its chunks.
	maxWorkers = 32
	// retryLimit is how many times a panicked chunk is retried before its
	// job fails.
	retryLimit = 2
)

// Config parameterizes a Manager.
type Config struct {
	// DataDir is the root of the on-disk job state (required).
	DataDir string
	// QueueDepth bounds the jobs waiting to run; submissions beyond it get
	// ErrQueueFull.  Default 8.
	QueueDepth int
	// Runners is the number of jobs executing concurrently.  Default 1:
	// batch sweeps are throughput work, and one at a time keeps them from
	// starving the interactive serving path.
	Runners int
	// DefaultWorkers is the per-chunk parallelism when a request does not
	// set workers (< 1 means GOMAXPROCS).
	DefaultWorkers int
	// CheckpointEvery is the number of chunks between checkpoints.  Default
	// 8.  A kill loses at most that much progress — never correctness.
	CheckpointEvery int
	// Planner, when set, is shared with the plansweep jobs (the server
	// passes its own so job planning warms the same plan cache).
	Planner *core.Planner
	// Fabric, when set, enables distributed jobs: submissions with
	// "distributed": true shard their chunk range across the pool's peers
	// (falling back to runBody — byte-identically — if a resumed job finds
	// no pool configured).
	Fabric *fabric.Pool
	// Logger receives job lifecycle records; nil means slog.Default().
	Logger *slog.Logger

	// Test hooks (white-box tests only).  afterChunk runs after chunk's
	// records are written but before the next checkpoint decision; returning
	// errAbandoned makes the run stop dead with no further disk writes,
	// simulating a kill.  beforeRun blocks a job at the top of its run.
	// beforeAttempt runs inside the panic-recovery scope of every chunk
	// attempt, so tests can inject panics.
	afterChunk    func(jobID string, chunk int) error
	beforeRun     func(jobID string)
	beforeAttempt func(jobID string, chunk, attempt int)
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 8
	}
	if cfg.Runners < 1 {
		cfg.Runners = 1
	}
	if cfg.CheckpointEvery < 1 {
		cfg.CheckpointEvery = 8
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Planner == nil {
		cfg.Planner = core.NewPlanner(core.DefaultOptions)
	}
	return cfg
}

// job is the in-memory state of one job.  All mutable fields are guarded by
// mu; the result stream's committed length is mirrored here so status and
// streaming never touch the file under the runner.
type job struct {
	id   string
	kind api.JobKind
	req  api.JobSubmitRequest
	dir  string

	mu           sync.Mutex
	state        api.JobState
	errMsg       string
	createdMS    int64
	startedMS    int64
	finishedMS   int64
	chunksDone   int
	chunksTotal  int
	shapes       uint64
	retries      int
	resumed      int
	committed    int64
	shapesPerSec float64
	etaMS        int64
	cancelled    bool
	cancelRun    context.CancelCauseFunc
	// dispatch is the live fabric dispatcher while a distributed run is in
	// flight; status reads it for the per-peer Fabric block.
	dispatch *fabric.Dispatch
}

func (j *job) statusLocked() api.JobStatus {
	st := api.JobStatus{
		Version: api.Version, ID: j.id, Kind: j.kind, State: j.state, Error: j.errMsg,
		Progress: api.JobProgress{
			ChunksDone: j.chunksDone, ChunksTotal: j.chunksTotal,
			Shapes: j.shapes, Retries: j.retries, ResultBytes: j.committed,
		},
		CreatedUnixMS: j.createdMS, StartedUnixMS: j.startedMS,
		FinishedUnixMS: j.finishedMS, Resumed: j.resumed,
	}
	if j.state == api.JobRunning {
		st.Progress.ShapesPerSec = j.shapesPerSec
		st.Progress.ETAMS = j.etaMS
	}
	req := j.req
	st.Request = &req
	if j.dispatch != nil && j.state == api.JobRunning {
		fp := j.dispatch.Progress()
		st.Fabric = &fp
	}
	return st
}

func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// Manager owns the job queue, the runner goroutines and the on-disk state.
type Manager struct {
	cfg Config
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // creation order, for List
	queue  chan *job
	closed bool
	seq    int
	prefix string

	chunksDone  atomic.Uint64
	shapesDone  atomic.Uint64
	retriesTot  atomic.Uint64
	resultBytes atomic.Int64
}

// Open creates (or reopens) a manager over cfg.DataDir, restores every job
// found there — terminal jobs become listable history, queued and running
// jobs are re-queued to resume from their last checkpoint — and starts the
// runner goroutines.
func Open(cfg Config) (*Manager, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("jobs: Config.DataDir is required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:    cfg,
		log:    cfg.Logger,
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*job{},
		prefix: fmt.Sprintf("%08x", rand.Uint32()),
	}
	resumable, err := m.restore()
	if err != nil {
		cancel(nil)
		return nil, err
	}
	// The queue must admit every resumed job on top of QueueDepth fresh
	// submissions, so its capacity is sized after the restore scan.
	m.queue = make(chan *job, cfg.QueueDepth+len(resumable))
	for _, j := range resumable {
		m.queue <- j
	}
	for i := 0; i < cfg.Runners; i++ {
		m.wg.Add(1)
		go m.runnerLoop()
	}
	return m, nil
}

// restore scans the data dir and rebuilds the job table in creation order.
// Jobs persisted mid-flight (queued or running) are returned for
// re-queueing, marked resumed.  Unreadable or version-skewed directories
// are skipped with a warning — one corrupt job must not brick the manager.
func (m *Manager) restore() ([]*job, error) {
	entries, err := os.ReadDir(m.cfg.DataDir)
	if err != nil {
		return nil, err
	}
	var loaded []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(m.cfg.DataDir, e.Name())
		st, err := readStatusFile(dir)
		if err != nil {
			m.log.Warn("jobs: skipping unreadable job dir", "dir", dir, "err", err)
			continue
		}
		if st.Version != api.JobSchemaVersion || st.ID == "" || st.Request == nil {
			m.log.Warn("jobs: skipping job with unknown schema", "dir", dir, "version", st.Version)
			continue
		}
		j := &job{
			id: st.ID, kind: st.Kind, req: *st.Request, dir: dir,
			state: st.State, errMsg: st.Error,
			createdMS: st.CreatedUnixMS, startedMS: st.StartedUnixMS, finishedMS: st.FinishedUnixMS,
			chunksDone: st.Progress.ChunksDone, chunksTotal: st.Progress.ChunksTotal,
			shapes: st.Progress.Shapes, retries: st.Progress.Retries,
			resumed: st.Resumed, committed: st.Progress.ResultBytes,
		}
		loaded = append(loaded, j)
	}
	sort.Slice(loaded, func(a, b int) bool {
		if loaded[a].createdMS != loaded[b].createdMS {
			return loaded[a].createdMS < loaded[b].createdMS
		}
		return loaded[a].id < loaded[b].id
	})
	var resumable []*job
	for _, j := range loaded {
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		if j.state.Terminal() {
			continue
		}
		// The committed count is rebuilt from the checkpoint when the run
		// restarts; until then advertise the checkpointed prefix only.
		if ck, err := readCheckpoint(j.dir); err == nil && ck != nil && ck.JobID == j.id && ck.Version == api.JobSchemaVersion {
			j.committed = ck.Offset
			j.chunksDone = ck.NextChunk
			j.shapes = ck.Shapes
		} else {
			j.committed, j.chunksDone, j.shapes = 0, 0, 0
		}
		j.state = api.JobQueued
		j.resumed++
		m.persistStatus(j)
		resumable = append(resumable, j)
		m.log.Info("jobs: resuming job from checkpoint",
			"job", j.id, "kind", j.kind, "next_chunk", j.chunksDone, "offset", j.committed)
	}
	return resumable, nil
}

// Submit validates the request, persists a queued job and enqueues it.
// The reply is the job's initial status (its id above all).
func (m *Manager) Submit(req api.JobSubmitRequest) (api.JobStatus, error) {
	if _, err := buildRunner(&req, workersFor(&req, m.cfg.DefaultWorkers), m.cfg.Planner, ""); err != nil {
		return api.JobStatus{}, err
	}
	if req.Distributed && m.cfg.Fabric == nil {
		return api.JobStatus{}, fmt.Errorf(
			"%w: distributed jobs need a fabric pool (start the server with -fabric-secret)", ErrBadRequest)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return api.JobStatus{}, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("j-%s-%06d", m.prefix, m.seq)
	j := &job{
		id: id, kind: req.Kind, req: req,
		dir:   filepath.Join(m.cfg.DataDir, id),
		state: api.JobQueued, createdMS: nowUnixMS(),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()

	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		m.forget(id)
		return api.JobStatus{}, err
	}
	m.persistStatus(j)
	select {
	case m.queue <- j:
	default:
		m.forget(id)
		os.RemoveAll(j.dir)
		return api.JobStatus{}, ErrQueueFull
	}
	m.log.Info("jobs: submitted", "job", id, "kind", req.Kind)
	return j.status(), nil
}

func (m *Manager) forget(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
	for i, v := range m.order {
		if v == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// workersFor is a job's per-chunk parallelism: the request's own, else
// def (< 1 means GOMAXPROCS), capped at maxWorkers.
func workersFor(req *api.JobSubmitRequest, def int) int {
	w := req.Workers
	if w < 1 {
		w = def
	}
	return min(w, maxWorkers)
}

// Status returns a job's current status.
func (m *Manager) Status(id string) (api.JobStatus, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return api.JobStatus{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.status(), nil
}

// List returns every job's status in creation order.
func (m *Manager) List() []api.JobStatus {
	m.mu.Lock()
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]api.JobStatus, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Cancel requests cancellation.  A queued job is finalized immediately; a
// running one stops within a chunk item and finalizes on the runner.
// Cancelling a terminal job is a no-op returning its status.
func (m *Manager) Cancel(id string) (api.JobStatus, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return api.JobStatus{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		st := j.statusLocked()
		j.mu.Unlock()
		return st, nil
	case j.state == api.JobQueued:
		j.cancelled = true
		j.state = api.JobCancelled
		j.finishedMS = nowUnixMS()
		st := j.statusLocked()
		j.mu.Unlock()
		m.persistStatus(j)
		m.log.Info("jobs: cancelled while queued", "job", id)
		return st, nil
	default: // running
		j.cancelled = true
		if j.cancelRun != nil {
			j.cancelRun(errCancelled)
		}
		st := j.statusLocked()
		j.mu.Unlock()
		return st, nil
	}
}

// ResultsInfo describes a job's result stream for the streaming endpoint.
type ResultsInfo struct {
	Path      string       // on-disk NDJSON file
	Committed int64        // replay-stable length; never stream beyond this
	State     api.JobState // terminal ⇒ Committed is final
}

// Results returns the streaming view of a job's result file.
func (m *Manager) Results(id string) (ResultsInfo, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return ResultsInfo{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return ResultsInfo{
		Path:      filepath.Join(j.dir, resultsFile),
		Committed: j.committed,
		State:     j.state,
	}, nil
}

// ArtifactPath returns the artifact file of a finished plancensus job.
// Unknown ids are ErrNotFound, other kinds ErrBadRequest, and unfinished
// jobs ErrNotReady (the file would be torn or still growing).
func (m *Manager) ArtifactPath(id string) (string, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.kind != api.JobPlanCensus {
		return "", fmt.Errorf("%w: job kind %q produces no artifact", ErrBadRequest, j.kind)
	}
	if j.state != api.JobDone {
		return "", fmt.Errorf("%w: job %s is %s", ErrNotReady, id, j.state)
	}
	return filepath.Join(j.dir, ArtifactFile), nil
}

// TracePath returns the span-tree file of a job's last run (written when
// tracing is active).  Unknown ids are ErrNotFound; a job whose run has not
// produced a trace yet (still running its first chunks, or tracing disabled)
// is ErrNotReady.
func (m *Manager) TracePath(id string) (string, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	p := filepath.Join(j.dir, traceFile)
	if _, err := os.Stat(p); err != nil {
		return "", fmt.Errorf("%w: job %s has no trace (tracing off, or the run has not finished)", ErrNotReady, id)
	}
	return p, nil
}

// Stats is the manager snapshot exported on /metrics.
type Stats struct {
	Queued, Running, Done, Failed, Cancelled int
	QueueCap                                 int
	ChunksDone, Shapes, Retries              uint64
	ResultBytes                              int64
}

// Stats counts jobs by state and reports lifetime totals.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	s := Stats{QueueCap: cap(m.queue)}
	m.mu.Unlock()
	for _, j := range js {
		j.mu.Lock()
		switch j.state {
		case api.JobQueued:
			s.Queued++
		case api.JobRunning:
			s.Running++
		case api.JobDone:
			s.Done++
		case api.JobFailed:
			s.Failed++
		case api.JobCancelled:
			s.Cancelled++
		}
		j.mu.Unlock()
	}
	s.ChunksDone = m.chunksDone.Load()
	s.Shapes = m.shapesDone.Load()
	s.Retries = m.retriesTot.Load()
	s.ResultBytes = m.resultBytes.Load()
	return s
}

// Close stops accepting submissions, interrupts running jobs (which
// checkpoint and stay resumable on disk) and waits for the runners to
// drain, up to ctx's deadline.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel(errShutdown)
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *Manager) runnerLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// runJob drives one job to a terminal state (or to a resumable stop on
// shutdown / abandon).
func (m *Manager) runJob(j *job) {
	if hook := m.cfg.beforeRun; hook != nil {
		hook(j.id)
	}
	runner, err := buildRunner(&j.req, workersFor(&j.req, m.cfg.DefaultWorkers), m.cfg.Planner, j.dir)
	if err != nil {
		m.finalize(j, api.JobFailed, err)
		return
	}
	// Release runner-held resources (the plancensus artifact builder) on
	// every exit path; a cleanly finished runner has already let them go.
	if c, ok := runner.(runnerCloser); ok {
		defer c.close()
	}
	jctx, cancel := context.WithCancelCause(m.ctx)
	defer cancel(nil)
	j.mu.Lock()
	if j.cancelled || j.state.Terminal() {
		j.mu.Unlock()
		return // cancelled while queued; already finalized
	}
	j.state = api.JobRunning
	if j.startedMS == 0 {
		j.startedMS = nowUnixMS()
	}
	j.cancelRun = cancel
	j.mu.Unlock()
	m.persistStatus(j)

	jctx, span := obs.StartRoot(jctx, "job")
	if span != nil {
		span.SetAttr("job", j.id)
		span.SetAttr("kind", string(j.kind))
	}
	err = m.run(jctx, j, runner)
	j.mu.Lock()
	j.cancelRun = nil
	j.mu.Unlock()

	// Persist the trace before the terminal status: a client that saw the
	// job finish must be able to fetch its trace immediately.
	if !errors.Is(err, errAbandoned) {
		m.writeTrace(j, span)
	}
	switch {
	case err == nil:
		m.finalize(j, api.JobDone, nil)
	case errors.Is(err, errAbandoned):
		return // test hook: simulate a kill — no finalize, no disk writes
	case jctx.Err() != nil && errors.Is(context.Cause(jctx), errCancelled):
		m.finalize(j, api.JobCancelled, nil)
	case jctx.Err() != nil && errors.Is(context.Cause(jctx), errShutdown):
		// Leave the job queued on disk; the checkpoint written on the way
		// out makes the next Open resume it.
		j.mu.Lock()
		j.state = api.JobQueued
		j.mu.Unlock()
		m.persistStatus(j)
		m.log.Info("jobs: suspended for shutdown", "job", j.id, "chunks_done", j.chunksDone)
	default:
		m.finalize(j, api.JobFailed, err)
	}
}

// finalize moves a job to a terminal state and persists it.  A concurrent
// user cancel that already marked the job cancelled wins over Done so the
// API never reports a cancelled job as completed.
func (m *Manager) finalize(j *job, state api.JobState, err error) {
	j.mu.Lock()
	if j.state == api.JobCancelled && state == api.JobDone {
		state = api.JobCancelled
	}
	j.state = state
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finishedMS = nowUnixMS()
	j.shapesPerSec, j.etaMS = 0, 0
	j.mu.Unlock()
	m.persistStatus(j)
	switch state {
	case api.JobFailed:
		m.log.Error("jobs: failed", "job", j.id, "err", err)
	default:
		m.log.Info("jobs: finished", "job", j.id, "state", string(state),
			"shapes", j.shapes, "result_bytes", j.committed)
	}
}

// run commits j's chunks from one chunk source into its result log, then
// appends the finish records.  A distributed job runs on the fabric when a
// pool is configured; otherwise — including a distributed job resumed on a
// server without one — the local loop runs it.  Both sources commit
// through the same log, so the stream is the same bytes either way.
func (m *Manager) run(ctx context.Context, j *job, r kindRunner) error {
	l, err := m.openLog(j, r)
	if err != nil {
		return err
	}
	defer l.f.Close()
	if dr, ok := r.(distRunner); ok && j.req.Distributed && m.cfg.Fabric != nil {
		err = m.runBodyDistributed(ctx, l, dr)
	} else {
		err = m.runBody(ctx, l)
	}
	if err != nil {
		return err
	}
	return l.finish()
}

// resultLog is one run's commit state: the job's results file and the
// resume point committed to it.  Chunks are committed strictly in index
// order, whichever source produced them.
type resultLog struct {
	m *Manager
	j *job
	r kindRunner
	f *os.File

	total    int
	next     int   // first uncommitted chunk
	offset   int64 // committed stream length
	shapes   uint64
	retries  int
	lastCkpt int

	// Where this run started: throughput and ETA reflect this run only, so
	// pre-kill progress does not inflate a resumed job's live rate.
	start       time.Time
	startNext   int
	startShapes uint64
}

// openLog opens j's results file, restores the runner's aggregate and the
// resume point from the checkpoint, and cuts the file back to the
// checkpointed offset: bytes past it were written after the checkpoint and
// will be regenerated identically.
func (m *Manager) openLog(j *job, r kindRunner) (*resultLog, error) {
	f, err := os.OpenFile(filepath.Join(j.dir, resultsFile), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &resultLog{m: m, j: j, r: r, f: f, total: r.chunks()}
	fi, err := f.Stat()
	if err == nil {
		if ck := m.resumePoint(j, r, fi.Size()); ck != nil {
			l.next, l.offset, l.shapes, l.retries = ck.NextChunk, ck.Offset, ck.Shapes, ck.Retries
		}
		err = f.Truncate(l.offset)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l.lastCkpt, l.start, l.startNext, l.startShapes = l.next, time.Now(), l.next, l.shapes
	j.mu.Lock()
	j.chunksDone, j.chunksTotal = l.next, l.total
	j.shapes, j.retries, j.committed = l.shapes, l.retries, l.offset
	j.mu.Unlock()
	return l, nil
}

// resumePoint restores r from j's checkpoint and returns it, or returns nil
// to run from chunk 0 on r's fresh aggregate: when there is no checkpoint,
// when it is unreadable, foreign or its aggregate is rejected, or when the
// results file (size bytes) is shorter than its offset — truncating "up"
// to the offset would zero-extend the file and serve NUL bytes as rows.
func (m *Manager) resumePoint(j *job, r kindRunner, size int64) *checkpoint {
	ck, err := readCheckpoint(j.dir)
	switch {
	case err != nil:
		m.log.Warn("jobs: checkpoint unreadable; restarting job from scratch", "job", j.id, "err", err)
	case ck == nil || ck.Version != api.JobSchemaVersion || ck.JobID != j.id:
	case size < ck.Offset:
		m.log.Warn("jobs: results file shorter than the checkpoint offset; restarting job from scratch",
			"job", j.id, "size", size, "offset", ck.Offset)
	default:
		if err := r.restore(ck.Agg); err != nil {
			m.log.Warn("jobs: checkpoint aggregate rejected; restarting job from scratch",
				"job", j.id, "err", err)
			return nil
		}
		return ck
	}
	return nil
}

// commit appends the next chunk's records and advances the commit state:
// the manager's lifetime counters, the job's progress and ETA, the
// afterChunk hook, and a checkpoint every CheckpointEvery chunks.  owners,
// passed by the fabric source only, supplies the checkpoint's in-flight
// chunk map.
func (l *resultLog) commit(rows []byte, n uint64, owners func() map[string]string) error {
	if _, err := l.f.Write(rows); err != nil {
		return err
	}
	m, j, chunk := l.m, l.j, l.next
	l.next++
	l.offset += int64(len(rows))
	l.shapes += n
	m.chunksDone.Add(1)
	m.shapesDone.Add(n)
	m.resultBytes.Add(int64(len(rows)))

	elapsed := time.Since(l.start).Seconds()
	j.mu.Lock()
	j.chunksDone, j.shapes, j.committed, j.retries = l.next, l.shapes, l.offset, l.retries
	if elapsed > 0 {
		j.shapesPerSec = float64(l.shapes-l.startShapes) / elapsed
		perChunk := elapsed / float64(l.next-l.startNext)
		j.etaMS = int64(perChunk * float64(l.total-l.next) * 1000)
	}
	j.mu.Unlock()

	if hook := m.cfg.afterChunk; hook != nil {
		if err := hook(j.id, chunk); err != nil {
			return err
		}
	}
	if l.next < l.total && l.next-l.lastCkpt >= m.cfg.CheckpointEvery {
		var o map[string]string
		if owners != nil {
			o = owners()
		}
		if err := l.checkpoint(o); err != nil {
			return err
		}
		l.lastCkpt = l.next
		m.persistStatus(j)
	}
	return nil
}

// checkpoint syncs the results file and atomically replaces the checkpoint
// with the current resume point.  Ordering matters: the data covered by
// Offset must be durable before a checkpoint referencing it exists.
// owners is a distributed run's in-flight chunk → peer map.
func (l *resultLog) checkpoint(owners map[string]string) error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	agg, err := l.r.snapshot()
	if err != nil {
		return err
	}
	return writeJSONAtomic(filepath.Join(l.j.dir, checkpointFile), checkpoint{
		Version: api.JobSchemaVersion, JobID: l.j.id,
		NextChunk: l.next, Offset: l.offset, Shapes: l.shapes, Retries: l.retries, Agg: agg,
		Owners: owners,
	})
}

// finish checkpoints at (total, pre-finish offset), then appends and syncs
// the finish records.  A crash between here and the terminal status
// persist replays zero chunks and re-appends the finish records onto an
// identical prefix.
func (l *resultLog) finish() error {
	if err := l.checkpoint(nil); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := l.r.finish(&buf, l.shapes); err != nil {
		return err
	}
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.offset += int64(buf.Len())
	l.m.resultBytes.Add(int64(buf.Len()))
	l.j.mu.Lock()
	l.j.committed = l.offset
	l.j.mu.Unlock()
	return nil
}

// runBody is the local chunk source: it runs the uncommitted chunks in
// index order on this node and commits each.  On a dying context it
// checkpoints, so the resume point is the last committed chunk.
func (m *Manager) runBody(ctx context.Context, l *resultLog) error {
	var buf bytes.Buffer
	for chunk := l.next; chunk < l.total; chunk++ {
		var n uint64
		err := ctx.Err()
		if err == nil {
			n, err = m.runChunk(ctx, l, chunk, &buf)
		}
		if err != nil {
			if ctx.Err() != nil {
				// Best effort: if it fails, the previous checkpoint still
				// resumes byte-identically, only from an earlier chunk.
				_ = l.checkpoint(nil)
				return ctx.Err()
			}
			return err
		}
		if err := l.commit(buf.Bytes(), n, nil); err != nil {
			return err
		}
	}
	return nil
}

// runChunk executes one chunk with panic isolation and bounded retry.  The
// buffer is reset per attempt; the runner's aggregate is untouched by a
// failed attempt (see kindRunner), so a retry starts from a clean slate.
func (m *Manager) runChunk(ctx context.Context, l *resultLog, chunk int, buf *bytes.Buffer) (uint64, error) {
	for attempt := 0; ; attempt++ {
		buf.Reset()
		n, err := m.attemptChunk(ctx, l.j, l.r, chunk, attempt, buf)
		if err == nil {
			return n, nil
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if attempt >= retryLimit {
			return 0, fmt.Errorf("jobs: chunk %d failed after %d attempts: %w", chunk, attempt+1, err)
		}
		l.retries++
		m.retriesTot.Add(1)
		m.log.Warn("jobs: chunk attempt failed; retrying",
			"job", l.j.id, "chunk", chunk, "attempt", attempt+1, "err", err)
	}
}

func (m *Manager) attemptChunk(ctx context.Context, j *job, r kindRunner, chunk, attempt int, buf *bytes.Buffer) (n uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	cctx, span := obs.Start(ctx, fmt.Sprintf("chunk %d", chunk))
	if span != nil {
		defer span.End()
	}
	if hook := m.cfg.beforeAttempt; hook != nil {
		hook(j.id, chunk, attempt)
	}
	return r.runChunk(cctx, chunk, buf)
}

func (m *Manager) persistStatus(j *job) {
	if err := writeJSONAtomic(filepath.Join(j.dir, statusFile), j.status()); err != nil {
		m.log.Error("jobs: persisting status failed", "job", j.id, "err", err)
	}
}

// writeTrace dumps the run's span tree next to the results when tracing is
// active; purely observability, never part of the result stream.
func (m *Manager) writeTrace(j *job, span *obs.Span) {
	if span == nil {
		return
	}
	span.End()
	snap := span.Snapshot()
	snap.TraceID = span.Context().TraceID
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return
	}
	if err := os.WriteFile(filepath.Join(j.dir, traceFile), append(b, '\n'), 0o644); err != nil {
		m.log.Warn("jobs: writing trace failed", "job", j.id, "err", err)
	}
}

func nowUnixMS() int64 { return time.Now().UnixMilli() }
