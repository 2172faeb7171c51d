// Package jobs is the asynchronous batch-sweep subsystem: a bounded job
// manager that runs the paper's whole-range sweeps (the Figure 2 coverage
// census, the ε-distribution table, full planner sweeps) as resumable
// background jobs over the shared sweep pool.
//
// Determinism is the load-bearing property.  A job's work is cut into
// chunks that execute sequentially in index order (parallelism lives inside
// a chunk, on sweep.MapCtx's result slots, which a chunk reads in index
// order); every aggregate is integer-derived, and every aggregate read back
// must be exactly the encoding it was written in; records carry no
// timestamps.  The NDJSON result stream is therefore a pure function of
// the request — independent of worker count, scheduling, retries and
// resume points — which is what lets the manager checkpoint mid-job and,
// after a kill, truncate the stream to the last checkpoint and replay
// forward to a byte-identical final result.  It is also what makes
// streaming sound: bytes handed to a client are committed in the sense
// that any future replay reproduces them exactly, so a client can resume
// a broken stream by byte offset.
//
// Failure isolation: a panicking chunk is recovered, retried up to
// retryLimit times, and fails only its own job; the manager, its other
// jobs, and the serving path stay up.
package jobs

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
// mu.  st is the job's served status; its Progress.ResultBytes is the result
// stream's committed length, so status and streaming never touch the file
// under the runner.
type job struct {
	id   string
	kind api.JobKind
	req  api.JobSubmitRequest
	dir  string

	mu        sync.Mutex
	st        api.JobStatus // Request and Fabric are filled in by statusLocked
	cancelRun context.CancelCauseFunc
	// dispatch is the live fabric dispatcher while a distributed run is in
	// flight; status reads it for the per-peer Fabric block.
	dispatch *fabric.Dispatch
}

func (j *job) statusLocked() api.JobStatus {
	st := j.st
	st.Version = api.Version
	req := j.req
	st.Request = &req
	if st.State != api.JobRunning {
		st.Progress.ShapesPerSec, st.Progress.ETAMS = 0, 0
	} else if j.dispatch != nil {
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

// Manager owns the job queue, the runner goroutine and the on-disk state.
type Manager struct {
	cfg Config
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	queue  chan *job
	closed bool
	seq    int

	chunksDone  atomic.Uint64
	shapesDone  atomic.Uint64
	retriesTot  atomic.Uint64
	resultBytes atomic.Int64
}

// Open creates (or reopens) a manager over cfg.DataDir, restores every job
// found there — terminal jobs become listable history, queued and running
// jobs are re-queued to resume from their last checkpoint — and starts the
// runner goroutine.
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
	// One runner: batch sweeps are throughput work, and one job at a time
	// keeps them from starving the interactive serving path.
	m.wg.Add(1)
	go m.runnerLoop()
	return m, nil
}

// restore scans the data dir and rebuilds the job table.  Jobs persisted
// mid-flight (queued or running) are returned for re-queueing in creation
// order, marked resumed.  Unreadable or version-skewed directories are
// skipped with a warning — one corrupt job must not brick the manager.
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
		j := &job{id: st.ID, kind: st.Kind, req: *st.Request, dir: dir, st: st}
		j.st.Request, j.st.Fabric = nil, nil
		j.st.Progress.ShapesPerSec, j.st.Progress.ETAMS = 0, 0
		loaded = append(loaded, j)
	}
	slices.SortFunc(loaded, func(a, b *job) int { return creationOrder(a.st, b.st) })
	var resumable []*job
	for _, j := range loaded {
		m.jobs[j.id] = j
		if j.st.State.Terminal() {
			continue
		}
		// Until the run reopens its log, advertise only the prefix it will
		// keep: the checkpointed one, or none.
		pr := &j.st.Progress
		pr.ResultBytes, pr.ChunksDone, pr.Shapes = 0, 0, 0
		if ck, _ := trustedCheckpoint(j); ck != nil {
			pr.ResultBytes, pr.ChunksDone, pr.Shapes = ck.Offset, ck.NextChunk, ck.Shapes
		}
		j.st.State = api.JobQueued
		j.st.Resumed++
		m.persistStatus(j)
		resumable = append(resumable, j)
		m.log.Info("jobs: resuming job from checkpoint",
			"job", j.id, "kind", j.kind, "next_chunk", pr.ChunksDone, "offset", pr.ResultBytes)
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
	// A manager reopened in the same process shares the ID prefix of the
	// jobs it restored, so skip the sequence numbers they hold.
	var id string
	for id == "" || m.jobs[id] != nil {
		m.seq++
		id = fmt.Sprintf("j-%s-%06d", obs.IDPrefix, m.seq)
	}
	j := &job{
		id: id, kind: req.Kind, req: req,
		dir: filepath.Join(m.cfg.DataDir, id),
		st:  api.JobStatus{ID: id, Kind: req.Kind, State: api.JobQueued, CreatedUnixMS: nowUnixMS()},
	}
	m.jobs[id] = j
	m.mu.Unlock()

	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		m.forget(id)
		return api.JobStatus{}, err
	}
	m.persistStatus(j)
	st := j.status() // before the runner can start, or even finish, the job
	select {
	case m.queue <- j:
	default:
		m.forget(id)
		os.RemoveAll(j.dir)
		return api.JobStatus{}, ErrQueueFull
	}
	m.log.Info("jobs: submitted", "job", id, "kind", req.Kind)
	return st, nil
}

func (m *Manager) forget(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
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

// lookup returns the job with the given id, or ErrNotFound.
func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// Status returns a job's current status.
func (m *Manager) Status(id string) (api.JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return api.JobStatus{}, err
	}
	return j.status(), nil
}

// List returns every job's status in creation order.
func (m *Manager) List() []api.JobStatus {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]api.JobStatus, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	slices.SortFunc(out, creationOrder)
	return out
}

// creationOrder orders jobs by creation time, then by ID: within a process,
// IDs grow with submission.
func creationOrder(a, b api.JobStatus) int {
	return cmp.Or(cmp.Compare(a.CreatedUnixMS, b.CreatedUnixMS), strings.Compare(a.ID, b.ID))
}

// Cancel requests cancellation.  A queued job is finalized immediately; a
// running one stops within a chunk item and finalizes on the runner.
// Cancelling a terminal job is a no-op returning its status.
func (m *Manager) Cancel(id string) (api.JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return api.JobStatus{}, err
	}
	j.mu.Lock()
	switch {
	case j.st.State.Terminal():
		st := j.statusLocked()
		j.mu.Unlock()
		return st, nil
	case j.st.State == api.JobQueued:
		j.st.State = api.JobCancelled
		j.st.FinishedUnixMS = nowUnixMS()
		st := j.statusLocked()
		j.mu.Unlock()
		m.persistStatus(j)
		m.log.Info("jobs: cancelled while queued", "job", id)
		return st, nil
	default: // running
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
	j, err := m.lookup(id)
	if err != nil {
		return ResultsInfo{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return ResultsInfo{
		Path:      filepath.Join(j.dir, resultsFile),
		Committed: j.st.Progress.ResultBytes,
		State:     j.st.State,
	}, nil
}

// ArtifactPath returns the artifact file of a finished plancensus job.
// Unknown ids are ErrNotFound, other kinds ErrBadRequest, and unfinished
// jobs ErrNotReady (the file would be torn or still growing).
func (m *Manager) ArtifactPath(id string) (string, error) {
	j, err := m.lookup(id)
	if err != nil {
		return "", err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.kind != api.JobPlanCensus {
		return "", fmt.Errorf("%w: job kind %q produces no artifact", ErrBadRequest, j.kind)
	}
	if j.st.State != api.JobDone {
		return "", fmt.Errorf("%w: job %s is %s", ErrNotReady, id, j.st.State)
	}
	return filepath.Join(j.dir, ArtifactFile), nil
}

// TracePath returns the span-tree file of a job's last run, which every
// run writes as it ends.  Unknown ids are ErrNotFound; a job no run of
// which has finished yet (queued, running, or cancelled before it ran) is
// ErrNotReady.
func (m *Manager) TracePath(id string) (string, error) {
	j, err := m.lookup(id)
	if err != nil {
		return "", err
	}
	p := filepath.Join(j.dir, traceFile)
	if _, err := os.Stat(p); err != nil {
		return "", fmt.Errorf("%w: job %s has no trace: no run of it has finished yet (it is queued, running, or was cancelled before it ran)", ErrNotReady, id)
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
		switch j.st.State {
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
// checkpoint and stay resumable on disk) and waits for the runner to
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
	if j.st.State.Terminal() {
		j.mu.Unlock()
		return // cancelled while queued; already finalized
	}
	j.st.State = api.JobRunning
	if j.st.StartedUnixMS == 0 {
		j.st.StartedUnixMS = nowUnixMS()
	}
	j.cancelRun = cancel
	j.mu.Unlock()
	m.persistStatus(j)

	jctx, span := obs.StartRoot(jctx, "job")
	span.SetAttr("job", j.id)
	span.SetAttr("kind", string(j.kind))
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
		j.st.State = api.JobQueued
		chunksDone := j.st.Progress.ChunksDone
		j.mu.Unlock()
		m.persistStatus(j)
		m.log.Info("jobs: suspended for shutdown", "job", j.id, "chunks_done", chunksDone)
	default:
		m.finalize(j, api.JobFailed, err)
	}
}

// finalize moves a job to a terminal state and persists it.
func (m *Manager) finalize(j *job, state api.JobState, err error) {
	j.mu.Lock()
	j.st.State = state
	if err != nil {
		j.st.Error = err.Error()
	}
	j.st.FinishedUnixMS = nowUnixMS()
	pr := j.st.Progress
	j.mu.Unlock()
	m.persistStatus(j)
	switch state {
	case api.JobFailed:
		m.log.Error("jobs: failed", "job", j.id, "err", err)
	default:
		m.log.Info("jobs: finished", "job", j.id, "state", string(state),
			"shapes", pr.Shapes, "result_bytes", pr.ResultBytes)
	}
}

// run commits j's chunks from one chunk source into its result log, then
// appends the finish records.  A distributed job runs on the fabric when a
// pool is configured; otherwise — including a distributed job resumed on a
// server without one — the local loop runs it.  Both sources run every
// chunk as execute → fold and commit through the same log, so the stream
// is the same bytes either way.
func (m *Manager) run(ctx context.Context, j *job, r kindRunner) error {
	l, err := m.openLog(j, r)
	if err != nil {
		return err
	}
	defer l.f.Close()
	if j.req.Distributed && m.cfg.Fabric != nil {
		err = m.runBodyDistributed(ctx, l)
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
// order, whichever source produced them, each from buf, where fold
// rendered it.
type resultLog struct {
	m   *Manager
	j   *job
	r   kindRunner
	f   *os.File
	buf bytes.Buffer

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
	if ck := m.resumePoint(j, r); ck != nil {
		l.next, l.offset, l.shapes, l.retries = ck.NextChunk, ck.Offset, ck.Shapes, ck.Retries
	}
	if err := f.Truncate(l.offset); err != nil {
		f.Close()
		return nil, err
	}
	l.lastCkpt, l.start, l.startNext, l.startShapes = l.next, time.Now(), l.next, l.shapes
	j.mu.Lock()
	pr := &j.st.Progress
	pr.ChunksDone, pr.ChunksTotal = l.next, l.total
	pr.Shapes, pr.Retries, pr.ResultBytes = l.shapes, l.retries, l.offset
	j.mu.Unlock()
	return l, nil
}

// resumePoint restores r from j's trusted checkpoint and returns it, or
// warns of damage and returns nil to run from chunk 0 on r's fresh
// aggregate.
func (m *Manager) resumePoint(j *job, r kindRunner) *checkpoint {
	ck, err := trustedCheckpoint(j)
	if err != nil {
		m.log.Warn("jobs: checkpoint not resumable; restarting job from scratch", "job", j.id, "err", err)
		return nil
	}
	if ck != nil {
		if err := r.restore(ck.Agg); err != nil {
			m.log.Warn("jobs: checkpoint aggregate rejected; restarting job from scratch",
				"job", j.id, "err", err)
			return nil
		}
	}
	return ck
}

// trustedCheckpoint is the one resume rule, shared by the run and the
// restore scan: j's checkpoint counts only when it is readable, carries j's
// ID and schema, and the results file holds the Offset bytes it covers
// (truncating "up" would zero-extend the file and serve NUL bytes as rows).
// The error names the damage of one that cannot be trusted.
func trustedCheckpoint(j *job) (*checkpoint, error) {
	ck, err := readCheckpoint(j.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint unreadable: %w", err)
	}
	if ck == nil || ck.Version != api.JobSchemaVersion || ck.JobID != j.id {
		return nil, nil
	}
	var size int64
	if fi, err := os.Stat(filepath.Join(j.dir, resultsFile)); err == nil {
		size = fi.Size()
	}
	if size < ck.Offset {
		return nil, fmt.Errorf("results file shorter than the checkpoint offset (%d < %d bytes)", size, ck.Offset)
	}
	return ck, nil
}

// commit appends the next chunk's records, fold's bytes in buf, empties
// buf and advances the commit state: the manager's lifetime counters, the
// job's progress and ETA, the afterChunk hook, and a checkpoint every
// CheckpointEvery chunks.  n is the chunk's shape count.
func (l *resultLog) commit(n uint64) error {
	rows := l.buf.Bytes()
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
	l.buf.Reset()

	elapsed := time.Since(l.start).Seconds()
	j.mu.Lock()
	pr := &j.st.Progress
	pr.ChunksDone, pr.Shapes, pr.ResultBytes, pr.Retries = l.next, l.shapes, l.offset, l.retries
	if elapsed > 0 {
		pr.ShapesPerSec = float64(l.shapes-l.startShapes) / elapsed
		perChunk := elapsed / float64(l.next-l.startNext)
		pr.ETAMS = int64(perChunk * float64(l.total-l.next) * 1000)
	}
	j.mu.Unlock()

	if hook := m.cfg.afterChunk; hook != nil {
		if err := hook(j.id, chunk); err != nil {
			return err
		}
	}
	if l.next < l.total && l.next-l.lastCkpt >= m.cfg.CheckpointEvery {
		if err := l.checkpoint(); err != nil {
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
func (l *resultLog) checkpoint() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	agg, err := l.r.snapshot()
	if err != nil {
		return err
	}
	return writeCheckpoint(l.j.dir, checkpoint{
		Version: api.JobSchemaVersion, JobID: l.j.id,
		NextChunk: l.next, Offset: l.offset, Shapes: l.shapes, Retries: l.retries, Agg: agg,
	})
}

// finish checkpoints at (total, pre-finish offset), then appends and syncs
// the finish records.  A crash between here and the terminal status
// persist replays zero chunks and re-appends the finish records onto an
// identical prefix.
func (l *resultLog) finish() error {
	if err := l.checkpoint(); err != nil {
		return err
	}
	if err := l.r.finish(&l.buf, l.shapes); err != nil {
		return err
	}
	if _, err := l.f.Write(l.buf.Bytes()); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.offset += int64(l.buf.Len())
	l.m.resultBytes.Add(int64(l.buf.Len()))
	l.j.mu.Lock()
	l.j.st.Progress.ResultBytes = l.offset
	l.j.mu.Unlock()
	return nil
}

// runBody is the local chunk source: it runs the uncommitted chunks in
// index order on this node and commits each.  On a dying context it
// checkpoints, so the resume point is the last committed chunk.
func (m *Manager) runBody(ctx context.Context, l *resultLog) error {
	for chunk := l.next; chunk < l.total; chunk++ {
		n, err := m.retryChunk(ctx, l, chunk)
		if err != nil {
			if ctx.Err() != nil {
				// Best effort: if it fails, the previous checkpoint still
				// resumes byte-identically, only from an earlier chunk.
				_ = l.checkpoint()
				return ctx.Err()
			}
			return err
		}
		if err := l.commit(n); err != nil {
			return err
		}
	}
	return nil
}

// retryChunk runs one chunk with panic isolation and bounded retry,
// leaves its stream bytes in l.buf and returns its shape count; a done ctx
// starts no further attempt.  l.buf is emptied per attempt; the runner's
// aggregate is untouched by a failed attempt (see kindRunner), so a retry
// starts from a clean slate.
func (m *Manager) retryChunk(ctx context.Context, l *resultLog, chunk int) (uint64, error) {
	for attempt := 0; ctx.Err() == nil; attempt++ {
		l.buf.Reset()
		n, err := m.attemptChunk(ctx, l, chunk, attempt)
		if err == nil {
			return n, nil
		}
		if ctx.Err() != nil {
			break
		}
		if attempt >= retryLimit {
			return 0, fmt.Errorf("jobs: chunk %d failed after %d attempts: %w", chunk, attempt+1, err)
		}
		l.retries++
		m.retriesTot.Add(1)
		m.log.Warn("jobs: chunk attempt failed; retrying",
			"job", l.j.id, "chunk", chunk, "attempt", attempt+1, "err", err)
	}
	return 0, ctx.Err()
}

// attemptChunk is one attempt at a chunk: execute, then fold into l.buf —
// the same two halves a fabric peer and the coordinator split between
// them, with the records passed as Go values instead of JSON.
func (m *Manager) attemptChunk(ctx context.Context, l *resultLog, chunk, attempt int) (n uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	cctx, span := obs.Start(ctx, fmt.Sprintf("chunk %d", chunk))
	defer span.End()
	if hook := m.cfg.beforeAttempt; hook != nil {
		hook(l.j.id, chunk, attempt)
	}
	res, err := l.r.execute(cctx, chunk)
	if err != nil {
		return 0, err
	}
	res.Chunk = chunk
	return l.r.fold(res, &l.buf)
}

func (m *Manager) persistStatus(j *job) {
	if err := writeJSONAtomic(filepath.Join(j.dir, statusFile), j.status()); err != nil {
		m.log.Error("jobs: persisting status failed", "job", j.id, "err", err)
	}
}

// writeTrace dumps the run's span tree next to the results; purely
// observability, never part of the result stream.
func (m *Manager) writeTrace(j *job, span *obs.Span) {
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
