package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/pkg/api"
)

func testConfig(dir string) Config {
	return Config{
		DataDir:         dir,
		CheckpointEvery: 3,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

func censusReq(maxN int) api.JobSubmitRequest {
	return api.JobSubmitRequest{Kind: api.JobCensus, Census: &api.CensusParams{MaxN: maxN}}
}

func epsilonReq(maxN int) api.JobSubmitRequest {
	return api.JobSubmitRequest{Kind: api.JobEpsilon, Epsilon: &api.EpsilonParams{MaxN: maxN}}
}

func plansweepReq() api.JobSubmitRequest {
	return api.JobSubmitRequest{
		Kind:      api.JobPlanSweep,
		PlanSweep: &api.PlanSweepParams{Dims: 3, MaxAxis: 8, MaxNodes: 256},
	}
}

func waitFor(t testing.TB, timeout time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitTerminal(t testing.TB, m *Manager, id string) api.JobStatus {
	t.Helper()
	var st api.JobStatus
	waitFor(t, 60*time.Second, "job "+id+" to finish", func() bool {
		var err error
		st, err = m.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		return st.State.Terminal()
	})
	return st
}

func closeManager(t testing.TB, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func resultsBytes(t testing.TB, dataDir, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dataDir, id, resultsFile))
	if err != nil {
		t.Fatalf("reading results: %v", err)
	}
	return b
}

// runToCompletion runs one job on a fresh manager and returns its final
// status and result stream.
func runToCompletion(t testing.TB, req api.JobSubmitRequest) (api.JobStatus, []byte) {
	t.Helper()
	dir := t.TempDir()
	m, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitTerminal(t, m, st.ID)
	if st.State != api.JobDone {
		t.Fatalf("job ended %s (error %q), want done", st.State, st.Error)
	}
	return st, resultsBytes(t, dir, st.ID)
}

// TestCensusJobMatchesFigure2 checks the result stream against the direct
// in-process census: same row values, one shard record per first axis, a
// summary accounting for every ordered shape.
func TestCensusJobMatchesFigure2(t *testing.T) {
	const maxN = 4
	st, raw := runToCompletion(t, censusReq(maxN))
	want := stats.Figure2Parallel(maxN, 1)

	var shards, rows int
	var summary api.SummaryRecord
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			t.Fatalf("bad record %q: %v", sc.Text(), err)
		}
		switch head.Type {
		case api.RecordCensusShard:
			shards++
		case api.RecordCensusRow:
			var row api.CensusRowRecord
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				t.Fatal(err)
			}
			ref := want[rows]
			if row.N != ref.N || row.Total != ref.Total || row.Exceptions != ref.Exceptions ||
				math.Abs(row.S[3]-ref.S[3]) > 1e-12 || math.Abs(row.S4Eps2-ref.S4Eps2) > 1e-12 {
				t.Errorf("row %d = %+v, want %+v", rows, row, ref)
			}
			rows++
		case api.RecordSummary:
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
		default:
			t.Errorf("unexpected record type %q", head.Type)
		}
	}
	if shards != 1<<maxN || rows != maxN {
		t.Errorf("stream has %d shards and %d rows, want %d and %d", shards, rows, 1<<maxN, maxN)
	}
	if wantShapes := uint64(1) << (3 * maxN); summary.Shapes != wantShapes {
		t.Errorf("summary shapes = %d, want %d (every ordered triple)", summary.Shapes, wantShapes)
	}
	if st.Progress.ResultBytes != int64(len(raw)) {
		t.Errorf("status ResultBytes = %d, file has %d", st.Progress.ResultBytes, len(raw))
	}
	if st.Progress.ChunksDone != st.Progress.ChunksTotal || st.Progress.ChunksTotal != 1<<maxN {
		t.Errorf("progress = %+v, want all %d chunks done", st.Progress, 1<<maxN)
	}
}

// TestKillAndResumeByteIdentical is the subsystem's core guarantee: abandon
// a run mid-job with no warning (the in-process equivalent of SIGKILL —
// the last checkpoint is stale and the result stream runs past it), reopen
// the manager over the same data dir, and the resumed job must finish with
// a result stream byte-identical to an uninterrupted run's.
func TestKillAndResumeByteIdentical(t *testing.T) {
	cases := []struct {
		name        string
		req         api.JobSubmitRequest
		abandonAt   int
		ckptEvery   int
		totalChunks int
	}{
		{"census", censusReq(4), 7, 3, 16},
		{"plansweep", plansweepReq(), 4, 2, 8},
		{"epsilon", epsilonReq(5), 3, 2, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, want := runToCompletion(t, tc.req)

			dir := t.TempDir()
			abandoned := make(chan struct{})
			cfg := testConfig(dir)
			cfg.CheckpointEvery = tc.ckptEvery
			cfg.afterChunk = func(id string, chunk int) error {
				if chunk == tc.abandonAt {
					close(abandoned)
					return errAbandoned
				}
				return nil
			}
			m1, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			st, err := m1.Submit(tc.req)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			<-abandoned
			closeManager(t, m1)

			// The on-disk stream must be longer than the checkpointed prefix:
			// the kill landed between checkpoints, so resume has real work to
			// redo (otherwise this test proves nothing about truncation).
			ck, err := readCheckpoint(filepath.Join(dir, st.ID))
			if err != nil || ck == nil {
				t.Fatalf("no checkpoint after abandon: %v", err)
			}
			if got := int64(len(resultsBytes(t, dir, st.ID))); got <= ck.Offset {
				t.Fatalf("stream %d bytes not past checkpoint offset %d; abandon point too early", got, ck.Offset)
			}
			if ck.NextChunk >= tc.totalChunks {
				t.Fatalf("checkpoint already at chunk %d of %d", ck.NextChunk, tc.totalChunks)
			}

			cfg2 := testConfig(dir)
			cfg2.CheckpointEvery = tc.ckptEvery
			m2, err := Open(cfg2)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer closeManager(t, m2)
			fin := waitTerminal(t, m2, st.ID)
			if fin.State != api.JobDone {
				t.Fatalf("resumed job ended %s (error %q)", fin.State, fin.Error)
			}
			if fin.Resumed != 1 {
				t.Errorf("Resumed = %d, want 1", fin.Resumed)
			}
			got := resultsBytes(t, dir, st.ID)
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed stream differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(want))
			}
		})
	}
}

// FuzzCheckpointResume: a Manager reopened over a killed job's directory
// finishes the job, never panics, and streams the bytes of an uninterrupted
// run, whatever checkpoint.json holds and however long the results file is.
// The job is a census (max_n 3) killed after chunk 4, whose checkpoint
// covers chunks 0..2; it is moved to a fixed ID, so inputs mean the same in
// every fuzz worker.  The fuzzer supplies the checkpoint's bytes and the
// results file's length; the file holds that prefix of the uninterrupted
// stream, as a killed run's file does.  Seeds: the genuine checkpoint over
// the killed file, a truncated checkpoint, non-JSON, another job's ID, an
// offset past the end of the file (sealed, and over a file cut short), and
// an aggregate missing a field.
func FuzzCheckpointResume(f *testing.F) {
	const id = "j-fuzz-000001"
	req := censusReq(3)
	_, want := runToCompletion(f, req)

	dir := f.TempDir()
	cfg := testConfig(dir)
	killed := make(chan struct{})
	cfg.afterChunk = func(_ string, chunk int) error {
		if chunk == 4 {
			close(killed)
			return errAbandoned
		}
		return nil
	}
	m, err := Open(cfg)
	if err != nil {
		f.Fatal(err)
	}
	st, err := m.Submit(req)
	if err != nil {
		f.Fatal(err)
	}
	<-killed
	closeManager(f, m)
	killedDir := filepath.Join(dir, st.ID)
	killedLen := uint(len(resultsBytes(f, dir, st.ID)))
	if st, err = readStatusFile(killedDir); err != nil {
		f.Fatal(err)
	}
	st.ID = id
	status, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	ck, err := readCheckpoint(killedDir)
	if err != nil || ck == nil || ck.NextChunk != 3 {
		f.Fatalf("killed run left checkpoint %+v, %v; want one at chunk 3", ck, err)
	}
	ck.JobID = id
	// sealed renders a checkpoint as the manager writes it.
	sealed := func(ck checkpoint) []byte {
		d := f.TempDir()
		if err := writeCheckpoint(d, ck); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(d, checkpointFile))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	genuine := sealed(*ck)
	f.Add(genuine, killedLen)
	f.Add(genuine[:len(genuine)/2], killedLen)
	f.Add([]byte("not json"), killedLen)
	other := *ck
	other.JobID = "j-fuzz-000002"
	f.Add(sealed(other), killedLen)
	past := *ck
	past.Offset = int64(len(want)) + 1
	f.Add(sealed(past), killedLen)
	f.Add(genuine, uint(ck.Offset-1))
	var agg bytes.Buffer
	if err := json.Compact(&agg, ck.Agg); err != nil {
		f.Fatal(err)
	}
	eps2 := regexp.MustCompile(`"eps2":[0-9]+,`)
	if !eps2.Match(agg.Bytes()) {
		f.Fatalf("census aggregate %s has no eps2 key", agg.Bytes())
	}
	missing := *ck
	missing.Agg = eps2.ReplaceAll(agg.Bytes(), nil)
	f.Add(sealed(missing), killedLen)

	f.Fuzz(func(t *testing.T, ckFile []byte, size uint) {
		dir := t.TempDir()
		jobDir := filepath.Join(dir, id)
		if err := os.Mkdir(jobDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{
			statusFile:     status,
			checkpointFile: ckFile,
			resultsFile:    want[:size%uint(len(want)+1)],
		} {
			if err := os.WriteFile(filepath.Join(jobDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m, err := Open(testConfig(dir))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer closeManager(t, m)
		if fin := waitTerminal(t, m, id); fin.State != api.JobDone {
			t.Fatalf("resumed job ended %s (error %q)", fin.State, fin.Error)
		}
		if got := resultsBytes(t, dir, id); !bytes.Equal(got, want) {
			t.Fatalf("resumed stream differs from the uninterrupted run:\n got %q\nwant %q", got, want)
		}
	})
}

// TestGracefulShutdownResume: Close interrupts a running job, which must be
// left resumable on disk and finish byte-identically after reopen.
func TestGracefulShutdownResume(t *testing.T) {
	_, want := runToCompletion(t, censusReq(4))

	dir := t.TempDir()
	cfg := testConfig(dir)
	midway := make(chan struct{})
	var once sync.Once
	cfg.afterChunk = func(id string, chunk int) error {
		if chunk >= 5 {
			once.Do(func() { close(midway) })
			time.Sleep(time.Millisecond) // give Close a window while chunks still remain
		}
		return nil
	}
	m1, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := m1.Submit(censusReq(4))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-midway
	closeManager(t, m1)

	onDisk, err := readStatusFile(filepath.Join(dir, st.ID))
	if err != nil {
		t.Fatalf("status after shutdown: %v", err)
	}
	if onDisk.State.Terminal() {
		t.Fatalf("job reached %s before shutdown could interrupt; shrink the abandon window", onDisk.State)
	}

	m2, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer closeManager(t, m2)
	fin := waitTerminal(t, m2, st.ID)
	if fin.State != api.JobDone || fin.Resumed != 1 {
		t.Fatalf("resumed job: state %s resumed %d, want done/1", fin.State, fin.Resumed)
	}
	if got := resultsBytes(t, dir, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("post-shutdown stream differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestPanicRetry: a chunk that panics is retried in isolation and the job
// still produces the uninterrupted stream; a chunk that keeps panicking
// fails only its job, with the panic message surfaced.
func TestPanicRetry(t *testing.T) {
	_, want := runToCompletion(t, censusReq(3))

	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.beforeAttempt = func(id string, chunk, attempt int) {
		if chunk == 2 && attempt < 2 {
			panic(fmt.Sprintf("injected failure %d", attempt))
		}
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(censusReq(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != api.JobDone {
		t.Fatalf("job ended %s (error %q), want done", fin.State, fin.Error)
	}
	if fin.Progress.Retries != 2 {
		t.Errorf("Retries = %d, want 2", fin.Progress.Retries)
	}
	if got := resultsBytes(t, dir, st.ID); !bytes.Equal(got, want) {
		t.Fatal("stream after retries differs from clean run")
	}
	if m.Stats().Retries != 2 {
		t.Errorf("manager retry counter = %d, want 2", m.Stats().Retries)
	}
}

// TestPanicExhaustsRetriesFailsJob: a chunk that panics on every attempt
// fails its job after retryLimit retries, and only its job.
func TestPanicExhaustsRetriesFailsJob(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	var attempts atomic.Int32
	cfg.beforeAttempt = func(id string, chunk, attempt int) {
		// Break only the first submission; the follow-up job must run clean.
		if strings.HasSuffix(id, "-000001") && chunk == 1 {
			attempts.Add(1)
			panic("always broken")
		}
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(censusReq(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != api.JobFailed {
		t.Fatalf("job ended %s, want failed", fin.State)
	}
	if !bytes.Contains([]byte(fin.Error), []byte("always broken")) {
		t.Errorf("error %q does not surface the panic", fin.Error)
	}
	if got := attempts.Load(); got != retryLimit+1 {
		t.Errorf("chunk ran %d attempts, want %d (retryLimit %d + 1)", got, retryLimit+1, retryLimit)
	}
	// The manager must survive: a fresh job on the same manager succeeds.
	st2, err := m.Submit(epsilonReq(2))
	if err != nil {
		t.Fatalf("Submit after failure: %v", err)
	}
	if fin2 := waitTerminal(t, m, st2.ID); fin2.State != api.JobDone {
		t.Fatalf("follow-up job ended %s, want done", fin2.State)
	}
}

// TestQueueBackpressure: with one runner wedged, QueueDepth bounds
// admissions and the overflow submission gets ErrQueueFull without leaving
// any state behind; a queued job can be cancelled before it ever runs.
// Neither job has a trace until a run of it finishes.
func TestQueueBackpressure(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.QueueDepth = 1
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	cfg.beforeRun = func(id string) {
		once.Do(func() { close(started) })
		<-release
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)

	running, err := m.Submit(epsilonReq(2))
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	<-started // job 1 occupies the runner, not the queue
	queued, err := m.Submit(epsilonReq(2))
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	_, err = m.Submit(epsilonReq(2))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit 3 = %v, want ErrQueueFull", err)
	}
	if got := len(m.List()); got != 2 {
		t.Errorf("rejected job leaked into the list (len %d, want 2)", got)
	}

	st, err := m.Cancel(queued.ID)
	if err != nil || st.State != api.JobCancelled {
		t.Fatalf("cancel queued = %+v, %v; want cancelled", st.State, err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if _, err := m.TracePath(id); !errors.Is(err, ErrNotReady) || !strings.Contains(err.Error(), "no run of it has finished") {
			t.Errorf("TracePath(%s) before any run finished = %v, want ErrNotReady saying so", id, err)
		}
	}
	close(release)
	if fin := waitTerminal(t, m, running.ID); fin.State != api.JobDone {
		t.Fatalf("job 1 ended %s, want done", fin.State)
	}
	if _, err := m.TracePath(running.ID); err != nil {
		t.Errorf("TracePath after the run: %v", err)
	}
	// The cancelled job must stay cancelled — the runner discards it.
	waitFor(t, 5*time.Second, "queue to drain", func() bool {
		s := m.Stats()
		return s.Queued == 0 && s.Running == 0
	})
	if st, _ := m.Status(queued.ID); st.State != api.JobCancelled {
		t.Errorf("queued-then-cancelled job ended %s", st.State)
	}
}

// TestCancelRunningStreamsPrefix: cancelling mid-run finalizes as cancelled
// and the committed stream is an exact byte prefix of the uninterrupted
// run's — the guarantee that makes streaming results before completion
// sound.
func TestCancelRunningStreamsPrefix(t *testing.T) {
	_, full := runToCompletion(t, censusReq(4))

	dir := t.TempDir()
	cfg := testConfig(dir)
	atChunk := make(chan struct{})
	cancelled := make(chan struct{})
	var once sync.Once
	cfg.afterChunk = func(id string, chunk int) error {
		if chunk == 5 {
			once.Do(func() { close(atChunk) })
			<-cancelled
		}
		return nil
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(censusReq(4))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-atChunk
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	close(cancelled)
	fin := waitTerminal(t, m, st.ID)
	if fin.State != api.JobCancelled {
		t.Fatalf("job ended %s, want cancelled", fin.State)
	}
	got := resultsBytes(t, dir, st.ID)
	info, err := m.Results(st.ID)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if info.Committed > int64(len(got)) {
		t.Fatalf("committed %d exceeds file size %d", info.Committed, len(got))
	}
	committed := got[:info.Committed]
	if len(committed) == 0 || len(committed) >= len(full) {
		t.Fatalf("committed %d bytes, want a proper prefix of %d", len(committed), len(full))
	}
	if !bytes.Equal(committed, full[:len(committed)]) {
		t.Fatal("committed bytes are not a prefix of the uninterrupted stream")
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := Open(testConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	bad := []api.JobSubmitRequest{
		{Kind: "nonsense"},
		{Kind: api.JobCensus}, // missing params
		{Kind: api.JobCensus, Census: &api.CensusParams{MaxN: 0}},     // under range
		{Kind: api.JobCensus, Census: &api.CensusParams{MaxN: 99}},    // over range
		{Kind: api.JobEpsilon, Epsilon: &api.EpsilonParams{MaxN: -1}}, // negative
		{Kind: api.JobPlanSweep, PlanSweep: &api.PlanSweepParams{Dims: 0, MaxAxis: 4, MaxNodes: 64}},
		{Kind: api.JobPlanSweep, PlanSweep: &api.PlanSweepParams{Dims: 3, MaxAxis: 4096, MaxNodes: 64}},
		{Kind: api.JobPlanSweep, PlanSweep: &api.PlanSweepParams{Dims: 3, MaxAxis: 4, MaxNodes: 0}},
	}
	for i, req := range bad {
		if _, err := m.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("bad request %d: got %v, want ErrBadRequest", i, err)
		}
	}
	if got := len(m.List()); got != 0 {
		t.Errorf("rejected submissions leaked %d jobs into the list", got)
	}
	if _, err := m.Status("j-nope-000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Status(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("j-nope-000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := m.Results("j-nope-000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Results(unknown) = %v, want ErrNotFound", err)
	}
}

// TestConcurrentSubmitCancelWatch hammers the manager from many goroutines
// at once — submits, status polls, lists, cancels and stats — and is the
// test the -race run leans on.
func TestConcurrentSubmitCancelWatch(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.QueueDepth = 64
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)

	const submitters, perSubmitter = 4, 4
	ids := make(chan string, submitters*perSubmitter)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				st, err := m.Submit(epsilonReq(3))
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				ids <- st.ID
				if (g+i)%2 == 0 {
					if _, err := m.Cancel(st.ID); err != nil {
						t.Errorf("Cancel: %v", err)
					}
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var watchers sync.WaitGroup
	for w := 0; w < 3; w++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, st := range m.List() {
						if _, err := m.Status(st.ID); err != nil {
							t.Errorf("Status: %v", err)
							return
						}
					}
					m.Stats()
				}
			}
		}()
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		st := waitTerminal(t, m, id)
		if st.State != api.JobDone && st.State != api.JobCancelled {
			t.Errorf("job %s ended %s", id, st.State)
		}
	}
	close(stop)
	watchers.Wait()
	if got := len(m.List()); got != submitters*perSubmitter {
		t.Errorf("List has %d jobs, want %d", got, submitters*perSubmitter)
	}
}

// TestSubmitAfterCloseRejected pins the ErrClosed path.
func TestSubmitAfterCloseRejected(t *testing.T) {
	m, err := Open(testConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	closeManager(t, m)
	if _, err := m.Submit(epsilonReq(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestReopenedManagerMintsFreshIDs reopens a data dir in the same process,
// where job IDs share one obs.IDPrefix: the next submission must not reuse
// the restored job's ID, and both jobs must stay listed.
func TestReopenedManagerMintsFreshIDs(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	first, err := m1.Submit(epsilonReq(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, m1, first.ID)
	closeManager(t, m1)

	m2, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer closeManager(t, m2)
	second, err := m2.Submit(epsilonReq(2))
	if err != nil {
		t.Fatalf("Submit after reopen: %v", err)
	}
	if second.ID == first.ID {
		t.Fatalf("reopened manager reused job ID %s", first.ID)
	}
	waitTerminal(t, m2, second.ID)
	if st, err := m2.Status(first.ID); err != nil || st.State != api.JobDone {
		t.Fatalf("restored job %s: %+v, %v", first.ID, st, err)
	}
	if n := len(m2.List()); n != 2 {
		t.Fatalf("List has %d jobs, want 2", n)
	}
}
