package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/pkg/api"
)

// loopbackExec is the worker entry point the in-process tests dispatch to:
// exactly what a remote embedserver's POST /v1/internal/chunks runs, minus
// the HTTP transport, which keeps byte-identity and kill-resume tests
// hermetic.
func loopbackExec(ctx context.Context, req api.ChunkRequest) (*api.ChunkResult, error) {
	return ExecuteChunk(ctx, req, 1, nil)
}

// distPool builds a pool of n in-process "remote" workers (no local
// fallback), health loop off.
func distPool(t *testing.T, n int) *fabric.Pool {
	t.Helper()
	p := fabric.NewPool(fabric.Config{
		Dial:        func(addr string) fabric.Transport { return fabric.Loopback(loopbackExec) },
		HealthEvery: -1,
	})
	t.Cleanup(p.Close)
	for i := 0; i < n; i++ {
		if err := p.Add(fmt.Sprintf("worker-%d", i+1)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return p
}

func distributed(req api.JobSubmitRequest) api.JobSubmitRequest {
	req.Distributed = true
	return req
}

// runDistributed runs one distributed job across n in-process workers and
// returns its final status, result stream, and data dir.
func runDistributed(t *testing.T, req api.JobSubmitRequest, n int) (api.JobStatus, []byte, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Fabric = distPool(t, n)
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(distributed(req))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitTerminal(t, m, st.ID)
	if st.State != api.JobDone {
		t.Fatalf("distributed job ended %s (error %q), want done", st.State, st.Error)
	}
	return st, resultsBytes(t, dir, st.ID), dir
}

// TestDistributedByteIdentical is the fabric's core guarantee: for every
// job kind, the result stream of a distributed run — one worker or three —
// is byte-for-byte the single-node stream.  For plancensus the artifact
// file must match too (the coordinator replays shipped plan entries through
// its own builder, which owns the string cursor).
func TestDistributedByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		req  api.JobSubmitRequest
	}{
		{"census", censusReq(4)},
		{"epsilon", epsilonReq(4)},
		{"plansweep", plansweepReq()},
		{"plancensus", plancensusReq(3, 6, "")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, want := runToCompletion(t, tc.req)
			var wantArt []byte
			if tc.req.Kind == api.JobPlanCensus {
				// Re-run to grab the artifact (runToCompletion closes its
				// manager; artifact path needs a live one).
				dir := t.TempDir()
				m, err := Open(testConfig(dir))
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				st, err := m.Submit(tc.req)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				if st = waitTerminal(t, m, st.ID); st.State != api.JobDone {
					t.Fatalf("job ended %s", st.State)
				}
				wantArt = artifactBytes(t, m, st.ID)
				closeManager(t, m)
			}
			for _, peers := range []int{1, 3} {
				st, got, dir := runDistributed(t, tc.req, peers)
				if !bytes.Equal(got, want) {
					t.Fatalf("%d-peer stream differs from single-node (%d vs %d bytes)",
						peers, len(got), len(want))
				}
				if wantArt != nil {
					gotArt, err := os.ReadFile(filepath.Join(dir, st.ID, ArtifactFile))
					if err != nil {
						t.Fatalf("reading artifact: %v", err)
					}
					if !bytes.Equal(gotArt, wantArt) {
						t.Fatalf("%d-peer artifact differs from single-node (%d vs %d bytes)",
							peers, len(gotArt), len(wantArt))
					}
				}
			}
		})
	}
}

// dyingTransport executes chunks in-process but fails permanently after its
// kill count — the hermetic stand-in for a worker killed mid-run.
type dyingTransport struct {
	mu      sync.Mutex
	calls   int
	killAt  int
	started chan<- int // receives each call number before executing
}

func (d *dyingTransport) Execute(ctx context.Context, req api.ChunkRequest) (*api.ChunkResult, error) {
	d.mu.Lock()
	d.calls++
	call := d.calls
	d.mu.Unlock()
	if d.started != nil {
		select {
		case d.started <- call:
		default:
		}
	}
	if call > d.killAt {
		return nil, errors.New("connection reset by peer")
	}
	return loopbackExec(ctx, req)
}

func (d *dyingTransport) Healthy(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.calls > d.killAt {
		return errors.New("connection refused")
	}
	return nil
}

// TestDistributedWorkerLossFoldedOnce kills one of two workers mid-run: its
// in-flight chunks requeue to the survivor, every chunk folds exactly once,
// and the stream still matches single-node byte for byte.
func TestDistributedWorkerLossFoldedOnce(t *testing.T) {
	_, want := runToCompletion(t, censusReq(4))

	// Die after the first call: the initial launch wave always hands this
	// peer InFlightPerPeer (=2) chunks before any completion comes back, so
	// at least one execution fails and requeues regardless of timing.
	dying := &dyingTransport{killAt: 1}
	pool := fabric.NewPool(fabric.Config{
		Dial: func(addr string) fabric.Transport {
			if addr == "dying" {
				return dying
			}
			return fabric.Loopback(loopbackExec)
		},
		HealthEvery: -1,
	})
	t.Cleanup(pool.Close)
	for _, addr := range []string{"dying", "survivor"} {
		if err := pool.Add(addr); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}

	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Fabric = pool
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(distributed(censusReq(4)))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st = waitTerminal(t, m, st.ID); st.State != api.JobDone {
		t.Fatalf("job ended %s (error %q), want done", st.State, st.Error)
	}
	if got := resultsBytes(t, dir, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("stream after worker loss differs from single-node (%d vs %d bytes)", len(got), len(want))
	}
	if stats := pool.Stats(); stats.Requeued == 0 {
		t.Error("worker death produced no requeues")
	} else if stats.Folded != uint64(st.Progress.ChunksTotal) {
		t.Errorf("pool folded %d chunks, want %d (each exactly once)", stats.Folded, st.Progress.ChunksTotal)
	}
}

// TestDistributedFoldRefusesForeignRecords: a peer whose chunk-3 result
// carries records that are not chunk 3's fails the job at that chunk
// instead of committing them to the stream, the status and the summary.
func TestDistributedFoldRefusesForeignRecords(t *testing.T) {
	census := func(edit func(bs []api.CensusBucket) []api.CensusBucket) func(*api.ChunkResult) {
		return func(res *api.ChunkResult) { res.Census.Buckets = edit(res.Census.Buckets) }
	}
	for _, tc := range []struct {
		req  api.JobSubmitRequest
		name string
		edit func(res *api.ChunkResult)
	}{
		{plansweepReq(), "dropped", func(res *api.ChunkResult) { res.PlanSweep = res.PlanSweep[1:] }},
		{plansweepReq(), "repeated", func(res *api.ChunkResult) { res.PlanSweep[1] = res.PlanSweep[0] }},
		{plansweepReq(), "swapped", func(res *api.ChunkResult) {
			res.PlanSweep[0], res.PlanSweep[1] = res.PlanSweep[1], res.PlanSweep[0]
		}},
		{plansweepReq(), "retyped", func(res *api.ChunkResult) { res.PlanSweep[0].Type = api.RecordCensusShard }},
		{plansweepReq(), "other_family", func(res *api.ChunkResult) { res.PlanSweep[0].Family = "torus" }},
		{censusReq(4), "wrong_a", func(res *api.ChunkResult) { res.Census.A = 5 }},
		{censusReq(4), "repeated_bucket", census(func(bs []api.CensusBucket) []api.CensusBucket {
			return append(bs[:1], bs...)
		})},
		{censusReq(4), "bucket_out_of_range", census(func(bs []api.CensusBucket) []api.CensusBucket {
			return append(bs, api.CensusBucket{N: 5, Count: [5]uint64{1}, Eps2: 1, Total: 1})
		})},
		{censusReq(4), "total_above_domain", census(func(bs []api.CensusBucket) []api.CensusBucket {
			b := &bs[len(bs)-1]
			extra := 1<<uint(3*b.N) + 1 - b.Total
			b.Count[1] += extra
			b.Eps2 += extra
			b.Total += extra
			return bs
		})},
		{epsilonReq(4), "wrong_n", func(res *api.ChunkResult) { res.Epsilon.N = 3 }},
	} {
		t.Run(string(tc.req.Kind)+"/"+tc.name, func(t *testing.T) {
			pool := fabric.NewPool(fabric.Config{
				Dial: func(string) fabric.Transport {
					return fabric.Loopback(func(ctx context.Context, cr api.ChunkRequest) (*api.ChunkResult, error) {
						res, err := loopbackExec(ctx, cr)
						if err == nil && cr.Chunk == 3 {
							tc.edit(res)
						}
						return res, err
					})
				},
				HealthEvery: -1,
			})
			t.Cleanup(pool.Close)
			if err := pool.Add("foreign"); err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(t.TempDir())
			cfg.Fabric = pool
			m, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer closeManager(t, m)
			st, err := m.Submit(distributed(tc.req))
			if err != nil {
				t.Fatal(err)
			}
			if st = waitTerminal(t, m, st.ID); st.State != api.JobFailed || !regexp.MustCompile(`\bchunk 3\b`).MatchString(st.Error) {
				t.Fatalf("job ended %s (error %q), want failed at chunk 3", st.State, st.Error)
			}
		})
	}
}

// TestDistributedAbandonResumeByteIdentical is the coordinator-kill test:
// abandon a distributed run mid-job with no warning (stale checkpoint, the
// stream runs past it), reopen the manager with a fresh pool, and the
// resumed distributed job must produce the uninterrupted single-node bytes.
func TestDistributedAbandonResumeByteIdentical(t *testing.T) {
	_, want := runToCompletion(t, censusReq(4))

	dir := t.TempDir()
	abandoned := make(chan struct{})
	cfg := testConfig(dir)
	cfg.Fabric = distPool(t, 2)
	cfg.afterChunk = func(id string, chunk int) error {
		if chunk == 7 {
			close(abandoned)
			return errAbandoned
		}
		return nil
	}
	m1, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := m1.Submit(distributed(censusReq(4)))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-abandoned
	closeManager(t, m1)

	cfg2 := testConfig(dir)
	cfg2.Fabric = distPool(t, 3)
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
	if got := resultsBytes(t, dir, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("resumed distributed stream differs from single-node (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDistributedResumeWithoutFabricFallsBack: a distributed job
// interrupted on a fabric-enabled server must still resume — locally,
// byte-identically — on a server restarted without a pool.
func TestDistributedResumeWithoutFabricFallsBack(t *testing.T) {
	_, want := runToCompletion(t, censusReq(4))

	dir := t.TempDir()
	abandoned := make(chan struct{})
	cfg := testConfig(dir)
	cfg.Fabric = distPool(t, 2)
	cfg.afterChunk = func(id string, chunk int) error {
		if chunk == 6 {
			close(abandoned)
			return errAbandoned
		}
		return nil
	}
	m1, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := m1.Submit(distributed(censusReq(4)))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-abandoned
	closeManager(t, m1)

	m2, err := Open(testConfig(dir)) // no Fabric: local chunk loop
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer closeManager(t, m2)
	fin := waitTerminal(t, m2, st.ID)
	if fin.State != api.JobDone {
		t.Fatalf("resumed job ended %s (error %q)", fin.State, fin.Error)
	}
	if got := resultsBytes(t, dir, st.ID); !bytes.Equal(got, want) {
		t.Fatal("local resume of a distributed job differs from single-node")
	}
}

// collectSpans walks a span tree pre-order, appending every span to out.
func collectSpans(t *obs.SpanJSON, out *[]*obs.SpanJSON) {
	if t == nil {
		return
	}
	*out = append(*out, t)
	for _, c := range t.Children {
		collectSpans(c, out)
	}
}

// TestDistributedTraceStitched is the cross-node trace guarantee: a 3-peer
// distributed run (one peer dying mid-run, forcing a requeue) writes ONE
// trace tree in which every chunk has a coordinator dispatch span with the
// worker's execution subtree stitched under it, every chunk has exactly one
// fold span, and the failed attempt is visible as an extra dispatch span
// with an error attr and no worker subtree — the requeue gap.
func TestDistributedTraceStitched(t *testing.T) {

	dying := &dyingTransport{killAt: 1}
	pool := fabric.NewPool(fabric.Config{
		Dial: func(addr string) fabric.Transport {
			if addr == "dying" {
				return dying
			}
			return fabric.Loopback(loopbackExec)
		},
		HealthEvery: -1,
	})
	t.Cleanup(pool.Close)
	for _, addr := range []string{"dying", "worker-2", "worker-3"} {
		if err := pool.Add(addr); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}

	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Fabric = pool
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(distributed(censusReq(4)))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st = waitTerminal(t, m, st.ID); st.State != api.JobDone {
		t.Fatalf("job ended %s (error %q), want done", st.State, st.Error)
	}
	if pool.Stats().Requeued == 0 {
		t.Fatal("dying peer produced no requeue; the gap the test exists for never happened")
	}

	path, err := m.TracePath(st.ID)
	if err != nil {
		t.Fatalf("TracePath: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	var root obs.SpanJSON
	if err := json.Unmarshal(b, &root); err != nil {
		t.Fatalf("trace is not a span tree: %v", err)
	}
	if root.Name != "job" || root.TraceID == "" {
		t.Fatalf("root = %q (trace %q), want a job root with a trace ID", root.Name, root.TraceID)
	}

	var all []*obs.SpanJSON
	collectSpans(&root, &all)
	total := st.Progress.ChunksTotal
	var failedAttempts int
	for chunk := 0; chunk < total; chunk++ {
		dispatch, exec, fold := 0, 0, 0
		for _, s := range all {
			switch s.Name {
			case fmt.Sprintf("dispatch chunk %d", chunk):
				dispatch++
				for _, c := range s.Children {
					if c.Name == fmt.Sprintf("exec chunk %d", chunk) {
						exec++
						if c.TraceID != root.TraceID {
							t.Errorf("chunk %d: worker subtree trace %q != job trace %q", chunk, c.TraceID, root.TraceID)
						}
						if s.SpanID == "" || c.ParentSpanID != s.SpanID {
							t.Errorf("chunk %d: worker parent span %q != dispatch span %q", chunk, c.ParentSpanID, s.SpanID)
						}
					}
				}
				for _, a := range s.Attrs {
					if a.Key == "error" {
						failedAttempts++
					}
				}
			case fmt.Sprintf("fold chunk %d", chunk):
				fold++
			}
		}
		if dispatch == 0 {
			t.Errorf("chunk %d: no dispatch span", chunk)
		}
		if exec == 0 {
			t.Errorf("chunk %d: no stitched worker subtree", chunk)
		}
		if fold != 1 {
			t.Errorf("chunk %d: %d fold spans, want exactly 1", chunk, fold)
		}
	}
	if failedAttempts == 0 {
		t.Error("requeued chunk left no failed dispatch span (the trace gap is invisible)")
	}

	// The stitched tree must export as one Chrome trace with all three phases.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, &root); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	for _, phase := range []string{"dispatch chunk", "exec chunk", "fold chunk"} {
		if !bytes.Contains(buf.Bytes(), []byte(phase)) {
			t.Errorf("Chrome export missing %q events", phase)
		}
	}
}

// TestDistributedSubmitWithoutFabricRejected: "distributed": true on a
// server with no pool is a 400-class error, not a silent local run.
func TestDistributedSubmitWithoutFabricRejected(t *testing.T) {
	m, err := Open(testConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	if _, err := m.Submit(distributed(censusReq(3))); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Submit(distributed, no pool) = %v, want ErrBadRequest", err)
	}
}

// TestDistributedStatusShowsFabric: while a distributed job runs, its
// status carries the per-peer assignment block.
func TestDistributedStatusShowsFabric(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Fabric = distPool(t, 2)
	atChunk := make(chan string, 1)
	gate := make(chan struct{})
	var once sync.Once
	cfg.afterChunk = func(id string, chunk int) error {
		if chunk >= 2 {
			// Pause the fold loop mid-run so the main goroutine can observe
			// a running distributed job's status.
			once.Do(func() {
				atChunk <- id
				<-gate
			})
		}
		return nil
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(distributed(censusReq(4)))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := <-atChunk
	mid, err := m.Status(id)
	if err != nil {
		t.Fatalf("Status mid-run: %v", err)
	}
	if mid.Fabric == nil || len(mid.Fabric.Peers) == 0 {
		t.Errorf("running distributed job has no fabric block: %+v", mid)
	}
	close(gate)
	fin := waitTerminal(t, m, st.ID)
	if fin.State != api.JobDone {
		t.Fatalf("job ended %s (error %q)", fin.State, fin.Error)
	}
	if fin.Fabric != nil {
		t.Error("terminal status still carries a fabric block")
	}
}

// TestResumeRestartsFromDamagedState: a run that cannot trust its resume
// point — the results file lost bytes the checkpoint covers, or the
// checkpoint is not JSON — must warn and regenerate from chunk 0, ending
// with the uninterrupted single-node bytes, on either chunk source.
// Truncating "up" to the checkpoint offset would instead zero-extend the
// file and serve NUL bytes as rows.  Before the run starts, the reopened
// job must not advertise more committed bytes than the file holds: a
// reader following the stream would read past them into the rerun.
func TestResumeRestartsFromDamagedState(t *testing.T) {
	_, want := runToCompletion(t, censusReq(4))
	damages := []struct {
		name string
		tear func(t *testing.T, jobDir string)
	}{
		{"results truncated below offset", func(t *testing.T, jobDir string) {
			ck, err := readCheckpoint(jobDir)
			if err != nil || ck == nil || ck.Offset == 0 {
				t.Fatalf("no checkpoint with committed bytes to tear: %+v, %v", ck, err)
			}
			if err := os.Truncate(filepath.Join(jobDir, resultsFile), ck.Offset/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"checkpoint not JSON", func(t *testing.T, jobDir string) {
			if err := os.WriteFile(filepath.Join(jobDir, checkpointFile), []byte("{\"next_chunk\": 6,"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, source := range []string{"local", "distributed"} {
		for _, dmg := range damages {
			t.Run(source+"/"+dmg.name, func(t *testing.T) {
				dir := t.TempDir()
				req := censusReq(4)
				cfg := testConfig(dir)
				if source == "distributed" {
					req = distributed(req)
					cfg.Fabric = distPool(t, 2)
				}
				abandoned := make(chan struct{})
				cfg.afterChunk = func(id string, chunk int) error {
					if chunk == 7 {
						close(abandoned)
						return errAbandoned
					}
					return nil
				}
				m1, err := Open(cfg)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				st, err := m1.Submit(req)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				<-abandoned
				closeManager(t, m1)
				dmg.tear(t, filepath.Join(dir, st.ID))

				var logs bytes.Buffer
				cfg2 := testConfig(dir)
				cfg2.Logger = slog.New(slog.NewTextHandler(&logs, nil))
				if source == "distributed" {
					cfg2.Fabric = distPool(t, 2)
				}
				held, release := make(chan struct{}), make(chan struct{})
				cfg2.beforeRun = func(string) {
					close(held)
					<-release
				}
				m2, err := Open(cfg2)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				<-held
				fi, err := os.Stat(filepath.Join(dir, st.ID, resultsFile))
				if err != nil {
					t.Fatal(err)
				}
				ri, err := m2.Results(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if rs, _ := m2.Status(st.ID); ri.Committed > fi.Size() || rs.Progress.ResultBytes > fi.Size() {
					t.Errorf("reopened job advertises %d committed bytes (status %d) over a %d-byte results file",
						ri.Committed, rs.Progress.ResultBytes, fi.Size())
				}
				close(release)
				fin := waitTerminal(t, m2, st.ID)
				closeManager(t, m2)
				if fin.State != api.JobDone {
					t.Fatalf("resumed job ended %s (error %q)", fin.State, fin.Error)
				}
				if got := resultsBytes(t, dir, st.ID); !bytes.Equal(got, want) {
					t.Fatalf("resumed stream differs from single-node (%d vs %d bytes, %d NULs)",
						len(got), len(want), bytes.Count(got, []byte{0}))
				}
				if !strings.Contains(logs.String(), "restarting job from scratch") {
					t.Errorf("no restart warning logged:\n%s", logs.String())
				}
			})
		}
	}
}

// TestResumeAcrossAlternatingSources: one job's checkpoints are written by
// the fabric, then the local loop, then resumed by the fabric again — each
// leg abandoned mid-run — and the stream is still the single-node bytes.
func TestResumeAcrossAlternatingSources(t *testing.T) {
	_, want := runToCompletion(t, censusReq(4))

	dir := t.TempDir()
	// leg opens a manager over dir with pool (nil: the local loop) and, when
	// abandonAt >= 0, abandons the run after that chunk.
	leg := func(pool *fabric.Pool, abandonAt int) (*Manager, <-chan struct{}) {
		t.Helper()
		abandoned := make(chan struct{})
		cfg := testConfig(dir)
		cfg.Fabric = pool
		cfg.afterChunk = func(id string, chunk int) error {
			if chunk == abandonAt {
				close(abandoned)
				return errAbandoned
			}
			return nil
		}
		m, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return m, abandoned
	}

	m1, abandoned := leg(distPool(t, 2), 4)
	st, err := m1.Submit(distributed(censusReq(4)))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-abandoned
	closeManager(t, m1)
	// Checkpoints of fabric runs used to carry an "owners" map of in-flight
	// chunks; one written that way must still load and resume.
	ckPath := filepath.Join(dir, st.ID, checkpointFile)
	var ck map[string]json.RawMessage
	if raw, err := os.ReadFile(ckPath); err != nil || json.Unmarshal(raw, &ck) != nil {
		t.Fatalf("reading the fabric leg's checkpoint: %v", err)
	}
	ck["owners"] = json.RawMessage(`{"3":"worker-1","4":"worker-2"}`)
	if err := writeJSONAtomic(ckPath, ck); err != nil {
		t.Fatal(err)
	}

	m2, abandoned := leg(nil, 10)
	<-abandoned
	closeManager(t, m2)
	if got := m2.Stats().ChunksDone; got != 8 {
		t.Fatalf("local leg committed %d chunks, want 8 (chunks 3..10, resumed from the fabric leg's checkpoint)", got)
	}
	if ck, err := readCheckpoint(filepath.Join(dir, st.ID)); err != nil || ck == nil || ck.NextChunk != 9 {
		t.Fatalf("local leg left checkpoint %+v (%v), want next_chunk 9", ck, err)
	}

	m3, _ := leg(distPool(t, 3), -1)
	defer closeManager(t, m3)
	fin := waitTerminal(t, m3, st.ID)
	if fin.State != api.JobDone {
		t.Fatalf("job ended %s (error %q)", fin.State, fin.Error)
	}
	if fin.Resumed != 2 {
		t.Errorf("Resumed = %d, want 2", fin.Resumed)
	}
	if got := resultsBytes(t, dir, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("stream resumed across alternating sources differs from single-node (%d vs %d bytes)",
			len(got), len(want))
	}
}
