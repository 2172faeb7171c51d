package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // timed work to accumulate across rounds
	trace    bool          // add the traced in-process replay
	replay   time.Duration // time budget of each replay pass
	server   string        // embedserver binary
	outDir   string        // job data directories and the Chrome trace
	scale    float64       // op-count multiplier per round; tests shrink it
}

// setupBoots is the least number of servers a run boots and stops only to
// time them; setup_s is the median of their boot times.  Boot times drift
// within a second on a shared machine, so the boots are spread over the run
// in batches, one before each fixed round and one after them: on a 2-vCPU
// VM the median of 61 boots spread over 9 s varied by 1.9% (coefficient
// of variation), that of 61 back-to-back boots by 7.5%.
const setupBoots = 64

// tally accumulates rounds.
type tally struct {
	rounds    int
	timed     time.Duration // Σ timed-phase wall time
	lat       []time.Duration
	attempted int
	failed    int
	failures  []string  // the first few failure messages
	rates     []float64 // shapes answered per timed second, per round
	answers   int       // answers carrying a dilation verdict
	good      int       // of those, dilation ≤ 2 at the minimal cube
	rssMB     []float64 // peak RSS of each round's server
	cpu       time.Duration
	prom      map[string]float64 // /metrics deltas summed over the timed phases
	entries   float64            // Σ plan-cache entries at the end of each round
	serverT   time.Duration      // server-side time of the timed ops
	clientT   time.Duration      // client-observed time of the timed ops
	jobRows   int
	jobOpt    int
	jobWall   time.Duration // Σ server-side job run time (created → finished)
}

const maxFailures = 10

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// add folds round r into t.
func (t *tally) add(r *tally) {
	t.rounds += r.rounds
	t.timed += r.timed
	t.lat = append(t.lat, r.lat...)
	t.attempted += r.attempted
	t.failed += r.failed
	t.failures = append(t.failures, r.failures[:min(len(r.failures), maxFailures-len(t.failures))]...)
	t.rates = append(t.rates, r.rates...)
	t.answers += r.answers
	t.good += r.good
	t.rssMB = append(t.rssMB, r.rssMB...)
	t.cpu += r.cpu
	if t.prom == nil {
		t.prom = map[string]float64{}
	}
	for k, v := range r.prom {
		t.prom[k] += v
	}
	t.entries += r.entries
	t.serverT += r.serverT
	t.clientT += r.clientT
	t.jobRows += r.jobRows
	t.jobOpt += r.jobOpt
	t.jobWall += r.jobWall
}

// runStats is a run's measurements.
type runStats struct {
	boots []time.Duration // setup_s samples
	all   tally           // every round
	// fixed holds the first fixedRounds rounds, which every run makes, so
	// its counts depend on the seed alone and not on how fast the server is.
	fixed tally

	// Round 0's inputs and warm answers, replayed by the traced run.
	firstOps []op
	warm     map[string]any
}

// run executes rounds until the workload's fixed rounds are done and the
// timed phases reach cfg.seconds, with a batch of setup boots before each
// fixed round and one after them.  A batch runs between rounds, when the
// previous round's server has been reaped and its answers checked, so no
// round's work overlaps it.
func run(ctx context.Context, cfg config) (*runStats, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	rs := &runStats{}
	batch := (setupBoots + w.fixedRounds) / (w.fixedRounds + 1) // rounded up
	for k := 0; k < w.fixedRounds || rs.all.timed < cfg.seconds; k++ {
		if k <= w.fixedRounds {
			if err := bootBatch(ctx, cfg, w, batch, rs); err != nil {
				return nil, err
			}
		}
		if err := runRound(ctx, cfg, w, k, rs); err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
	}
	for len(rs.boots) < setupBoots { // no round followed the fixed rounds
		if err := bootBatch(ctx, cfg, w, batch, rs); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// bootBatch times n setup boots.  It collects the benchmark's own garbage
// first, so that no collection runs during them.
func bootBatch(ctx context.Context, cfg config, w workload, n int, rs *runStats) error {
	runtime.GC()
	for range n {
		setup, err := bootOnce(ctx, cfg, w)
		if err != nil {
			return err
		}
		rs.boots = append(rs.boots, setup)
	}
	return nil
}

// bootOnce boots and stops one server with the workload's flags and returns
// its boot time.
func bootOnce(ctx context.Context, cfg config, w workload) (time.Duration, error) {
	dataDir, cleanup, err := jobDir(cfg, w)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	srv, err := startServer(ctx, cfg.server, dataDir)
	if err != nil {
		return 0, err
	}
	srv.stop()
	return srv.setup, nil
}

// jobDir makes a fresh -data-dir when the workload needs one.
func jobDir(cfg config, w workload) (dir string, cleanup func(), err error) {
	if !w.jobs {
		return "", func() {}, nil
	}
	if dir, err = os.MkdirTemp(cfg.outDir, "jobs-"); err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// outcome is one op's client-observed result.
type outcome struct {
	lat time.Duration // send until the reply is decoded
	res any           // *api.PlanResponse, *api.EmbedResponse, *api.CompareResponse or *jobResult
	err error
}

// jobResult is a plansweep job driven to completion.
type jobResult struct {
	status *api.JobStatus
	rows   []byte // the NDJSON result stream, fetched after the timed phase
}

func runRound(ctx context.Context, cfg config, w workload, k int, rs *runStats) error {
	ops := w.roundOps(cfg.seed, k, cfg.scale)
	dataDir, cleanup, err := jobDir(cfg, w)
	if err != nil {
		return err
	}
	defer cleanup()
	srv, err := startServer(ctx, cfg.server, dataDir)
	if err != nil {
		return err
	}
	defer srv.stop()

	clients := w.numClients()
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	c := client.New(srv.base, client.WithHTTPClient(hc), client.WithRetries(0))

	var warm map[string]any
	if cfg.workload == serveHot {
		if warm, err = warmPass(ctx, c, ops); err != nil {
			return err
		}
	}
	before, err := scrape(ctx, hc, srv.base)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	outs, elapsed := drive(ctx, c, ops, clients)
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	after, err := scrape(ctx, hc, srv.base)
	if err != nil {
		return err
	}
	rss, err := procPeakRSS(srv.pid())
	if err != nil {
		return err
	}
	for i := range outs {
		if jr, ok := outs[i].res.(*jobResult); ok {
			if jr.rows, err = fetchRows(ctx, c, jr.status.ID); err != nil {
				return err
			}
		}
	}
	srv.stop()

	t := &tally{rounds: 1, timed: elapsed, cpu: cpu1 - cpu0, rssMB: []float64{rss}, prom: promDelta(before, after)}
	t.entries = after["embedserver_plan_cache_entries"]
	for _, ep := range []string{"plan", "embed", "compare"} {
		t.serverT += seconds(t.prom[`embedserver_request_seconds_sum{endpoint="`+ep+`"}`])
	}
	shapes := checkRound(cfg, k, ops, outs, warm, t)
	t.rates = []float64{float64(shapes) / elapsed.Seconds()}
	rs.all.add(t)
	if k < w.fixedRounds {
		rs.fixed.add(t)
	}
	if k == 0 {
		rs.firstOps, rs.warm = ops, warm
	}
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmPass sends every distinct request body of the round once, in first-
// appearance order, and returns the answers keyed by op.key.  It fills the
// caches exactly as earlier traffic would have.
func warmPass(ctx context.Context, c *client.Client, ops []op) (map[string]any, error) {
	warm := make(map[string]any)
	for i := range ops {
		k := ops[i].key()
		if _, ok := warm[k]; ok {
			continue
		}
		res, err := execOp(ctx, c, &ops[i])
		if err != nil {
			return nil, fmt.Errorf("warm pass %s: %w", k, err)
		}
		warm[k] = res
	}
	return warm, nil
}

// drive replays ops in a closed loop: each client sends its next op only
// after the previous reply arrived.  Ops are taken in order from a shared
// cursor, so every round issues exactly its ops.
func drive(ctx context.Context, c *client.Client, ops []op, clients int) ([]outcome, time.Duration) {
	outs := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				t := time.Now()
				res, err := execOp(ctx, c, &ops[i])
				outs[i] = outcome{lat: time.Since(t), res: res, err: err}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// jobPoll is how often a sweep-job op polls its job's status.
const jobPoll = 10 * time.Millisecond

func execOp(ctx context.Context, c *client.Client, o *op) (any, error) {
	switch o.kind {
	case kindPlan:
		r, err := c.Plan(ctx, api.PlanRequest{Shape: o.shape.String(), Family: o.family})
		if err != nil {
			return nil, err
		}
		return r, nil
	case kindEmbed:
		r, err := c.Embed(ctx, api.EmbedRequest{Shape: o.shape.String(), Family: o.family, IncludeMap: o.includeMap})
		if err != nil {
			return nil, err
		}
		return r, nil
	case kindCompare:
		r, err := c.Compare(ctx, api.CompareRequest{Shape: o.shape.String(), Family: o.family})
		if err != nil {
			return nil, err
		}
		return r, nil
	default:
		st, err := c.SubmitJob(ctx, api.JobSubmitRequest{Kind: api.JobPlanSweep, PlanSweep: o.sweep})
		if err != nil {
			return nil, err
		}
		final, err := c.WatchJob(ctx, st.ID, jobPoll, nil)
		if err != nil {
			return nil, err
		}
		if final.State != api.JobDone {
			return nil, fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
		}
		return &jobResult{status: final}, nil
	}
}

func fetchRows(ctx context.Context, c *client.Client, id string) ([]byte, error) {
	rc, err := c.JobResults(ctx, id, 0)
	if err != nil {
		return nil, fmt.Errorf("job %s results: %w", id, err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		return nil, fmt.Errorf("job %s results: %w", id, err)
	}
	return b, nil
}
