package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"

	"repro/internal/artifact"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/pkg/api"
)

// Parameter bounds enforced at submission.  They keep a single job inside
// the paper's domain (censuses up to the 512×512×512 coverage sweep) and
// keep checkpoint aggregates small enough to rewrite every few chunks.
const (
	maxCensusN    = 9
	maxEpsilonN   = 9
	maxSweepDims  = 6
	maxSweepAxis  = 512
	maxSweepNodes = 1 << 22
)

// kindRunner is one job kind's execution engine.  Every chunk, local or on
// a fabric peer, takes one path: execute, then fold.  Chunks fold strictly
// in index order (parallelism lives inside a chunk), which is what makes
// the record stream and the running aggregate deterministic and therefore
// checkpointable.
type kindRunner interface {
	// chunks returns the fixed number of chunks.
	chunks() int
	// execute runs one chunk and returns its typed records (see
	// api.ChunkResult): census its shard record, epsilon its row,
	// plansweep its plan records (the sweep pool's result slots),
	// plancensus its position-independent plan entries.  execute never
	// reads or writes the running aggregate, so a fresh runner, a mid-job
	// runner and a peer all return the same records for a chunk.
	execute(ctx context.Context, chunk int) (*api.ChunkResult, error)
	// fold checks res's records against the chunk res.Chunk names,
	// tallies the running aggregate from them, appends the NDJSON bytes
	// the chunk commits to buf and returns its shape count.  A refusal
	// names the kind and the chunk.  It validates before it mutates: a
	// failed fold leaves the aggregate exactly as it was (buf holds
	// whatever it had appended, for the caller to discard), so the chunk
	// can be retried or resumed without double counting.
	fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error)
	// finish appends the final records (cumulative rows, summary) after the
	// last chunk; shapes is the job-wide shape count.
	finish(buf *bytes.Buffer, shapes uint64) error
	// snapshot and restore round-trip the running aggregate through a
	// checkpoint.  snapshot may return nil for stateless kinds.
	snapshot() (json.RawMessage, error)
	restore(agg json.RawMessage) error
}

// runnerCloser is implemented by runners holding resources (the plancensus
// artifact builder); the manager closes them when a run stops for any
// reason other than a clean finish.
type runnerCloser interface {
	close()
}

// buildRunner validates a submission and constructs its runner.  Validation
// failures wrap ErrBadRequest so the API layer can map them to 400s.  dir
// is the job's data directory — empty at submission time, when buildRunner
// runs for validation only, so runners must touch it lazily.
func buildRunner(req *api.JobSubmitRequest, workers int, planner *core.Planner, dir string) (kindRunner, error) {
	switch req.Kind {
	case api.JobCensus:
		p := req.Census
		if p == nil {
			return nil, fmt.Errorf("%w: kind %q requires the census parameter block", ErrBadRequest, req.Kind)
		}
		if p.MaxN < 1 || p.MaxN > maxCensusN {
			return nil, fmt.Errorf("%w: census max_n must be 1..%d, got %d", ErrBadRequest, maxCensusN, p.MaxN)
		}
		return &censusRunner{maxN: p.MaxN, workers: workers}, nil
	case api.JobEpsilon:
		p := req.Epsilon
		if p == nil {
			return nil, fmt.Errorf("%w: kind %q requires the epsilon parameter block", ErrBadRequest, req.Kind)
		}
		if p.MaxN < 1 || p.MaxN > maxEpsilonN {
			return nil, fmt.Errorf("%w: epsilon max_n must be 1..%d, got %d", ErrBadRequest, maxEpsilonN, p.MaxN)
		}
		return &epsilonRunner{maxN: p.MaxN, workers: workers}, nil
	case api.JobPlanSweep:
		p := req.PlanSweep
		if p == nil {
			return nil, fmt.Errorf("%w: kind %q requires the plansweep parameter block", ErrBadRequest, req.Kind)
		}
		if err := checkDomain(req.Kind, p.Dims, p.MaxAxis); err != nil {
			return nil, err
		}
		if p.MaxNodes < 1 || p.MaxNodes > maxSweepNodes {
			return nil, fmt.Errorf("%w: plansweep max_nodes must be 1..%d, got %d", ErrBadRequest, maxSweepNodes, p.MaxNodes)
		}
		fam, err := guest.ByName(p.Family)
		if err != nil {
			return nil, fmt.Errorf("%w: plansweep %v", ErrBadRequest, err)
		}
		return &plansweepRunner{
			params:  *p,
			family:  fam.Family,
			workers: workers,
			planner: planner,
			agg:     plansweepAgg{planTally: newPlanTally()},
		}, nil
	case api.JobPlanCensus:
		p := req.PlanCensus
		if p == nil {
			return nil, fmt.Errorf("%w: kind %q requires the plancensus parameter block", ErrBadRequest, req.Kind)
		}
		if err := checkDomain(req.Kind, p.Dims, p.MaxAxis); err != nil {
			return nil, err
		}
		if total := artifact.TotalRecords(p.Dims, p.MaxAxis); total > artifact.MaxRecords {
			return nil, fmt.Errorf("%w: plancensus dims=%d max_axis=%d spans %d records (cap %d)",
				ErrBadRequest, p.Dims, p.MaxAxis, total, artifact.MaxRecords)
		}
		fam, err := guest.ByName(p.Family)
		if err != nil {
			return nil, fmt.Errorf("%w: plancensus %v", ErrBadRequest, err)
		}
		if fam.Family != guest.Mesh && fam.Family != guest.Torus {
			return nil, fmt.Errorf("%w: plancensus covers the rank-indexable families mesh and torus, not %q",
				ErrBadRequest, fam.Family)
		}
		return &plancensusRunner{
			params:  *p,
			family:  fam.Family,
			workers: workers,
			planner: planner,
			dir:     dir,
			agg:     plancensusAgg{planTally: newPlanTally()},
		}, nil
	default:
		return nil, fmt.Errorf("%w: unknown job kind %q", ErrBadRequest, req.Kind)
	}
}

// checkDomain validates the shape domain plansweep and plancensus share:
// dims axes, each at most maxAxis long.  The messages name the kind.
func checkDomain(kind api.JobKind, dims, maxAxis int) error {
	if dims < 1 || dims > maxSweepDims {
		return fmt.Errorf("%w: %s dims must be 1..%d, got %d", ErrBadRequest, kind, maxSweepDims, dims)
	}
	if maxAxis < 1 || maxAxis > maxSweepAxis {
		return fmt.Errorf("%w: %s max_axis must be 1..%d, got %d", ErrBadRequest, kind, maxSweepAxis, maxAxis)
	}
	return nil
}

// writeRecord appends one NDJSON line: the json.Marshal bytes of v and a
// newline, encoded straight into buf.
func writeRecord(buf *bytes.Buffer, v any) error {
	return json.NewEncoder(buf).Encode(v)
}

// censusRunner runs the Figure 2 coverage census.  One chunk per first axis
// a = 1..2^maxN; the aggregate is the per-bucket integer tally the
// cumulative rows are rendered from.
type censusRunner struct {
	maxN    int
	workers int
	agg     []stats.CensusTally
}

func (r *censusRunner) chunks() int { return 1 << uint(r.maxN) }

func (r *censusRunner) execute(ctx context.Context, chunk int) (*api.ChunkResult, error) {
	a := chunk + 1
	part, err := stats.CensusShard(ctx, a, r.maxN, r.workers)
	if err != nil {
		return nil, err
	}
	rec := &api.CensusShardRecord{Type: api.RecordCensusShard, A: a}
	for n, t := range part {
		if t.Total != 0 {
			rec.Buckets = append(rec.Buckets, api.CensusBucket{N: n, Count: t.Count, Eps2: t.Eps2, Total: t.Total})
		}
	}
	return &api.ChunkResult{Census: rec}, nil
}

func (r *censusRunner) fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error) {
	part, shapes, err := r.shard(res.Chunk+1, res.Census)
	if err != nil {
		return 0, fmt.Errorf("jobs: census chunk %d: %w", res.Chunk, err)
	}
	if err := writeRecord(buf, res.Census); err != nil {
		return 0, err
	}
	// Element-wise integer addition of the chunk's tally — associative, so
	// folding chunks in index order equals the sequential aggregate exactly.
	r.agg = stats.MergeCensusTallies(r.agg, part)
	return shapes, nil
}

// shard checks that rec is the census shard of first axis a and returns its
// tally, indexed by bucket, and its shape count.  Each bucket must be a
// nonempty slice of its domain: buckets strictly ascending in 1..maxN, a
// positive total of at most the 8^n ordered triples of the 2^n domain,
// method counts summing to it and eps2 within it.  Those bounds keep a run
// of chunks from wrapping the running tally.
func (r *censusRunner) shard(a int, rec *api.CensusShardRecord) ([]stats.CensusTally, uint64, error) {
	if rec == nil || rec.Type != api.RecordCensusShard || rec.A != a || len(rec.Buckets) == 0 {
		return nil, 0, fmt.Errorf("no %s record with buckets for a=%d", api.RecordCensusShard, a)
	}
	part := make([]stats.CensusTally, r.maxN+1)
	var shapes uint64
	prev := 0
	for _, b := range rec.Buckets {
		if b.N <= prev || b.N > r.maxN {
			return nil, 0, fmt.Errorf("bucket n=%d after n=%d, want ascending in 1..%d", b.N, prev, r.maxN)
		}
		prev = b.N
		if b.Total == 0 || b.Total > 1<<uint(3*b.N) || b.Eps2 > b.Total {
			return nil, 0, fmt.Errorf("bucket n=%d totals %d with eps2 %d, want 1..8^%d and eps2 at most the total",
				b.N, b.Total, b.Eps2, b.N)
		}
		var sum uint64
		for _, c := range b.Count {
			sum += min(c, b.Total+1) // a count above the total cannot wrap the sum
		}
		if sum != b.Total {
			return nil, 0, fmt.Errorf("bucket n=%d counts %v, which do not sum to its total %d", b.N, b.Count, b.Total)
		}
		part[b.N] = stats.CensusTally{Count: b.Count, Eps2: b.Eps2, Total: b.Total}
		shapes += b.Total
	}
	return part, shapes, nil
}

// decodeExact decodes a checkpoint's running aggregate of any kind into v.
// It accepts b only when it is json.Marshal's encoding of what it decoded,
// up to insignificant whitespace, so a missing, unknown, reordered or
// miscased key is refused instead of read as zero.
func decodeExact(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return err
	}
	want, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := json.Compact(&got, b); err != nil || !bytes.Equal(got.Bytes(), want) {
		return errors.New("not in the aggregate encoding")
	}
	return nil
}

func (r *censusRunner) finish(buf *bytes.Buffer, shapes uint64) error {
	rows := stats.CensusRows(r.maxN, r.agg)
	for _, row := range rows {
		rec := api.CensusRowRecord{
			Type: api.RecordCensusRow, N: row.N, S: row.S, S4Eps2: row.S4Eps2,
			Total: row.Total, Exceptions: row.Exceptions,
			// The method-1 stratum is exactly the Gray-minimal shapes,
			// whose plans achieve dilation 1 — the unconditional floor —
			// so S[0] is the certified-dilation-optimal percentage.
			CertOptimalPct: row.S[0],
		}
		if err := writeRecord(buf, rec); err != nil {
			return err
		}
	}
	return writeRecord(buf, api.SummaryRecord{
		Type: api.RecordSummary, Schema: api.JobSchemaVersion, Kind: api.JobCensus,
		Chunks: r.chunks(), Shapes: shapes, Exceptions: rows[len(rows)-1].Exceptions,
	})
}

func (r *censusRunner) snapshot() (json.RawMessage, error) { return json.Marshal(r.agg) }

func (r *censusRunner) restore(agg json.RawMessage) error {
	var t []stats.CensusTally
	if err := decodeExact(agg, &t); err != nil {
		return fmt.Errorf("jobs: census checkpoint: %w", err)
	}
	if len(t) != r.maxN+1 {
		return fmt.Errorf("jobs: census checkpoint: %d buckets, want %d", len(t), r.maxN+1)
	}
	r.agg = t
	return nil
}

// epsilonRunner runs the ε-distribution table, one chunk (and one record)
// per domain exponent.  Rows are independent, so there is no aggregate.
type epsilonRunner struct {
	maxN    int
	workers int
}

func (r *epsilonRunner) chunks() int { return r.maxN }

func (r *epsilonRunner) execute(ctx context.Context, chunk int) (*api.ChunkResult, error) {
	n := chunk + 1
	d, err := stats.Figure2EpsilonCtx(ctx, n, r.workers)
	if err != nil {
		return nil, err
	}
	return &api.ChunkResult{Epsilon: &api.EpsilonRowRecord{
		Type: api.RecordEpsilonRow, N: n,
		Eps1: d.Eps1, Eps2: d.Eps2, Eps4: d.Eps4, EpsWorse: d.EpsWorse,
	}}, nil
}

// fold for epsilon renders the chunk's row: rows are independent, there is
// no aggregate.  The chunk's domain fixes its count, the 8^n ordered
// triples of the 2^n domain.
func (r *epsilonRunner) fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error) {
	n := res.Chunk + 1
	if rec := res.Epsilon; rec == nil || rec.Type != api.RecordEpsilonRow || rec.N != n {
		return 0, fmt.Errorf("jobs: epsilon chunk %d: no %s record for n=%d", res.Chunk, api.RecordEpsilonRow, n)
	}
	if err := writeRecord(buf, res.Epsilon); err != nil {
		return 0, err
	}
	return uint64(1) << uint(3*n), nil
}

func (r *epsilonRunner) finish(buf *bytes.Buffer, shapes uint64) error {
	return writeRecord(buf, api.SummaryRecord{
		Type: api.RecordSummary, Schema: api.JobSchemaVersion, Kind: api.JobEpsilon,
		Chunks: r.maxN, Shapes: shapes,
	})
}

func (r *epsilonRunner) snapshot() (json.RawMessage, error) { return nil, nil }
func (r *epsilonRunner) restore(json.RawMessage) error      { return nil }

// planTally is the aggregate plansweep and plancensus share: the dilation
// histogram and the minimal-cube count of the summary line.  Both kinds
// embed it in their aggregate, so its keys keep their place in the
// checkpoint JSON.
type planTally struct {
	Hist    map[string]uint64 `json:"hist"`
	Minimal uint64            `json:"minimal"`
}

func newPlanTally() planTally { return planTally{Hist: map[string]uint64{}} }

// add counts one plan by its dilation bound (-1, keyed "unknown", when it
// has none) and whether it reaches the minimal cube.
func (t *planTally) add(dilation int, minimal bool) {
	key := "unknown"
	if dilation >= 0 {
		key = strconv.Itoa(dilation)
	}
	t.Hist[key]++
	if minimal {
		t.Minimal++
	}
}

func (t *planTally) merge(d planTally) {
	for k, v := range d.Hist {
		t.Hist[k] += v
	}
	t.Minimal += d.Minimal
}

// restoreHist gives a tally decoded from a checkpoint a fresh runner's empty
// histogram when the checkpoint's is null, so the chunks after the restore
// have a map to count into.
func (t *planTally) restoreHist() {
	if t.Hist == nil {
		t.Hist = map[string]uint64{}
	}
}

// plansweepRunner plans every canonical guest shape of the family in range,
// one chunk per first axis (core.FamilyShapesFrom), one record per shape in
// enumeration order.  The aggregate is the plan tally and certified-optimal
// count of the summary line.
type plansweepRunner struct {
	params  api.PlanSweepParams
	family  guest.Family
	workers int
	planner *core.Planner
	agg     plansweepAgg
}

type plansweepAgg struct {
	planTally
	Optimal uint64 `json:"optimal"`
}

func (r *plansweepRunner) chunks() int { return r.params.MaxAxis }

// shapes is the chunk's enumeration: the shapes of first axis chunk+1, in
// the order execute plans them and fold expects their records.
func (r *plansweepRunner) shapes(chunk int) []mesh.Shape {
	p := r.params
	return core.FamilyShapesFrom(r.family, chunk+1, p.Dims, p.MaxAxis, p.MaxNodes)
}

func (r *plansweepRunner) execute(ctx context.Context, chunk int) (*api.ChunkResult, error) {
	shapes := r.shapes(chunk)
	recs, err := sweep.MapCtx(ctx, len(shapes), r.workers,
		func(_ context.Context, i int) api.PlanRecord { return r.planRecord(shapes[i]) })
	if err != nil {
		return nil, err
	}
	return &api.ChunkResult{PlanSweep: recs}, nil
}

// fold for plansweep takes exactly the chunk's shapes, in enumeration
// order, each a plan record of the job's family; the record count is the
// chunk's count.
func (r *plansweepRunner) fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error) {
	shapes, recs := r.shapes(res.Chunk), res.PlanSweep
	if len(recs) != len(shapes) {
		return 0, fmt.Errorf("jobs: plansweep chunk %d carries %d records, want %d", res.Chunk, len(recs), len(shapes))
	}
	fam := r.familyName()
	// One encoder and pointer arguments: no allocation per record.
	enc := json.NewEncoder(buf)
	delta := plansweepAgg{planTally: newPlanTally()}
	for i := range recs {
		rec := &recs[i]
		if want := shapes[i].String(); rec.Type != api.RecordPlan || rec.Shape != want || rec.Family != fam {
			return 0, fmt.Errorf("jobs: plansweep chunk %d record %d is %q %q of family %q, want %q %q of family %q",
				res.Chunk, i, rec.Type, rec.Shape, rec.Family, api.RecordPlan, want, fam)
		}
		if err := enc.Encode(rec); err != nil {
			return 0, err
		}
		delta.add(rec.DilationBound, rec.Minimal)
		if rec.Optimal {
			delta.Optimal++
		}
	}
	r.agg.merge(delta.planTally)
	r.agg.Optimal += delta.Optimal
	return uint64(len(recs)), nil
}

// familyName is the family field of the job's records: empty for mesh.
func (r *plansweepRunner) familyName() string {
	if r.family == guest.Mesh {
		return ""
	}
	return r.family.String()
}

func (r *plansweepRunner) planRecord(s mesh.Shape) api.PlanRecord {
	p := r.planner.PlanGuest(r.family, s)
	dil := p.DilationBound()
	rec := api.PlanRecord{
		Type: api.RecordPlan, Shape: s.String(), Family: r.familyName(), Nodes: s.Nodes(),
		CubeDim: p.CubeDim, Plan: p.String(), Method: p.Method,
		DilationBound: dil, Minimal: p.Minimal(),
	}
	if r.family == guest.Mesh && len(s) == 3 {
		rec.BestMethod = stats.BestMethod(s[0], s[1], s[2])
		e := stats.RelExpansion(s[0], s[1], s[2])
		rec.RelExpansion = e[:]
	}
	c := bounds.PlanCertificate(r.family, s, p.CubeDim, dil)
	lb := c.LowerBounds
	rec.LowerBounds = &lb
	rec.GapToOptimal = int(c.GapToOptimal)
	rec.Optimal = c.Optimal
	return rec
}

func (r *plansweepRunner) finish(buf *bytes.Buffer, shapes uint64) error {
	return writeRecord(buf, api.SummaryRecord{
		Type: api.RecordSummary, Schema: api.JobSchemaVersion, Kind: api.JobPlanSweep,
		Chunks: r.chunks(), Shapes: shapes,
		DilationHist: r.agg.Hist, Minimal: r.agg.Minimal, Optimal: r.agg.Optimal,
	})
}

func (r *plansweepRunner) snapshot() (json.RawMessage, error) { return json.Marshal(r.agg) }

func (r *plansweepRunner) restore(agg json.RawMessage) error {
	var a plansweepAgg
	if err := decodeExact(agg, &a); err != nil {
		return fmt.Errorf("jobs: plansweep checkpoint: %w", err)
	}
	a.restoreHist()
	r.agg = a
	return nil
}

// ArtifactFile is the plancensus artifact's file name inside the job
// directory.
const ArtifactFile = "artifact.plan"

// plancensusRunner sweeps every canonical shape of the family in rank
// order and writes the plan-census artifact, one chunk per largest-axis
// value (artifact.ChunkRange makes those rank-contiguous, so the builder is
// append-only).  The NDJSON stream carries one line per chunk plus the
// summary — the artifact file itself is the payload, downloaded via
// GET /v1/jobs/{id}/artifact.
//
// The aggregate is the builder position (next rank, string cursor) plus the
// plan tally; on restore (or an intra-chunk retry) the builder is
// reopened at exactly the checkpointed position, truncating whatever a torn
// chunk wrote past it, which keeps both the artifact bytes and the record
// stream byte-identical to an uninterrupted run.
type plancensusRunner struct {
	params  api.PlanCensusParams
	family  guest.Family
	workers int
	planner *core.Planner
	dir     string

	b   *artifact.Builder
	agg plancensusAgg
}

type plancensusAgg struct {
	NextRank uint64 `json:"next_rank"`
	Cursor   uint64 `json:"cursor"`
	planTally
}

func (r *plancensusRunner) chunks() int { return r.params.MaxAxis }

func (r *plancensusRunner) path() string { return filepath.Join(r.dir, ArtifactFile) }

// ensureBuilder (re)opens the builder at the checkpointed position.  A
// builder whose position drifted from the aggregate (a failed chunk
// attempt) is discarded and reopened so the retry replays cleanly.
func (r *plancensusRunner) ensureBuilder() error {
	if r.b != nil {
		if next, cur := r.b.Pos(); next == r.agg.NextRank && cur == r.agg.Cursor {
			return nil
		}
		r.b.Abort()
		r.b = nil
	}
	b, err := artifact.OpenBuilderAt(r.path(), r.family.String(), r.params.Dims, r.params.MaxAxis,
		r.planner.Fingerprint(), r.agg.NextRank, r.agg.Cursor)
	if err != nil {
		return err
	}
	r.b = b
	return nil
}

// execute for plancensus cannot return rows or artifact bytes — both embed
// the cumulative string cursor, which depends on every earlier chunk.  It
// plans the chunk on the sweep pool, as plansweep does, and returns one
// position-independent PlanEntry per shape in rank order instead; fold
// replays them through the runner's builder, which assigns the cursor and
// emits the chunk record.
func (r *plancensusRunner) execute(ctx context.Context, chunk int) (*api.ChunkResult, error) {
	c, dims := chunk+1, r.params.Dims
	lo, hi := artifact.ChunkRange(dims, c)
	// The chunk's shapes back to back in one buffer of axis lengths.  No
	// plan keeps a reference into it: the planner caches plans of its own
	// canonical copy of a shape, and an entry holds strings and numbers.
	axes := make([]int, 0, (hi-lo)*uint64(dims))
	artifact.EachShapeWithMax(dims, c, func(s mesh.Shape) { axes = append(axes, s...) })
	n := len(axes) / dims
	plans, err := sweep.MapCtx(ctx, n, r.workers, func(_ context.Context, i int) api.PlanEntry {
		return r.planner.PlanGuest(r.family, axes[i*dims:(i+1)*dims:(i+1)*dims]).Entry()
	})
	if err != nil {
		return nil, err
	}
	return &api.ChunkResult{Plans: plans}, nil
}

func (r *plancensusRunner) fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error) {
	if err := r.ensureBuilder(); err != nil {
		return 0, err
	}
	c := res.Chunk + 1
	lo, hi := artifact.ChunkRange(r.params.Dims, c)
	if uint64(len(res.Plans)) != hi-lo {
		return 0, fmt.Errorf("jobs: plancensus chunk %d carries %d plans, want %d",
			res.Chunk, len(res.Plans), hi-lo)
	}
	delta := newPlanTally()
	i := 0
	var foldErr error
	artifact.EachShapeWithMax(r.params.Dims, c, func(s mesh.Shape) {
		if foldErr != nil {
			return
		}
		if i >= len(res.Plans) {
			foldErr = fmt.Errorf("jobs: plancensus chunk %d ran out of plans at rank %d", res.Chunk, i)
			return
		}
		pe := res.Plans[i]
		i++
		if err := r.b.Add(s, pe); err != nil {
			foldErr = fmt.Errorf("jobs: plancensus chunk %d: %w", res.Chunk, err)
			return
		}
		delta.add(pe.Dilation, pe.Minimal)
	})
	// A torn replay (foldErr below) leaves the builder position drifted
	// from the aggregate; ensureBuilder reopens it at the checkpointed
	// position on the next attempt.
	if foldErr != nil {
		return 0, foldErr
	}
	if err := r.b.Flush(); err != nil {
		return 0, err
	}
	next, cursor := r.b.Pos()
	if next != hi {
		return 0, fmt.Errorf("jobs: plancensus chunk %d wrote to rank %d, want %d", res.Chunk, next, hi)
	}
	if err := writeRecord(buf, api.PlanCensusChunkRecord{
		Type: api.RecordPlanCensusChunk, MaxAxisValue: c,
		Records: hi - lo, RankLo: lo, RankHi: hi, StringBytes: cursor,
	}); err != nil {
		return 0, err
	}
	r.agg.NextRank, r.agg.Cursor = next, cursor
	r.agg.merge(delta)
	return hi - lo, nil
}

func (r *plancensusRunner) finish(buf *bytes.Buffer, shapes uint64) error {
	// Resuming directly into finish (killed between the last chunk and the
	// summary) arrives with no open builder; reopen at the full position.
	if err := r.ensureBuilder(); err != nil {
		return err
	}
	hdr, err := r.b.Finalize()
	r.b = nil
	if err != nil {
		return err
	}
	return writeRecord(buf, api.SummaryRecord{
		Type: api.RecordSummary, Schema: api.JobSchemaVersion, Kind: api.JobPlanCensus,
		Chunks: r.chunks(), Shapes: shapes,
		DilationHist: r.agg.Hist, Minimal: r.agg.Minimal,
		Artifact: &api.ArtifactInfo{
			Records:     hdr.RecordCount,
			StringBytes: hdr.StringBytes,
			Bytes:       artifact.HeaderSize + hdr.RecordCount*artifact.RecordSize + hdr.StringBytes,
			CRC32:       fmt.Sprintf("%08x", hdr.CRC),
			Fingerprint: r.planner.Fingerprint(),
		},
	})
}

func (r *plancensusRunner) snapshot() (json.RawMessage, error) { return json.Marshal(r.agg) }

func (r *plancensusRunner) restore(agg json.RawMessage) error {
	var a plancensusAgg
	if err := decodeExact(agg, &a); err != nil {
		return fmt.Errorf("jobs: plancensus checkpoint: %w", err)
	}
	a.restoreHist()
	r.agg = a
	return nil
}

// close releases the builder when a run stops without finishing (shutdown,
// cancel, failure); the provisional header keeps the torn file invalid.
func (r *plancensusRunner) close() {
	if r.b != nil {
		r.b.Abort()
		r.b = nil
	}
}
