package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/jobs"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/pkg/api"
)

// The traced run replays round 0's generated inputs in-process, on one
// goroutine, after the server has stopped.  Each op calls the public
// functions of the layers the server calls, in the server's order, and a
// span from internal/obs wraps each call.  The spans are recorded here
// only: the layers get a context without them, so no span from inside the
// program mixes in.  Span names are the stage ladder below.
const (
	stDecode    = "api.decode"      // strict JSON decode of the request body
	stParse     = "mesh.parse"      // shape and family parsing and validation
	stCanonical = "guest.canonical" // the family's canonical form (cache key)
	stClassify  = "core.classify"   // the closed-form plan tier
	stPlan      = "core.plan"       // the decomposition planner
	stBuild     = "core.build"      // building the node map from the plan
	stVerify    = "embed.verify"    // one-to-one check of the node map
	stMeasure   = "embed.measure"   // the fused metrics pass
	stCertify   = "bounds.certify"  // certified lower bounds for the certificate
	stSerial    = "embed.serial"    // serializing the node map (include_map)
	stEncode    = "api.encode"      // indented JSON encode of the response
	stChunk     = "jobs.chunk"      // one plansweep chunk
)

// workloadStages lists the stages each workload's replay records; a traced
// run's Chrome trace holds exactly these span names plus replay and op.
var workloadStages = map[string][]string{
	serveHot:  {stDecode, stParse, stCanonical, stCertify, stSerial, stEncode},
	planCold:  {stDecode, stParse, stClassify, stPlan, stCertify, stEncode},
	embedCold: {stDecode, stParse, stCanonical, stClassify, stPlan, stBuild, stVerify, stMeasure, stCertify, stEncode},
	sweepJob:  {stChunk, stPlan, stCertify},
}

// replayMaxOps caps the ops one replay pass records, which bounds the
// spans held in memory.
const replayMaxOps = 10000

// replayOp is one replayed request.  It receives the context carrying its
// op span and opens stage spans through stage.
type replayOp func(ctx context.Context) error

func stage(ctx context.Context, name string, fn func()) {
	_, sp := obs.Start(ctx, name)
	fn()
	sp.End()
}

// sink keeps replayed results alive so no call is optimized away.
var sink any

// replayPass is one pass over a replay's ops.
type replayPass struct {
	ops     int
	elapsed time.Duration
	tree    *obs.SpanJSON // nil when untraced
}

// replay runs ops until budget is spent (at least one op, at most limit)
// under a "replay" root span when traced, one "op" span per op.
func replay(ops []replayOp, traced bool, budget time.Duration, limit int) (replayPass, error) {
	ctx := context.Background()
	var root *obs.Span
	if traced {
		ctx, root = obs.StartRoot(ctx, "replay")
	}
	start := time.Now()
	n := 0
	for _, op := range ops[:min(limit, len(ops))] {
		if n > 0 && time.Since(start) > budget {
			break
		}
		octx, sp := obs.Start(ctx, "op")
		err := op(octx)
		sp.End()
		if err != nil {
			return replayPass{}, fmt.Errorf("replay op %d: %w", n, err)
		}
		n++
	}
	p := replayPass{ops: n, elapsed: time.Since(start)}
	root.End()
	p.tree = root.Snapshot()
	return p, nil
}

// stageTimes sums each stage's self time (duration less its children's)
// over a replay tree and counts its spans.
func stageTimes(t *obs.SpanJSON, self map[string]time.Duration, calls map[string]int) {
	for _, c := range t.Children {
		d := time.Duration(c.DurationNS)
		for _, g := range c.Children {
			d -= time.Duration(g.DurationNS)
		}
		self[c.Name] += d
		calls[c.Name]++
		stageTimes(c, self, calls)
	}
}

// traceResult is what the traced run reports.
type traceResult struct {
	ops       int                      // request ops replayed (sweep: planner-pass shapes)
	self      map[string]time.Duration // Σ self time per stage
	calls     map[string]int
	jobOps    int     // sweep: jobs replayed
	overhead  float64 // traced / untraced − 1
	traceFile string
}

// traceRun replays the run's first round traced, then again untraced for
// the overhead, and writes the Chrome trace.  cfg.replay bounds each pass.
func traceRun(cfg config, rs *runStats) (*traceResult, error) {
	// Each group is a factory of fresh replay ops (fresh planner state), so
	// the traced and the untraced pass do the same work.
	var groups []func() ([]replayOp, error)
	switch cfg.workload {
	case serveHot:
		groups = append(groups, func() ([]replayOp, error) { return hotReplay(rs.firstOps, rs.warm) })
	case planCold:
		groups = append(groups, func() ([]replayOp, error) { return planReplay(rs.firstOps), nil })
	case embedCold:
		groups = append(groups, func() ([]replayOp, error) { return embedReplay(rs.firstOps), nil })
	case sweepJob:
		p := rs.firstOps[0].sweep
		groups = append(groups,
			func() ([]replayOp, error) { return sweepJobReplay(p), nil },
			func() ([]replayOp, error) { return sweepPassReplay(p), nil })
	}
	tr := &traceResult{self: map[string]time.Duration{}, calls: map[string]int{}}
	top := &obs.SpanJSON{Name: "bench"}
	var traced, untraced time.Duration
	for gi, newOps := range groups {
		ops, err := newOps()
		if err != nil {
			return nil, err
		}
		tp, err := replay(ops, true, cfg.replay, replayMaxOps)
		if err != nil {
			return nil, err
		}
		if ops, err = newOps(); err != nil {
			return nil, err
		}
		up, err := replay(ops, false, cfg.replay, tp.ops)
		if err != nil {
			return nil, err
		}
		traced += tp.elapsed
		untraced += up.elapsed
		stageTimes(tp.tree, tr.self, tr.calls)
		if cfg.workload == sweepJob && gi == 0 {
			tr.jobOps = tp.ops
		} else {
			tr.ops += tp.ops
		}
		top.Children = append(top.Children, tp.tree)
	}
	tr.overhead = ratio(traced.Seconds(), untraced.Seconds()) - 1
	first, last := top.Children[0], top.Children[len(top.Children)-1]
	top.StartUnixNS = first.StartUnixNS
	top.DurationNS = last.StartUnixNS + last.DurationNS - first.StartUnixNS

	tr.traceFile = filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(tr.traceFile)
	if err != nil {
		return nil, err
	}
	if err := obs.WriteChromeTrace(f, top); err != nil {
		f.Close()
		return nil, fmt.Errorf("write %s: %w", tr.traceFile, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write %s: %w", tr.traceFile, err)
	}
	return tr, nil
}

// decodeRequest decodes a request body the way the server does, into the
// endpoint's request type with unknown fields an error, and returns the
// guest it names.
func decodeRequest(kind opKind, body []byte) (family, shape string, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	switch kind {
	case kindPlan:
		var r api.PlanRequest
		err = dec.Decode(&r)
		return r.Family, r.Shape, err
	case kindEmbed:
		var r api.EmbedRequest
		err = dec.Decode(&r)
		return r.Family, r.Shape, err
	default:
		var r api.CompareRequest
		err = dec.Decode(&r)
		return r.Family, r.Shape, err
	}
}

// encodeIndented encodes a response the way the server writes it.
func encodeIndented(v any) error {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// requestBody is the body the client sends for o.
func requestBody(o *op) []byte {
	var v any
	switch o.kind {
	case kindPlan:
		v = api.PlanRequest{Shape: o.shape.String(), Family: o.family}
	case kindEmbed:
		v = api.EmbedRequest{Shape: o.shape.String(), Family: o.family, IncludeMap: o.includeMap}
	default:
		v = api.CompareRequest{Shape: o.shape.String(), Family: o.family}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and bools always encode
	}
	return b
}

// parseGuest is the mesh.parse stage: the family name, the shape string
// and both validations.
func parseGuest(family, shape string) (guest.Family, mesh.Shape, error) {
	d, err := guest.ByName(family)
	if err != nil {
		return 0, nil, err
	}
	sh, err := mesh.ParseShape(shape)
	if err != nil {
		return 0, nil, err
	}
	return d.Family, sh, guest.Validate(d.Family, sh)
}

// hotReplay replays serve-hot's cache hits: the server decodes, parses,
// canonicalizes, finds the answer in its result cache, certifies it in the
// request's axis order, serializes the map when asked, and encodes.  The
// answers are the warm-pass answers; the node maps come from embeddings
// built here before the replay starts.
func hotReplay(ops []op, warm map[string]any) ([]replayOp, error) {
	pl := core.NewPlanner(core.DefaultOptions)
	built := map[string]*embed.Embedding{}
	out := make([]replayOp, len(ops))
	for i := range ops {
		o := &ops[i]
		body := requestBody(o)
		ans := warm[o.key()]
		canon, _ := o.shape.SortCanonical()
		var e *embed.Embedding
		if o.includeMap {
			if e = built[canon.String()]; e == nil {
				p, err := inProcessPlan(pl, guest.Mesh, canon)
				if err != nil {
					return nil, err
				}
				e = p.Build()
				built[canon.String()] = e
			}
		}
		out[i] = func(ctx context.Context) error {
			var family, shape string
			var err error
			stage(ctx, stDecode, func() { family, shape, err = decodeRequest(o.kind, body) })
			if err != nil {
				return err
			}
			var fam guest.Family
			var sh mesh.Shape
			stage(ctx, stParse, func() { fam, sh, err = parseGuest(family, shape) })
			if err != nil {
				return err
			}
			switch r := ans.(type) {
			case *api.PlanResponse:
				stage(ctx, stCertify, func() { sink = bounds.For(fam, sh, r.CubeDim) })
			case *api.EmbedResponse:
				stage(ctx, stCanonical, func() { sink, _ = guest.Get(fam).Canonical(sh) })
				stage(ctx, stCertify, func() { sink = bounds.For(fam, sh, r.Metrics.CubeDim) })
				if e != nil {
					stage(ctx, stSerial, func() { sink = e.Serial() })
				}
			case *api.CompareResponse:
				stage(ctx, stCanonical, func() { sink, _ = guest.Get(fam).Canonical(sh) })
				stage(ctx, stCertify, func() { sink = bounds.For(fam, sh, sh.MinCubeDim()) })
			}
			resp := withSource(ans, "cache")
			stage(ctx, stEncode, func() { err = encodeIndented(resp) })
			return err
		}
	}
	return out, nil
}

// planReplay replays plan-cold's misses against a fresh planner, as on a
// freshly booted server: classifier, then planner, then certificate.
func planReplay(ops []op) []replayOp {
	pl := core.NewPlanner(core.DefaultOptions)
	out := make([]replayOp, len(ops))
	for i := range ops {
		body := requestBody(&ops[i])
		out[i] = func(ctx context.Context) error {
			var family, shape string
			var err error
			stage(ctx, stDecode, func() { family, shape, err = decodeRequest(kindPlan, body) })
			if err != nil {
				return err
			}
			var fam guest.Family
			var sh mesh.Shape
			stage(ctx, stParse, func() { fam, sh, err = parseGuest(family, shape) })
			if err != nil {
				return err
			}
			var p *core.Plan
			var ok bool
			stage(ctx, stClassify, func() { p, ok = core.ClassifyGuest(fam, sh) })
			if !ok {
				stage(ctx, stPlan, func() { p, err = pl.TryPlanGuest(fam, sh) })
				if err != nil {
					return err
				}
			}
			resp := api.PlanResponse{
				Version: api.Version, Shape: sh.String(), Family: fam.String(), Nodes: sh.Nodes(),
				CubeDim: p.CubeDim, Plan: p.String(), Method: p.Method, DilationBound: wireDilation(p),
				Source: "computed",
			}
			stage(ctx, stCertify, func() { resp.Certificate = certificate(fam, sh, p.CubeDim) })
			stage(ctx, stEncode, func() { err = encodeIndented(resp) })
			return err
		}
	}
	return out
}

// certificate is the lower-bound half of a served certificate; the gaps
// are subtractions the replay leaves out.
func certificate(fam guest.Family, sh mesh.Shape, cube int) *api.Certificate {
	b := bounds.For(fam, sh, cube)
	return &api.Certificate{CubeDim: cube, LowerBounds: api.LowerBounds{
		Dilation: b.Dilation, Wirelength: b.Wirelength, Congestion: b.Congestion,
	}}
}

// embedReplay replays embed-cold's misses against a fresh planner: plan,
// build, verify, measure, certify and encode.
func embedReplay(ops []op) []replayOp {
	pl := core.NewPlanner(core.DefaultOptions)
	out := make([]replayOp, len(ops))
	for i := range ops {
		body := requestBody(&ops[i])
		out[i] = func(ctx context.Context) error {
			var family, shape string
			var err error
			stage(ctx, stDecode, func() { family, shape, err = decodeRequest(kindEmbed, body) })
			if err != nil {
				return err
			}
			var fam guest.Family
			var sh mesh.Shape
			stage(ctx, stParse, func() { fam, sh, err = parseGuest(family, shape) })
			if err != nil {
				return err
			}
			var canon mesh.Shape
			stage(ctx, stCanonical, func() { canon, _ = guest.Get(fam).Canonical(sh) })
			var p *core.Plan
			var ok bool
			stage(ctx, stClassify, func() { p, ok = core.ClassifyGuest(fam, canon) })
			if !ok {
				stage(ctx, stPlan, func() { p, err = pl.TryPlanGuest(fam, canon) })
				if err != nil {
					return err
				}
			}
			var e *embed.Embedding
			stage(ctx, stBuild, func() { e = p.Build() })
			stage(ctx, stVerify, func() { err = e.Verify() })
			if err != nil {
				return err
			}
			var m embed.Metrics
			stage(ctx, stMeasure, func() { m = e.MeasureParallelCtx(context.Background(), 0) })
			resp := api.EmbedResponse{
				Version: api.Version, Shape: sh.String(), Family: fam.String(), Mode: "decomposition",
				Plan: p.String(), Method: p.Method, DilationBound: wireDilation(p),
				Metrics: api.Metrics(m), Source: "computed",
			}
			resp.Metrics.Guest = sh.String()
			stage(ctx, stCertify, func() { resp.Certificate = certificate(fam, sh, m.CubeDim) })
			stage(ctx, stEncode, func() { err = encodeIndented(resp) })
			return err
		}
	}
	return out
}

// sweepJobReplay replays the round's plansweep job chunk by chunk through
// jobs.ExecuteChunk, the entry point fabric workers use, with a fresh
// planner shared by the chunks as the job shares the server's.
func sweepJobReplay(p *api.PlanSweepParams) []replayOp {
	pl := core.NewPlanner(core.DefaultOptions)
	req := api.JobSubmitRequest{Kind: api.JobPlanSweep, PlanSweep: p}
	return []replayOp{func(ctx context.Context) error {
		for chunk := 0; chunk < p.MaxAxis; chunk++ {
			var err error
			stage(ctx, stChunk, func() {
				sink, err = jobs.ExecuteChunk(context.Background(), api.ChunkRequest{Version: api.Version, Job: req, Chunk: chunk}, 0, pl)
			})
			if err != nil {
				return err
			}
		}
		return nil
	}}
}

// sweepPassReplay plans an evenly spaced sample of replayMaxOps shapes of
// the sweep's domain, in job order, with a fresh planner, and computes each
// one's certified bounds: the per-shape cost of the planner and of bounds
// without the job machinery around them.
func sweepPassReplay(p *api.PlanSweepParams) []replayOp {
	pl := core.NewPlanner(core.DefaultOptions)
	shapes := core.FamilyShapes(guest.Mesh, p.Dims, p.MaxAxis, p.MaxNodes)
	stride := (len(shapes) + replayMaxOps - 1) / replayMaxOps
	var out []replayOp
	for i := 0; i < len(shapes); i += stride {
		s := shapes[i]
		out = append(out, func(ctx context.Context) error {
			var q *core.Plan
			stage(ctx, stPlan, func() { q = pl.PlanGuest(guest.Mesh, s) })
			stage(ctx, stCertify, func() { sink = bounds.For(guest.Mesh, s, q.CubeDim) })
			return nil
		})
	}
	return out
}
