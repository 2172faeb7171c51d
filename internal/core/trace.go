package core

import (
	"context"
	"time"

	"repro/internal/mesh"
	"repro/internal/obs"
)

// Plan provenance: a traced planning run records, for every shape the
// recursion visits, which strategies were tried, skipped (and why, quoting
// the pipeline's gate reason) or chosen, what each candidate looked like and
// how long each attempt took.  The result is the PlanTrace tree returned by
// Planner.PlanTraced and served under /v1/*?debug=trace.
//
// Tracing rides a private copy of the planner's context with the plan cache
// detached, so every strategy genuinely runs — a provenance answer must not
// degenerate to "cache hit" — and the shared Planner stays immutable and
// concurrency-safe.  The traced run still plans in canonical axis order, so
// the plan it returns is identical to Planner.Plan's.

// StrategyAttempt is one pipeline stage's outcome for one shape.
type StrategyAttempt struct {
	Strategy string `json:"strategy"`
	// Status is "tried", "skipped" or "chosen" (chosen implies tried and
	// won under the preference order).
	Status string `json:"status"`
	// Reason explains the status: the gate reason for skips, the
	// preference-order outcome for tried candidates, "no candidate" for
	// misses.
	Reason string `json:"reason,omitempty"`
	// Plan is the candidate construction, when the strategy produced one.
	Plan     string `json:"plan,omitempty"`
	CubeDim  int    `json:"cube_dim,omitempty"`
	Dilation int    `json:"dilation,omitempty"` // -1: no a-priori bound
	// Stopped marks the attempt after which the pipeline's stop gate fired.
	Stopped    bool  `json:"stopped_pipeline,omitempty"`
	DurationNS int64 `json:"duration_ns"`
}

// PlanTrace is the provenance tree of one traced planning run: one node per
// shape the recursion visited, in deterministic pipeline order.
type PlanTrace struct {
	// Shape is the shape as requested; Canonical is the axis-sorted shape
	// the strategies actually searched.
	Shape     string `json:"shape"`
	Canonical string `json:"canonical"`
	// Pipeline names the strategy pipeline that ran: "2d", "3d", "highd",
	// or the shortcut label "gray-minimal".
	Pipeline string            `json:"pipeline"`
	Attempts []StrategyAttempt `json:"attempts,omitempty"`
	// Chosen is the winning strategy's name; "gray" for shortcut nodes,
	// "snake" when the top-level run fell back, "none" when no structured
	// plan exists for a sub-shape.
	Chosen     string       `json:"chosen,omitempty"`
	Plan       string       `json:"plan,omitempty"`
	DurationNS int64        `json:"duration_ns"`
	Sub        []*PlanTrace `json:"sub,omitempty"`
}

// Walk calls f for every node of the tree in pre-order.
func (pt *PlanTrace) Walk(f func(*PlanTrace)) {
	if pt == nil {
		return
	}
	f(pt)
	for _, sub := range pt.Sub {
		sub.Walk(f)
	}
}

// tracedNode is one open PlanTrace frame plus its obs span, and the state
// of the pipeline running on it: the open attempt and the best so far.
type tracedNode struct {
	pt   *PlanTrace
	span *obs.Span
	t0   time.Time

	attempt   *obs.Span // the open strategy attempt (between try and tried)
	attemptT0 time.Time
	best      int // index of the best attempt so far, -1: none
}

// planTracer accumulates the provenance tree and mirrors it into obs spans.
// A tracer belongs to exactly one PlanTraced call (planning recursion is
// single-goroutine), so no locking is needed.  All methods are nil-receiver
// safe so the untraced hot path carries only nil checks.
type planTracer struct {
	// ctxs is the innermost-last stack of span contexts: plan nodes and
	// strategy attempts both push, so sub-shape spans nest under the
	// attempt that searched them.
	ctxs  []context.Context
	nodes []*tracedNode
	root  *PlanTrace
}

func newPlanTracer(ctx context.Context) *planTracer {
	return &planTracer{ctxs: []context.Context{ctx}}
}

func (tr *planTracer) topCtx() context.Context { return tr.ctxs[len(tr.ctxs)-1] }
func (tr *planTracer) cur() *tracedNode        { return tr.nodes[len(tr.nodes)-1] }

// push opens a provenance node for a shape the recursion is about to plan.
func (tr *planTracer) push(s mesh.Shape) {
	if tr == nil {
		return
	}
	canon, _ := s.SortCanonical()
	pt := &PlanTrace{Shape: s.String(), Canonical: canon.String()}
	if len(tr.nodes) > 0 {
		top := tr.cur()
		top.pt.Sub = append(top.pt.Sub, pt)
	} else {
		tr.root = pt
	}
	ctx, span := obs.Start(tr.topCtx(), "plan "+canon.String())
	tr.ctxs = append(tr.ctxs, ctx)
	tr.nodes = append(tr.nodes, &tracedNode{pt: pt, span: span, t0: time.Now(), best: -1})
}

// pop closes the current node with the plan the recursion settled on,
// marking the pipeline's winning attempt as chosen.
func (tr *planTracer) pop(p *Plan) {
	if tr == nil {
		return
	}
	node := tr.cur()
	tr.nodes = tr.nodes[:len(tr.nodes)-1]
	tr.ctxs = tr.ctxs[:len(tr.ctxs)-1]
	node.pt.DurationNS = time.Since(node.t0).Nanoseconds()
	if node.best >= 0 {
		node.pt.Attempts[node.best].Status = "chosen"
		node.pt.Chosen = node.pt.Attempts[node.best].Strategy
	}
	if p != nil {
		node.pt.Plan = p.String()
	} else if node.pt.Chosen == "" {
		node.pt.Chosen = "none"
	}
	node.span.SetAttr("chosen", node.pt.Chosen)
	if node.pt.Plan != "" {
		node.span.SetAttr("plan", node.pt.Plan)
	}
	node.span.End()
}

// setPipeline labels the current node with the pipeline about to run.
func (tr *planTracer) setPipeline(name string) {
	if tr == nil {
		return
	}
	cur := tr.cur()
	cur.pt.Pipeline = name
	cur.span.SetAttr("pipeline", name)
}

// shortcut records a node resolved without running any pipeline (the
// classifier's Gray-minimal answer in planDispatch).
func (tr *planTracer) shortcut(pipeline, chosen string) {
	if tr == nil {
		return
	}
	tr.setPipeline(pipeline)
	tr.cur().pt.Chosen = chosen
}

// skipped records a stage its skip gate passed over.
func (tr *planTracer) skipped(st stage) {
	if tr == nil {
		return
	}
	name := st.id.String()
	_, sp := obs.Start(tr.topCtx(), "strategy:"+name)
	sp.SetAttr("status", "skipped")
	sp.SetAttr("reason", st.skipReason)
	sp.End()
	cur := tr.cur().pt
	cur.Attempts = append(cur.Attempts, StrategyAttempt{
		Strategy: name, Status: "skipped", Reason: st.skipReason})
}

// try opens the attempt of a strategy about to search; the sub-shapes it
// plans nest under the attempt's span.
func (tr *planTracer) try(id StrategyID) {
	if tr == nil {
		return
	}
	cur := tr.cur()
	ctx, sp := obs.Start(tr.topCtx(), "strategy:"+id.String())
	tr.ctxs = append(tr.ctxs, ctx)
	cur.attempt, cur.attemptT0 = sp, time.Now()
}

// tried closes the open attempt with the strategy's candidate (nil: none)
// and merged, the pipeline's best plan after merging the candidate in
// under the preference order.
func (tr *planTracer) tried(id StrategyID, cand, merged *Plan) {
	if tr == nil {
		return
	}
	tr.ctxs = tr.ctxs[:len(tr.ctxs)-1]
	cur := tr.cur()
	a := StrategyAttempt{Strategy: id.String(), Status: "tried",
		DurationNS: time.Since(cur.attemptT0).Nanoseconds()}
	sp := cur.attempt
	if cand == nil {
		a.Reason = "no candidate"
	} else {
		a.Plan = cand.String()
		a.CubeDim = cand.CubeDim
		a.Dilation = cand.DilationBound()
		switch {
		case cur.best < 0:
			a.Reason = "first candidate"
		case merged == cand:
			a.Reason = "beats " + cur.pt.Attempts[cur.best].Strategy + " under " + preferenceOrder
		default:
			a.Reason = "kept " + cur.pt.Attempts[cur.best].Strategy + " under " + preferenceOrder
		}
		if merged == cand {
			cur.best = len(cur.pt.Attempts)
		}
		sp.SetAttr("plan", a.Plan)
	}
	sp.SetAttr("status", a.Status)
	sp.SetAttr("reason", a.Reason)
	sp.End()
	cur.pt.Attempts = append(cur.pt.Attempts, a)
}

// stopped marks the last attempt as the one after which the pipeline's
// stop gate fired.
func (tr *planTracer) stopped(reason string) {
	if tr == nil {
		return
	}
	cur := tr.cur().pt
	last := &cur.Attempts[len(cur.Attempts)-1]
	last.Stopped = true
	if reason != "" {
		last.Reason += "; stopped pipeline: " + reason
	}
}

// PlanTraced is Plan with full provenance: it returns the same plan as Plan
// (traced runs plan in canonical axis order, exactly like the cached path)
// plus the PlanTrace tree recording every strategy attempt.  When ctx
// carries an obs span, each visited shape and each strategy attempt also
// becomes a child span ("plan <shape>" / "strategy:<name>").
//
// The plan cache is bypassed so every strategy genuinely runs; a traced plan
// is therefore as expensive as a cold one.  Safe for concurrent use.
func (pl *Planner) PlanTraced(ctx context.Context, s mesh.Shape) (*Plan, *PlanTrace, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	pctx, span := obs.Start(ctx, "planner")
	tpc := *pl.pc
	tpc.cache = nil
	tpc.tr = newPlanTracer(pctx)
	p := tpc.planTop(s)
	rt := tpc.tr.root
	if rt != nil {
		if p.Kind == KindSnake && rt.Plan == "" {
			// planTop's snake fallback happens above the recursion point.
			rt.Chosen = "snake"
			rt.Plan = p.String()
		}
	}
	span.SetAttr("plan", p.String())
	span.SetAttr("method", p.Method)
	span.End()
	return p, rt, nil
}
