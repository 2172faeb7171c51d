package core

import (
	"fmt"

	"repro/internal/mesh"
)

// stage is one step of a strategy pipeline: the strategy it runs, with
// optional gates replicating the planner's historical short-circuits:
//
//   - skip: don't run this strategy given the current best (e.g. the fold
//     search only runs while no dilation-2 plan is in hand);
//   - stop: stop the whole pipeline after this strategy (e.g. a direct
//     table hit is final).
//
// The gate reasons are surfaced verbatim in PlanTrace provenance, so they
// are written for the operator reading `embedctl explain`.
type stage struct {
	id         StrategyID
	skip       func(best *Plan) bool
	skipReason string
	stop       func(best *Plan) bool
	stopReason string
}

func whenFound(best *Plan) bool   { return best != nil }
func whenSettled(best *Plan) bool { return best != nil && best.Dilation <= 2 }

const reasonSettled = "a dilation-2 plan is already in hand"

// The strategy pipelines, one per active-axis class, encode the paper's
// method preferences.  Every stage is chosen for some mesh of the plan
// digest domain (TestPipelinesRunEveryStrategy); the solver is no stage,
// only planByFactoring's residual planner.
var (
	// pipeline2D plans shapes with exactly two axes of length > 1.
	pipeline2D = []stage{
		{id: StrategyDirect, stop: whenFound, stopReason: "a direct table hit is final"},
		{id: StrategyFactor},
		{id: StrategyExtend},
		{id: StrategyFold, skip: whenSettled, skipReason: reasonSettled},
	}
	// pipeline3D plans shapes with exactly three axes of length > 1.
	pipeline3D = []stage{
		{id: StrategyPairGray},
		{id: StrategyFactor, stop: whenSettled, stopReason: "dilation-2 factoring settles the pipeline"},
		{id: StrategySplit3D},
		{id: StrategyExtend},
		{id: StrategyFold, skip: whenSettled, skipReason: reasonSettled},
	}
	// pipelineHighD plans shapes with four or more axes of length > 1.
	pipelineHighD = []stage{
		{id: StrategyHighDim},
	}
)

// search runs one strategy on the shape and returns its candidate plan, or
// nil.  foldDepth counts fold nodes already above this subtree (at most
// one fold per plan tree keeps the reflection argument of §3.3 valid).
func (pc *planContext) search(id StrategyID, s mesh.Shape, foldDepth int) *Plan {
	switch id {
	case StrategyDirect:
		return planDirect(s)
	case StrategyFactor:
		return pc.planByFactoring(s, 0)
	case StrategyExtend:
		return pc.planByExtension(s)
	case StrategyHighDim:
		return pc.planHighDim(s)
	case StrategyPairGray:
		return pc.planPairPlusGray(s, foldDepth)
	case StrategySplit3D:
		return pc.planBySplit(s, foldDepth)
	case StrategyFold:
		return pc.planByFolding(s, foldDepth)
	}
	panic(fmt.Sprintf("core: no search for strategy %v", id))
}

// solverSeed seeds every solver search, so planning is deterministic.
const solverSeed = 1

// planContext carries one planning run's configuration: options and (for
// Planner) the shared plan cache.  A context is immutable after
// construction and safe for concurrent use — except for tr, which is only
// ever set on the private per-call copy a PlanTraced run makes (see
// trace.go) and is nil on every shared context.
type planContext struct {
	opts  Options
	cache *planCache  // nil: no plan cache
	canon bool        // canonicalize axis order before searching
	fp    string      // options fingerprint, stamped on artifacts
	tr    *planTracer // nil: provenance recording off (the hot path)
}

func newPlanContext(opts Options, cache *planCache, canon bool) *planContext {
	return &planContext{
		opts:  opts,
		cache: cache,
		canon: canon,
		fp:    fmt.Sprintf("b%d.s%d.%s", opts.SolverBudget, solverSeed, preferenceOrder),
	}
}

// planMinimalDepth returns the best structured minimal-expansion plan for
// the shape, or nil if every strategy fails.  It is the recursion point for
// strategies planning sub-shapes, so canonicalization and caching apply at
// every level of the tree.
func (pc *planContext) planMinimalDepth(s mesh.Shape, foldDepth int) *Plan {
	pc.tr.push(s)
	var p *Plan
	if pc.canon {
		p = pc.planCanonical(s, foldDepth)
	} else {
		p = pc.planDispatch(s, foldDepth)
	}
	pc.tr.pop(p)
	return p
}

// planDispatch answers a closed-form shape from the classifier and routes
// the rest to the pipeline for their active-axis count.  A shape with at
// most one active axis is always Gray-minimal, so it never reaches the
// switch.
func (pc *planContext) planDispatch(s mesh.Shape, foldDepth int) *Plan {
	if p, ok := ClassifyShape(s); ok {
		pc.tr.shortcut("gray-minimal", "gray")
		return p
	}
	switch len(activeAxes(s)) {
	case 2:
		pc.tr.setPipeline("2d")
		return pc.runPipeline(pipeline2D, s, foldDepth)
	case 3:
		pc.tr.setPipeline("3d")
		return pc.runPipeline(pipeline3D, s, foldDepth)
	default:
		pc.tr.setPipeline("highd")
		return pc.runPipeline(pipelineHighD, s, foldDepth)
	}
}

// runPipeline merges the stages' candidates under better, honoring the
// per-stage skip/stop gates.  A traced run records every attempt through
// the tracer hooks, which do nothing on the untraced hot path.
func (pc *planContext) runPipeline(stages []stage, s mesh.Shape, foldDepth int) *Plan {
	var best *Plan
	for _, st := range stages {
		if st.skip != nil && st.skip(best) {
			pc.tr.skipped(st)
			continue
		}
		pc.tr.try(st.id)
		cand := pc.search(st.id, s, foldDepth)
		merged := better(best, cand)
		pc.tr.tried(st.id, cand, merged)
		best = merged
		if st.stop != nil && st.stop(best) {
			pc.tr.stopped(st.stopReason)
			break
		}
	}
	return best
}

// planMinimalOrSnake never fails: structured plan if possible, else snake.
func (pc *planContext) planMinimalOrSnake(s mesh.Shape, foldDepth int) *Plan {
	if p := pc.planMinimalDepth(s, foldDepth); p != nil {
		return p
	}
	return snakePlan(s)
}

// activeAxes returns the indices of axes with length > 1.
func activeAxes(s mesh.Shape) []int {
	var out []int
	for i, l := range s {
		if l > 1 {
			out = append(out, i)
		}
	}
	return out
}

// shapeWithAxes builds a k-dim shape with the given lengths on the given
// axes and 1 elsewhere.
func shapeWithAxes(k int, axes []int, lengths []int) mesh.Shape {
	s := make(mesh.Shape, k)
	for i := range s {
		s[i] = 1
	}
	for i, ax := range axes {
		s[ax] = lengths[i]
	}
	return s
}
