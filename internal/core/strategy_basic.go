package core

import (
	"repro/internal/direct"
	"repro/internal/mesh"
	"repro/internal/solver"
)

// planDirect matches the frozen direct tables (§3.3), possibly after axis
// permutation and padding (handled by direct.Lookup).  A hit is final: the
// two-axis pipeline stops on it.
func planDirect(s mesh.Shape) *Plan {
	tab, _, ok := direct.Lookup(s)
	if !ok {
		return nil
	}
	return &Plan{Kind: KindDirect, Shape: s.Clone(), CubeDim: tab.Shape.MinCubeDim(),
		Dilation: tab.Dilation, Method: 2}
}

// solverPlans holds the process's solver searches, keyed by the exact
// residual form (Find's map depends on the axis order, so 1x3x9 and 3x1x9
// are two keys); a nil entry is a failed search.  The search is
// deterministic, so every planner and PlanShape share one search per form.
// Plan.Build returns a solver node's embedding itself, so each caller gets
// a deep copy of the entry.
var solverPlans = newPlanCache()

// solverOptions is every solver search's budget: a dilation-2 target,
// solverSeed, and 6 restarts of 150k annealing steps.
var solverOptions = solver.Options{MaxDilation: 2, Seed: solverSeed, Restarts: 6, Iterations: 150_000}

// planBySolver runs the deterministic annealing solver on shapes within
// the configured node budget.  It is the residual planner of
// planByFactoring: a residual that is neither Gray-minimal nor factorable
// goes to the solver.
func (pc *planContext) planBySolver(s mesh.Shape) *Plan {
	if pc.opts.SolverBudget <= 0 || s.Nodes() > pc.opts.SolverBudget {
		return nil
	}
	return permutePlan(solverPlans.getOrPlan(s.String(), func() *Plan {
		e := solver.Find(s, solverOptions)
		if e == nil {
			return nil
		}
		e.RealizeMinCongestion()
		return &Plan{Kind: KindSolver, Shape: s.Clone(), CubeDim: e.N,
			Dilation: e.Dilation(), Method: 5, solved: e}
	}), nil)
}
