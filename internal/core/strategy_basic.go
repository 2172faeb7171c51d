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

// planBySolver runs the deterministic annealing solver on shapes within
// the configured node budget.  It is the residual planner of
// planByFactoring: a residual that is neither Gray-minimal nor factorable
// goes to the solver.
func (pc *planContext) planBySolver(s mesh.Shape) *Plan {
	if pc.opts.SolverBudget <= 0 || s.Nodes() > pc.opts.SolverBudget {
		return nil
	}
	e := solver.Find(s, solver.Options{MaxDilation: 2, Seed: solverSeed,
		Restarts: 6, Iterations: 150_000})
	if e == nil {
		return nil
	}
	e.RealizeMinCongestion()
	return &Plan{Kind: KindSolver, Shape: s.Clone(), CubeDim: e.N,
		Dilation: e.Dilation(), Method: 5, solved: e}
}
