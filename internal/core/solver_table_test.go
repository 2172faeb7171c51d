package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/solver"
)

// solverNodes returns the solver nodes of a plan tree in tree order.
func solverNodes(p *Plan) []*Plan {
	if p == nil {
		return nil
	}
	var out []*Plan
	if p.Kind == KindSolver {
		out = append(out, p)
	}
	for _, f := range p.Factors {
		out = append(out, solverNodes(f)...)
	}
	return append(out, solverNodes(p.Child)...)
}

// findFresh is planBySolver's search without the table.
func findFresh(t *testing.T, s mesh.Shape) *embed.Embedding {
	t.Helper()
	e := solver.Find(s, solverOptions)
	if e == nil {
		t.Fatalf("no solver embedding of %v", s)
	}
	e.RealizeMinCongestion()
	return e
}

// sameBuild reports whether two embeddings have the same guest, cube, map
// and routes.
func sameBuild(a, b *embed.Embedding) bool {
	return a.Guest.Equal(b.Guest) && a.N == b.N &&
		slices.Equal(a.Map, b.Map) && slices.Equal(a.Routes, b.Routes)
}

// TestSolverTableMatchesFind: every solver form in the plans of the sorted
// 3D meshes with axes ≤ 30 and ≤ 4,096 nodes, planned again from the warm
// table, builds the map and routes a fresh search finds.
func TestSolverTableMatchesFind(t *testing.T) {
	pl := NewPlanner(DefaultOptions)
	var withSolver []mesh.Shape
	for _, s := range FamilyShapes(guest.Mesh, 3, 30, 4096) {
		if len(solverNodes(pl.Plan(s))) > 0 {
			withSolver = append(withSolver, s)
		}
	}
	if len(withSolver) != 11 {
		t.Errorf("%d plans hold a solver node, want 11: %v", len(withSolver), withSolver)
	}
	seen := map[string]bool{}
	for _, s := range withSolver {
		for _, n := range solverNodes(NewPlanner(DefaultOptions).Plan(s)) {
			if seen[n.Shape.String()] {
				continue
			}
			seen[n.Shape.String()] = true
			if !sameBuild(n.Build(), findFresh(t, n.Shape)) {
				t.Errorf("%v: solver node %v builds another embedding than a fresh search", s, n.Shape)
			}
		}
	}
	if len(seen) < 2 {
		t.Errorf("only %d solver forms checked", len(seen))
	}
}

// TestSolverTableHandsOutCopies: Plan.Build returns a solver node's
// embedding itself, so a caller that mutates it must not reach the table
// entry the next plan copies, on the uncached PlanShape path or through a
// Planner.  A reached entry shows as another map, or as another plan once
// the mutated congestion loses the tie-break.
func TestSolverTableHandsOutCopies(t *testing.T) {
	s := mesh.Shape{3, 5, 25} // (3x1x5[direct] ⊗ 1x5x5[solver])
	want := findFresh(t, mesh.Shape{1, 5, 5})
	for _, plan := range []func() *Plan{
		func() *Plan { return PlanShape(s, DefaultOptions) },
		func() *Plan { return NewPlanner(DefaultOptions).Plan(s) },
		func() *Plan { return PlanShape(s, DefaultOptions) },
	} {
		p := plan()
		nodes := solverNodes(p)
		if len(nodes) == 0 || !sameBuild(nodes[0].Build(), want) {
			t.Fatalf("%s: a mutated build reached the next plan", p)
		}
		e := nodes[0].Build()
		e.Map[0], e.Map[1] = e.Map[1], e.Map[0]
		clear(e.Routes)
	}
}

// TestSolverTableSearchesOnce: re-planning guests whose plans hold a solver
// node, on fresh planners and through the uncached PlanGuest, from 8
// goroutines at once, adds no table miss (no second search), and every
// plan builds its own copy of the same embedding.  The cylinder's solver node sits in its ring base, which is
// planned through PlanShape.
func TestSolverTableSearchesOnce(t *testing.T) {
	guests := []digestGuest{
		{guest.Mesh, mesh.Shape{3, 5, 25}},
		{guest.Mesh, mesh.Shape{3, 9, 15}},
		{guest.Mesh, mesh.Shape{5, 9, 9}},
		{guest.Cylinder, mesh.Shape{9, 9, 10}},
	}
	want := make([]*Plan, len(guests))
	nodes := 0
	for i, g := range guests {
		want[i] = NewPlanner(DefaultOptions).PlanGuest(g.f, g.s)
		n := len(solverNodes(want[i]))
		if n == 0 {
			t.Fatalf("%v %v: plan %s holds no solver node", g.f, g.s, want[i])
		}
		nodes += n
	}
	if p := want[3]; p.Kind != KindRing || len(solverNodes(p.Child)) == 0 {
		t.Fatalf("cylinder plan %s: no solver node in a ring base", p)
	}
	before := solverPlans.stats()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, g := range guests {
				uncached, _ := PlanGuest(g.f, g.s, DefaultOptions)
				for _, p := range []*Plan{NewPlanner(DefaultOptions).PlanGuest(g.f, g.s), uncached} {
					if p.String() != want[i].String() {
						t.Errorf("%v %v: plan %s, want %s", g.f, g.s, p, want[i])
						continue
					}
					for j, n := range solverNodes(p) {
						e := n.Build()
						if !sameBuild(e, solverNodes(want[i])[j].Build()) {
							t.Errorf("%v %v: solver node %v builds another embedding", g.f, g.s, n.Shape)
						}
						e.Map[0], e.Map[1] = e.Map[1], e.Map[0]
					}
				}
			}
		}()
	}
	wg.Wait()
	after := solverPlans.stats()
	if after.Misses != before.Misses {
		t.Errorf("re-planning made %d more solver searches, want 0", after.Misses-before.Misses)
	}
	if hits := after.Hits - before.Hits; hits < uint64(16*nodes) {
		t.Errorf("re-planning found %d solver nodes in the table, want at least %d", hits, 16*nodes)
	}
}
