// The bounds gate (`make bounds-check`): a golden table of shapes the
// planner is known to embed optimally, asserted against both the certified
// floors of this package and the embeddings the planner actually builds
// today.  A failure here means either a bound got weaker (a floor rose
// above a provably achievable value) or a strategy regressed (the planner
// stopped achieving a floor it used to reach).  It lives in an external
// test package so it can drive internal/core and internal/embed against
// the bounds without an import cycle.
package bounds_test

import (
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// knownOptimal is the golden table.  For every entry the planner's built
// embedding provably meets the dilation floor; entries with fullyOptimal
// also meet the wirelength and congestion floors (gap_to_optimal == 0 on
// all three measures).
//
//   - Gray-minimal meshes (Σ⌈lg aᵢ⌉ == ⌈lg m⌉): the Gray embedding is
//     dilation-1, so wirelength == E and congestion == 1 — optimal on
//     everything.
//   - Power-of-two tori and cylinders: the reflected Gray code is cyclic
//     (first and last codewords differ in one bit), so wrap edges are also
//     dilation-1.
//   - Complete binary trees (2^k−1 nodes, k ≥ 3): not subgraphs of their
//     minimal cube (the bipartition argument of Rajan et al.), so the
//     floor is 2 and the inorder-numbering construction achieves it.
var knownOptimal = []struct {
	family       guest.Family
	shape        mesh.Shape
	dilation     int  // the certified floor the planner must achieve
	fullyOptimal bool // wirelength and congestion floors met too
}{
	{guest.Mesh, mesh.Shape{2, 2}, 1, true},
	{guest.Mesh, mesh.Shape{2, 3}, 1, true},
	{guest.Mesh, mesh.Shape{4, 4}, 1, true},
	{guest.Mesh, mesh.Shape{2, 3, 4}, 1, true},
	{guest.Mesh, mesh.Shape{2, 4, 8}, 1, true},
	{guest.Mesh, mesh.Shape{4, 4, 4}, 1, true},
	{guest.Mesh, mesh.Shape{8, 8}, 1, true},
	{guest.Mesh, mesh.Shape{16, 16}, 1, true},
	{guest.Torus, mesh.Shape{4, 4}, 1, true},
	{guest.Torus, mesh.Shape{4, 8}, 1, true},
	{guest.Torus, mesh.Shape{8, 8}, 1, true},
	{guest.Torus, mesh.Shape{16, 16}, 1, true},
	{guest.Torus, mesh.Shape{4, 4, 4}, 1, true},
	{guest.Cylinder, mesh.Shape{4, 8}, 1, true},
	{guest.Cylinder, mesh.Shape{4, 16}, 1, true},
	{guest.Cylinder, mesh.Shape{16, 16}, 1, true},
	{guest.Tree, mesh.Shape{7}, 2, false},
	{guest.Tree, mesh.Shape{15}, 2, false},
	{guest.Tree, mesh.Shape{31}, 2, false},
	{guest.Tree, mesh.Shape{63}, 2, false},
	{guest.Tree, mesh.Shape{127}, 2, false},
}

// TestKnownOptimalFloors pins the floors themselves: if a formula change
// moves a bound on a golden shape, the table catches it before the planner
// comparison can mask it.
func TestKnownOptimalFloors(t *testing.T) {
	for _, kc := range knownOptimal {
		b := bounds.Minimal(kc.family, kc.shape)
		if b.Dilation != kc.dilation {
			t.Errorf("%s %s: dilation floor = %d, golden table says %d",
				kc.family, kc.shape, b.Dilation, kc.dilation)
		}
		if kc.fullyOptimal {
			e := int64(guest.Get(kc.family).Edges(kc.shape))
			if b.Wirelength != e {
				t.Errorf("%s %s: wirelength floor = %d, want E = %d (dilation-1 shapes)",
					kc.family, kc.shape, b.Wirelength, e)
			}
			if b.Congestion != 1 {
				t.Errorf("%s %s: congestion floor = %d, want 1", kc.family, kc.shape, b.Congestion)
			}
		}
	}
}

// TestPlannerAchievesKnownOptimal is the regression gate: the planner's
// built embedding must meet the dilation floor on every golden shape, and
// the wirelength/congestion floors where the table promises them.  The
// plan-level certificate must agree before anything is built.
func TestPlannerAchievesKnownOptimal(t *testing.T) {
	for _, kc := range knownOptimal {
		p, err := core.PlanGuest(kc.family, kc.shape, core.DefaultOptions)
		if err != nil {
			t.Errorf("%s %s: plan: %v", kc.family, kc.shape, err)
			continue
		}
		dil := p.Dilation
		if dil == core.DilationUnknown {
			dil = -1
		}
		c := bounds.PlanCertificate(kc.family, kc.shape, p.CubeDim, dil)
		if !c.Optimal || c.DilationGap != 0 {
			t.Errorf("%s %s: plan certificate gap = %d (optimal=%v), want 0 — strategy regressed a known-optimal shape (plan %s)",
				kc.family, kc.shape, c.DilationGap, c.Optimal, p)
		}
		b := c.LowerBounds
		em := p.Build()
		if err := em.Verify(); err != nil {
			t.Errorf("%s %s: %v", kc.family, kc.shape, err)
			continue
		}
		m := em.Measure()
		if m.CubeDim != kc.shape.MinCubeDim() {
			t.Errorf("%s %s: built into a %d-cube, minimal is %d",
				kc.family, kc.shape, m.CubeDim, kc.shape.MinCubeDim())
		}
		if m.Dilation != b.Dilation {
			t.Errorf("%s %s: measured dilation %d, certified floor %d",
				kc.family, kc.shape, m.Dilation, b.Dilation)
		}
		if kc.fullyOptimal {
			if m.Wirelength != b.Wirelength {
				t.Errorf("%s %s: measured wirelength %d, certified floor %d",
					kc.family, kc.shape, m.Wirelength, b.Wirelength)
			}
			if m.Congestion != b.Congestion {
				t.Errorf("%s %s: measured congestion %d, certified floor %d",
					kc.family, kc.shape, m.Congestion, b.Congestion)
			}
		}
	}
}

// TestGrayBaselineStaysOptimalOnGrayMinimalMeshes gates the baseline
// strategy separately from the planner: on Gray-minimal meshes the Gray
// embedding itself (not whatever the planner happens to choose) must stay
// optimal on all three measures.
func TestGrayBaselineStaysOptimalOnGrayMinimalMeshes(t *testing.T) {
	for _, kc := range knownOptimal {
		if kc.family != guest.Mesh {
			continue
		}
		em := embed.Gray(kc.shape)
		if err := em.Verify(); err != nil {
			t.Fatalf("gray %s: %v", kc.shape, err)
		}
		m := em.Measure()
		b := bounds.For(guest.Mesh, kc.shape, m.CubeDim)
		if m.Dilation != b.Dilation || m.Wirelength != b.Wirelength || m.Congestion != b.Congestion {
			t.Errorf("gray %s: measured dil=%d wl=%d cong=%d, floors dil=%d wl=%d cong=%d",
				kc.shape, m.Dilation, m.Wirelength, m.Congestion,
				b.Dilation, b.Wirelength, b.Congestion)
		}
	}
}
