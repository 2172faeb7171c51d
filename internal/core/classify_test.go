package core

import (
	"math/bits"
	"testing"

	"repro/internal/guest"
	"repro/internal/mesh"
)

// plansAgree compares the fields /v1/plan and the artifact serve from a
// plan: the rendered tree, kind, family, cube dimension, dilation bound and
// method.  Claimed plans are leaves, so this is full structural equality.
func plansAgree(p, q *Plan) bool {
	return p.Kind == q.Kind && p.Family == q.Family && p.CubeDim == q.CubeDim &&
		p.Dilation == q.Dilation && p.Method == q.Method &&
		p.Shape.Equal(q.Shape) && p.String() == q.String()
}

// classifyBound is the exhaustive-parity bound per axis: the full ≤ 2⁹
// domain of the acceptance criterion, trimmed under -short.
func classifyBound(t *testing.T) int {
	if testing.Short() {
		return 64
	}
	return 512
}

// ceil2 is ⌈x⌉₂, the least power of two ≥ x (x ≥ 1).
func ceil2(x uint64) uint64 { return 1 << bits.Len64(x-1) }

// isPow2 reports whether l is a power of two.
func isPow2(l int) bool { return bits.OnesCount64(uint64(l)) == 1 }

// grayMinimalRef is Theorem 2's arithmetic, independent of the planner:
// the Gray embedding of s is minimal iff Π⌈ℓᵢ⌉₂ = ⌈Πℓᵢ⌉₂.
func grayMinimalRef(s mesh.Shape) bool {
	prod, prodCeil := uint64(1), uint64(1)
	for _, l := range s {
		prod *= uint64(l)
		prodCeil *= ceil2(uint64(l))
	}
	return prodCeil == ceil2(prod)
}

// claimRef is the closed-form stratum of each family, written from the
// paper's arithmetic rather than from the classifier: Gray-minimal meshes,
// tori whose every axis is a power of two, cylinders whose wrapped last
// axis is ≤ 2 or a power of two on a Gray-minimal shape, and every tree.
func claimRef(f guest.Family, s mesh.Shape) bool {
	switch f {
	case guest.Torus:
		for _, l := range s {
			if !isPow2(l) {
				return false
			}
		}
		return true
	case guest.Cylinder:
		l := s[len(s)-1]
		return (l <= 2 || isPow2(l)) && grayMinimalRef(s)
	case guest.Tree:
		return true
	}
	return grayMinimalRef(s)
}

// buildDomain bounds the shapes whose claimed plan checkClaim also builds
// and measures: 1-D and 2-D axes ≤ 64, 3-D axes ≤ 16, trees ≤ 2¹²−1 nodes.
func buildDomain(f guest.Family, s mesh.Shape) bool {
	if f == guest.Tree {
		return s[0] < 1<<12
	}
	bound := 64
	if s.Dims() >= 3 {
		bound = 16
	}
	for _, l := range s {
		if l > bound {
			return false
		}
	}
	return true
}

// checkClaim holds the classifier's answer for (f, s) to the independent
// reference: it claims exactly the shapes claimRef names, and inside
// buildDomain every claimed plan builds, verifies, reaches the minimal cube
// and measures a dilation no greater than its bound.  It reports whether s
// was claimed.
func checkClaim(t *testing.T, f guest.Family, s mesh.Shape) bool {
	t.Helper()
	p, ok := ClassifyGuest(f, s)
	if want := claimRef(f, s); ok != want {
		t.Fatalf("ClassifyGuest(%v, %v) claimed = %v, the closed-form stratum says %v", f, s, ok, want)
	}
	if !ok || !buildDomain(f, s) {
		return ok
	}
	e := p.Build()
	if err := e.Verify(); err != nil {
		t.Fatalf("ClassifyGuest(%v, %v) = %v builds an invalid embedding: %v", f, s, p, err)
	}
	if !e.Minimal() {
		t.Fatalf("ClassifyGuest(%v, %v) = %v builds a %d-cube, minimal is %d", f, s, p, e.N, s.MinCubeDim())
	}
	if d := e.Measure().Dilation; d > p.Dilation {
		t.Fatalf("ClassifyGuest(%v, %v) = %v measures dilation %d over its bound %d", f, s, p, d, p.Dilation)
	}
	return true
}

// TestClassifyParityMesh checks the claim contract exhaustively on meshes:
// every sorted 3-D shape with axes ≤ 2⁹ (the full plan-census domain), plus
// 1-D/2-D ranges, against Theorem 2's predicate (checkClaim).  Parity on
// unsorted axis orders is covered separately.
func TestClassifyParityMesh(t *testing.T) {
	bound := classifyBound(t)
	claimed, checked := 0, 0
	check := func(s mesh.Shape) {
		checked++
		if checkClaim(t, guest.Mesh, s) {
			claimed++
		}
	}
	for a := 1; a <= bound; a++ {
		check(mesh.Shape{a})
		for b := a; b <= bound; b++ {
			check(mesh.Shape{a, b})
			for c := b; c <= bound; c++ {
				check(mesh.Shape{a, b, c})
			}
		}
	}
	if claimed == 0 || claimed == checked {
		t.Fatalf("degenerate parity run: %d of %d shapes claimed", claimed, checked)
	}
	t.Logf("mesh parity: %d of %d shapes claimed and verified", claimed, checked)
}

// TestClassifyParityGuests checks the guest families against their
// closed-form strata (checkClaim): every canonical torus/cylinder up to a
// 3-D bound and every tree up to 2²⁰−1 nodes.
func TestClassifyParityGuests(t *testing.T) {
	bound := 64
	if testing.Short() {
		bound = 24
	}
	for _, fam := range []guest.Family{guest.Torus, guest.Cylinder} {
		claimed, checked := 0, 0
		for _, dims := range []int{1, 2, 3} {
			for _, s := range FamilyShapes(fam, dims, bound, 1<<30) {
				checked++
				if checkClaim(t, fam, s) {
					claimed++
				}
			}
		}
		if claimed == 0 {
			t.Fatalf("family %v: nothing claimed of %d shapes", fam, checked)
		}
		t.Logf("%v parity: %d of %d claimed and verified", fam, claimed, checked)
	}
	for h := 0; h <= 20; h++ {
		checkClaim(t, guest.Tree, mesh.Shape{1<<uint(h+1) - 1})
	}
}

// TestClassifyParityPermuted checks caller-axis-order parity through the
// caching Planner (the exact objects the server substitutes for each
// other): all permutations of a sampled shape set.
func TestClassifyParityPermuted(t *testing.T) {
	pl := NewPlanner(DefaultOptions)
	shapes := []mesh.Shape{
		{4, 2, 8}, {8, 2, 4}, {16, 3, 4}, {5, 2, 2}, {2, 5, 2},
		{64, 2, 1}, {1, 32, 2}, {128, 4, 2}, {3, 4, 16}, {7, 2, 32},
	}
	for _, fam := range []guest.Family{guest.Mesh, guest.Torus, guest.Cylinder} {
		for _, s := range shapes {
			if guest.Validate(fam, s) != nil {
				continue
			}
			p, ok := ClassifyGuest(fam, s)
			if !ok {
				continue
			}
			got, err := pl.TryPlanGuest(fam, s)
			if err != nil {
				t.Fatalf("TryPlanGuest(%v, %v): %v", fam, s, err)
			}
			if !plansAgree(p, got) {
				t.Fatalf("ClassifyGuest(%v, %v) = %v, Planner says %v", fam, s, p, got)
			}
		}
	}
}

// BenchmarkClassifyShape measures the per-shape closed-form classifier on
// the sorted 3-D shapes with axes ≤ 64 (claimed and unclaimed mixed) —
// one op is one shape.
func BenchmarkClassifyShape(b *testing.B) {
	var shapes []mesh.Shape
	for a := 1; a <= 64; a++ {
		shapes = append(shapes, SortedShapesFrom(a, 3, 64, 1<<30)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassifyShape(shapes[i%len(shapes)])
	}
}
