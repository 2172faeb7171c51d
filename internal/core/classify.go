package core

import (
	"repro/internal/bits"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// Closed-form plan classifier: the provably-trivial strata of the plan
// space are decidable by pure arithmetic on ⌈log₂⌉s, with no embedding
// construction and no strategy-pipeline run.  The classifier is the
// planner's first step — planGuest asks ClassifyGuest, and planDispatch
// asks ClassifyShape at every recursion point — so each closed-form plan is
// written here and nowhere else: the Gray-minimal stratum (Theorem 2), the
// all-power-of-two torus and the power-of-two-ring cylinder (the Section 6
// cyclic Gray codes), and every complete binary tree (the inorder
// labeling).  The server asks it too, before its artifact and planner
// tiers.
//
// The claimed strata never consult the solver budget, so for every
// (family, shape) ClassifyGuest claims, PlanGuest(family, shape, opts)
// returns the same plan for every opts.  TestClassifyParity checks this
// exhaustively.

// ClassifyShape returns the closed-form plan for a mesh shape, or
// (nil, false) when the shape's plan genuinely needs the strategy
// pipeline.  Every path (at most one axis longer than 1) is Gray-minimal.
// The shape must already be valid (see mesh.Shape.Validate); the
// classifier performs no validation of its own.
func ClassifyShape(s mesh.Shape) (*Plan, bool) {
	if !s.GrayMinimal() {
		return nil, false
	}
	return &Plan{Kind: KindGray, Shape: s.Clone(), CubeDim: s.MinCubeDim(),
		Dilation: 1, Method: 1}, true
}

// ClassifyGuest is the guest-family counterpart of ClassifyShape: the plan
// for (f, s) when it is closed-form decidable, in the caller's axis order
// (the claimed plans are relabeling-invariant, so no canonicalization is
// needed).  The shape must already be a valid guest of the family.
func ClassifyGuest(f guest.Family, s mesh.Shape) (*Plan, bool) {
	switch f {
	case guest.Mesh:
		return ClassifyShape(s)
	case guest.Torus:
		// The cyclic Gray code wins when every axis is a power of two
		// (then Σ⌈log₂⌉ = ⌈log₂ Π⌉, so it is minimal too).
		for _, l := range s {
			if !bits.IsPow2(uint64(l)) {
				return nil, false
			}
		}
		return &Plan{Kind: KindGray, Family: guest.Torus, Shape: s.Clone(),
			CubeDim: s.GrayCubeDim(), Dilation: 1, Method: 1}, true
	case guest.Cylinder:
		// A wrapped axis of length ≤ 2 degenerates to a mesh edge (the
		// mesh plan, family stamped), so the mesh stratum applies;
		// otherwise the cyclic Gray code closes the ring exactly when the
		// last axis is a power of two, and wins when minimal.
		l := s[s.Dims()-1]
		if l <= 2 {
			p, ok := ClassifyShape(s)
			if !ok {
				return nil, false
			}
			p.Family = guest.Cylinder
			return p, true
		}
		if bits.IsPow2(uint64(l)) && s.GrayMinimal() {
			return &Plan{Kind: KindGray, Family: guest.Cylinder, Shape: s.Clone(),
				CubeDim: s.GrayCubeDim(), Dilation: 1, Method: 1}, true
		}
		return nil, false
	case guest.Tree:
		// The inorder labeling is the plan for every complete binary tree:
		// always minimal with dilation 2 (1-node trees have no edges,
		// hence dilation 0).
		d := 2
		if s[0] == 1 {
			d = 0
		}
		return &Plan{Kind: KindTree, Family: guest.Tree, Shape: s.Clone(),
			CubeDim: s.MinCubeDim(), Dilation: d, Method: 5}, true
	}
	return nil, false
}
