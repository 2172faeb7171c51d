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

// GrayMinimalCount counts the ordered triples (ℓ1, ℓ2, ℓ3) with every axis
// in 1..2^maxN that the classifier claims (the Gray-minimal, dilation-1
// stratum) — the census-mode entry point.  It never enumerates shapes:
// within a power-of-two block of the third axis, ⌈ℓ3⌉₂ is constant and the
// claim condition ⌈ℓ1⌉₂·⌈ℓ2⌉₂·⌈ℓ3⌉₂ = ⌈ℓ1ℓ2ℓ3⌉₂ reduces to an interval
// test ℓ1ℓ2ℓ3 ∈ (X/2, X], so each (ℓ1, ℓ2, block) contributes a closed-form
// count.  O(4^maxN · maxN) for a 8^maxN-shape domain — amortized far below
// one operation per shape.
func GrayMinimalCount(maxN int) uint64 {
	n := uint64(1) << uint(maxN)
	var total uint64
	for a := uint64(1); a <= n; a++ {
		c2a := bits.CeilPow2(a)
		for b := uint64(1); b <= n; b++ {
			ab := a * b
			x := c2a * bits.CeilPow2(b) // running X = ⌈a⌉₂⌈b⌉₂⌈block⌉₂
			// Blocks of the third axis: {1}, then (2^k, 2^(k+1)].
			lo, hi := uint64(1), uint64(1)
			for {
				// Claimed c in this block satisfy c ∈ (X/(2ab), X/ab].
				cHi := min(x/ab, hi)
				cLo := max(x/(2*ab)+1, lo)
				if cHi >= cLo {
					total += cHi - cLo + 1
				}
				if hi >= n {
					break
				}
				lo, hi = hi+1, hi*2
				x *= 2
			}
		}
	}
	return total
}
