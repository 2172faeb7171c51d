package core

import (
	"repro/internal/bits"
	"repro/internal/mesh"
)

// planPairPlusGray implements method 2 for three-axis shapes: find an axis
// pair (i, j) with ⌈ℓiℓj⌉₂ · ⌈ℓk⌉₂ == ⌈ℓ1ℓ2ℓ3⌉₂, embed the ℓi×ℓj mesh
// two-dimensionally and the remaining axis by a Gray code.  Among valid
// pairs the one whose 2D plan has the lowest guaranteed dilation wins,
// matching the paper's advice to pick the two axes with the smallest
// ℓ/⌈ℓ⌉₂.
func (pc *planContext) planPairPlusGray(s mesh.Shape, foldDepth int) *Plan {
	axes := activeAxes(s)
	if len(axes) != 3 {
		return nil
	}
	target := s.MinCubeDim()
	k := s.Dims()
	var best *Plan
	for t := 0; t < 3; t++ {
		i, j, rest := axes[t], axes[(t+1)%3], axes[(t+2)%3]
		pairDim := bits.CeilLog2(uint64(s[i] * s[j]))
		grayDim := bits.CeilLog2(uint64(s[rest]))
		if pairDim+grayDim != target {
			continue
		}
		pairShape := shapeWithAxes(k, []int{i, j}, []int{s[i], s[j]})
		pairPlan := pc.planMinimalDepth(pairShape, foldDepth)
		if pairPlan == nil {
			// Chan [4] guarantees a dilation-2 embedding exists; our
			// constructive stand-in is the snake fallback with measured
			// dilation (see DESIGN.md, substitution 1b).
			pairPlan = &Plan{Kind: KindSnake, Shape: pairShape, CubeDim: pairDim,
				Dilation: DilationUnknown}
		}
		grayShape := shapeWithAxes(k, []int{rest}, []int{s[rest]})
		grayPlan := &Plan{Kind: KindGray, Shape: grayShape, CubeDim: grayDim, Dilation: 1}
		prod := &Plan{
			Kind: KindProduct, Shape: s.Clone(), CubeDim: target,
			Dilation: max(pairPlan.Dilation, 1),
			Factors:  []*Plan{pairPlan, grayPlan},
			Method:   2,
		}
		best = better(best, prod)
	}
	return best
}

// planBySplit implements method 4: split one axis as ℓ'·ℓ” ≥ ℓ and embed
// the product of two two-dimensional meshes (Corollary 2), restricting to
// the guest at the end.  It chooses a split axis m and the remaining axes
// a, b; finds ℓ'·ℓ” ≥ ℓm with ⌈ℓa·ℓ'⌉₂ · ⌈ℓ”·ℓb⌉₂ == ⌈ℓ1ℓ2ℓ3⌉₂; and embeds
// the product (ℓa × ℓ') ⊗ (ℓ” × ℓb).
func (pc *planContext) planBySplit(s mesh.Shape, foldDepth int) *Plan {
	axes := activeAxes(s)
	if len(axes) != 3 {
		return nil
	}
	target := s.MinCubeDim()
	k := s.Dims()
	total := uint64(1) << uint(target)
	var best *Plan
	for t := 0; t < 3; t++ {
		m, a, b := axes[t], axes[(t+1)%3], axes[(t+2)%3]
		lm, la, lb := s[m], s[a], s[b]
		for p := 0; p <= target; p++ {
			P := uint64(1) << uint(p)
			Q := total / P
			lp, lpp, ok := splitFactors(lm, la, lb, P, Q)
			if !ok {
				continue
			}
			f1Shape := shapeWithAxes(k, []int{a, m}, []int{la, lp})
			f2Shape := shapeWithAxes(k, []int{m, b}, []int{lpp, lb})
			f1 := pc.planMinimalOrSnake(f1Shape, foldDepth)
			f2 := pc.planMinimalOrSnake(f2Shape, foldDepth)
			if f1.CubeDim+f2.CubeDim != target {
				continue
			}
			super := f1Shape.Product(f2Shape)
			prod := &Plan{
				Kind: KindProduct, Shape: super, CubeDim: target,
				Dilation: max(f1.Dilation, f2.Dilation),
				Factors:  []*Plan{f1, f2},
			}
			var cand *Plan
			if super.Equal(s) {
				prod.Method = 4
				cand = prod
			} else {
				cand = &Plan{Kind: KindSubMesh, Shape: s.Clone(), CubeDim: target,
					Dilation: prod.Dilation, Super: super, Child: prod, Method: 4}
			}
			best = better(best, cand)
			if best.Dilation <= 2 {
				return best
			}
		}
	}
	return best
}

// splitFactors solves method 4's arithmetic for one (P, Q) factorization of
// the minimal cube: find ℓ', ℓ” with ℓ'·ℓ” ≥ ℓm, ⌈ℓa·ℓ'⌉₂ == P and
// ⌈ℓ”·ℓb⌉₂ == Q, keeping the extension waste ℓ'ℓ” − ℓm small.
// A feasible pair exists iff ⌊P/ℓa⌋·⌊Q/ℓb⌋ ≥ ℓm (with both ≥ 1).
func splitFactors(lm, la, lb int, P, Q uint64) (lp, lpp int, ok bool) {
	lpMax := int(P) / la
	lppMax := int(Q) / lb
	if lpMax < 1 || lppMax < 1 || lpMax*lppMax < lm {
		return 0, 0, false
	}
	// With lp = lpMax, ⌈la·lp⌉₂ == P automatically (la·lpMax > P−la ≥ P/2
	// unless lpMax == 1, where la ∈ (P/2, P]).  Pick the smallest ℓ''
	// that still satisfies ⌈ℓ''·ℓb⌉₂ == Q, i.e. ℓ''·ℓb > Q/2.
	lppLo := int(Q/2)/lb + 1
	lpp = (lm + lpMax - 1) / lpMax // ⌈ℓm/ℓ'⌉, the least cover
	if lpp < lppLo {
		lpp = lppLo
	}
	if lpp > lppMax {
		return 0, 0, false
	}
	// Shrink ℓ' back as far as the cover and ⌈ℓa·ℓ'⌉₂ == P allow, to
	// minimize the SubMesh waste.
	lp = (lm + lpp - 1) / lpp
	if lo1 := int(P/2)/la + 1; lp < lo1 {
		lp = lo1
	}
	if lp > lpMax || lp*lpp < lm {
		lp = lpMax
	}
	return lp, lpp, true
}
