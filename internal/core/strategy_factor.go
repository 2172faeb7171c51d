package core

import (
	"repro/internal/bits"
	"repro/internal/direct"
	"repro/internal/mesh"
)

// planByFactoring searches decompositions s = t ∘ r where t matches a
// direct table and the residual r is planned recursively (Gray, deeper
// factoring, or the solver) — the paper's method 3 generalized to richer
// decompositions.  depth caps the recursion.
func (pc *planContext) planByFactoring(s mesh.Shape, depth int) *Plan {
	if depth > 3 {
		return nil
	}
	target := s.MinCubeDim()
	var best *Plan
	k := s.Dims()
	for _, tab := range direct.Tables {
		// The table's axes of length > 1, each placed on an axis of s
		// it divides.
		var tl []int
		for _, l := range tab.Shape {
			if l > 1 {
				tl = append(tl, l)
			}
		}
		for _, axes := range axisInjections(tl, s) {
			residual := s.Clone()
			tshape := shapeWithAxes(k, axes, tl)
			for i := range s {
				residual[i] = s[i] / tshape[i]
			}
			tdim := tab.Shape.MinCubeDim()
			rdim := target - tdim
			if rdim < 0 || bits.CeilLog2(uint64(residual.Nodes())) > rdim {
				continue // residual cannot fit the remaining dimensions
			}
			var rplan *Plan
			if residual.GrayCubeDim() == rdim {
				rplan = &Plan{Kind: KindGray, Shape: residual, CubeDim: rdim, Dilation: 1}
			} else if residual.MinCubeDim() == rdim {
				rplan = pc.planByFactoring(residual, depth+1)
				if rplan == nil {
					rplan = pc.planBySolver(residual)
				}
			}
			if rplan == nil {
				continue
			}
			dplan := &Plan{Kind: KindDirect, Shape: tshape, CubeDim: tdim, Dilation: tab.Dilation}
			prod := &Plan{
				Kind: KindProduct, Shape: s.Clone(), CubeDim: target,
				Dilation: max(dplan.Dilation, rplan.Dilation),
				Factors:  []*Plan{dplan, rplan},
			}
			best = better(best, prod)
		}
	}
	return best
}

// axisInjections lists the ways to assign the lengths tl (all > 1) to
// distinct axes of s that they divide.
func axisInjections(tl []int, s mesh.Shape) [][]int {
	var out [][]int
	used := make([]bool, s.Dims())
	cur := make([]int, len(tl))
	var rec func(i int)
	rec = func(i int) {
		if i == len(tl) {
			cp := make([]int, len(cur))
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for j := 0; j < s.Dims(); j++ {
			if !used[j] && s[j]%tl[i] == 0 {
				used[j] = true
				cur[i] = j
				rec(i + 1)
				used[j] = false
			}
		}
	}
	rec(0)
	return out
}

// planByExtension grows one axis of s while ⌈|V|⌉₂ is unchanged, plans
// the grown shape (direct or factoring), and restricts to the guest
// via a SubMesh node — the paper's extension step.
func (pc *planContext) planByExtension(s mesh.Shape) *Plan {
	target := s.MinCubeDim()
	total := uint64(1) << uint(target)
	var best *Plan
	for i := range s {
		rest := 1
		for j := range s {
			if j != i {
				rest *= s[j]
			}
		}
		// A grown shape's minimal cube is s's, and it is not Gray-minimal
		// (else s would be, and the classifier answers those).
		maxLen := int(total) / rest
		for l := s[i] + 1; l <= maxLen; l++ {
			grown := s.Clone()
			grown[i] = l
			if _, _, ok := direct.Lookup(grown); ok {
				child := &Plan{Kind: KindDirect, Shape: grown, CubeDim: target, Dilation: 2}
				sub := &Plan{Kind: KindSubMesh, Shape: s.Clone(), CubeDim: target,
					Dilation: 2, Super: grown, Child: child}
				best = better(best, sub)
				continue
			}
			if p := pc.planByFactoring(grown, 1); p != nil {
				sub := &Plan{Kind: KindSubMesh, Shape: s.Clone(), CubeDim: target,
					Dilation: p.Dilation, Super: grown, Child: p}
				best = better(best, sub)
			}
		}
	}
	return best
}
