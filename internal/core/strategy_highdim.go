package core

import (
	"repro/internal/bits"
	"repro/internal/mesh"
)

// planHighDim plans shapes with four or more axes of length > 1 (the
// strategy of Section 4.2): power-of-two axes are pulled into one Gray
// factor — always free, since ⌈a·2^c⌉₂ = 2^c·⌈a⌉₂ — and the remaining axes
// are planned recursively when three or fewer remain, or paired up
// two-dimensionally otherwise.
func (pc *planContext) planHighDim(s mesh.Shape) *Plan {
	k := s.Dims()
	var pow2Axes, oddAxes []int
	for i, l := range s {
		if l == 1 {
			continue
		}
		if bits.IsPow2(uint64(l)) {
			pow2Axes = append(pow2Axes, i)
		} else {
			oddAxes = append(oddAxes, i)
		}
	}
	target := s.MinCubeDim()

	if len(pow2Axes) > 0 && len(oddAxes) > 0 {
		lengths := make([]int, len(pow2Axes))
		grayDim := 0
		for i, a := range pow2Axes {
			lengths[i] = s[a]
			grayDim += bits.CeilLog2(uint64(s[a]))
		}
		grayShape := shapeWithAxes(k, pow2Axes, lengths)
		grayPlan := &Plan{Kind: KindGray, Shape: grayShape, CubeDim: grayDim, Dilation: 1}
		restLengths := make([]int, len(oddAxes))
		for i, a := range oddAxes {
			restLengths[i] = s[a]
		}
		restShape := shapeWithAxes(k, oddAxes, restLengths)
		restPlan := pc.planMinimalOrSnake(restShape, 1)
		if grayDim+restPlan.CubeDim == target {
			return &Plan{
				Kind: KindProduct, Shape: s.Clone(), CubeDim: target,
				Dilation: max(1, restPlan.Dilation),
				Factors:  []*Plan{grayPlan, restPlan},
				Method:   2,
			}
		}
	}

	// All-odd high-dimensional shapes: pair axes two-dimensionally and
	// check the pairing reaches the minimal cube.
	if len(oddAxes) >= 4 {
		if p := pc.planByPairing(s, oddAxes); p != nil {
			return p
		}
	}
	return nil
}

// planByPairing partitions the given axes into pairs (one axis may remain
// single) and embeds each pair two-dimensionally; valid when the pairwise
// ⌈·⌉₂ products multiply to the minimal cube.
//
// Many partial partitions reach the same search state: the same remaining
// axes with the same cube dimensions used.  Only the state decides whether
// a partition can still complete, so a state whose full search completed
// none is recorded as dead and skipped on re-entry.  A search is cut short
// only once a dilation-2 plan is in hand, so every state recorded dead was
// searched in full, and the pruning never changes the plan.
func (pc *planContext) planByPairing(s mesh.Shape, axes []int) *Plan {
	k := s.Dims()
	target := s.MinCubeDim()
	// A state's remaining axes are a bit set over positions in axes.  The
	// axes all have length ≥ 3, and a shape whose node count fits an int
	// has at most 39 of them (3^40 > 2^63), so the set fits a uint64.
	type state struct {
		remaining uint64
		dims      int
	}
	pos := make([]uint, k)
	for i, a := range axes {
		pos[a] = uint(i)
	}
	dead := make(map[state]bool)
	partitions := 0
	var best *Plan
	var rec func(remaining []int, factors []*Plan, dims int)
	rec = func(remaining []int, factors []*Plan, dims int) {
		if best != nil && best.Dilation <= 2 {
			return
		}
		if len(remaining) == 0 {
			if dims != target {
				return
			}
			partitions++
			fs := make([]*Plan, len(factors))
			copy(fs, factors)
			d := 0
			for _, f := range fs {
				d = max(d, f.Dilation)
			}
			best = better(best, &Plan{Kind: KindProduct, Shape: s.Clone(),
				CubeDim: target, Dilation: d, Factors: fs, Method: 2})
			return
		}
		st := state{dims: dims}
		for _, a := range remaining {
			st.remaining |= 1 << pos[a]
		}
		if dead[st] {
			return
		}
		found := partitions
		a := remaining[0]
		// Pair a with each later axis.
		for i := 1; i < len(remaining); i++ {
			b := remaining[i]
			pairShape := shapeWithAxes(k, []int{a, b}, []int{s[a], s[b]})
			pd := pairShape.MinCubeDim()
			if dims+pd > target {
				continue
			}
			rest := append(append([]int{}, remaining[1:i]...), remaining[i+1:]...)
			fp := pc.planMinimalOrSnake(pairShape, 1)
			rec(rest, append(factors, fp), dims+pd)
		}
		// Triple a with two later axes (the §5 three-dimensional methods,
		// e.g. the 3x3x3 block inside 6x6x6x6).
		for i := 1; i < len(remaining); i++ {
			for j := i + 1; j < len(remaining); j++ {
				b, c := remaining[i], remaining[j]
				tripleShape := shapeWithAxes(k, []int{a, b, c}, []int{s[a], s[b], s[c]})
				td := tripleShape.MinCubeDim()
				if dims+td > target {
					continue
				}
				rest := append(append([]int{}, remaining[1:i]...), remaining[i+1:j]...)
				rest = append(rest, remaining[j+1:]...)
				fp := pc.planMinimalOrSnake(tripleShape, 1)
				rec(rest, append(factors, fp), dims+td)
			}
		}
		// Or leave a single (Gray).
		singleShape := shapeWithAxes(k, []int{a}, []int{s[a]})
		gd := bits.CeilLog2(uint64(s[a]))
		if dims+gd <= target {
			gp := &Plan{Kind: KindGray, Shape: singleShape, CubeDim: gd, Dilation: 1}
			rec(remaining[1:], append(factors, gp), dims+gd)
		}
		if partitions == found {
			dead[st] = true
		}
	}
	rec(axes, nil, 0)
	return best
}
