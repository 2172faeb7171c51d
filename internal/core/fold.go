package core

import (
	"fmt"

	"repro/internal/embed"
	"repro/internal/mesh"
)

// foldedShape returns the shape with axis `axis` (of length a·b) replaced
// by length a and a new trailing axis of length b.
func foldedShape(s mesh.Shape, axis, a, b int) mesh.Shape {
	out := make(mesh.Shape, len(s)+1)
	copy(out, s)
	out[axis] = a
	out[len(s)] = b
	return out
}

// unfold converts an embedding of the folded mesh back to the guest: guest
// coordinate y on the folded axis splits as y = q·b + j, with j reflected on
// odd strips q so strip seams coincide with folded-mesh edges.  Every guest
// edge maps to a folded-mesh edge, so dilation and congestion are inherited.
func unfold(fe *embed.Embedding, guest mesh.Shape, axis, a, b int) *embed.Embedding {
	fs := fe.Guest
	if fs.Dims() != guest.Dims()+1 || fs[axis] != a || fs[fs.Dims()-1] != b {
		panic(fmt.Sprintf("core: unfold shape mismatch: folded %v, guest %v (axis %d = %dx%d)",
			fs, guest, axis, a, b))
	}
	if a*b < guest[axis] {
		panic("core: fold factors do not cover the axis")
	}
	e := embed.New(guest, fe.N)
	gc := make([]int, guest.Dims())
	fc := make([]int, fs.Dims())
	for idx := range e.Map {
		guest.CoordInto(idx, gc)
		copy(fc, gc)
		q := gc[axis] / b
		j := gc[axis] % b
		if q&1 == 1 {
			j = b - 1 - j
		}
		fc[axis] = q
		fc[fs.Dims()-1] = j
		e.Map[idx] = fe.Map[fs.Index(fc)]
	}
	return e
}

// planByFolding factors one axis ℓ = a·b into two axes and plans the
// folded (k+1)-dimensional mesh; the guest is a subgraph of the folded
// mesh, so a dilation-d folded plan yields a dilation-d guest embedding in
// the same cube.  This lifts, e.g., 3x21 onto the 3x3x7 direct table — a
// case the paper's §3.3 toolset classifies as an exception.
func (pc *planContext) planByFolding(s mesh.Shape, depth int) *Plan {
	if depth > 0 {
		return nil // one fold per plan tree keeps the search bounded
	}
	target := s.MinCubeDim()
	var best *Plan
	for axis, l := range s {
		if l < 4 {
			continue
		}
		// Candidate strip counts a with widths b = ⌈ℓ/a⌉: exact divisors
		// fold without waste; covering folds (a·b > ℓ, prime lengths) pad
		// the strip, allowed as long as the minimal cube is preserved.
		seen := map[[2]int]bool{}
		var pairs [][2]int
		addPair := func(a, b int) {
			if a < 2 || b < 2 || seen[[2]int{a, b}] {
				return
			}
			seen[[2]int{a, b}] = true
			pairs = append(pairs, [2]int{a, b})
		}
		for x := 2; x*x <= l; x++ {
			y := (l + x - 1) / x
			addPair(x, y)
			addPair(y, x)
			if l%x == 0 {
				addPair(x, l/x)
				addPair(l/x, x)
			}
		}
		for _, pair := range pairs {
			fshape := foldedShape(s, axis, pair[0], pair[1])
			if fshape.MinCubeDim() != target {
				continue // padding overflowed the minimal cube
			}
			child := pc.planMinimalDepth(fshape, depth+1)
			if child == nil || child.CubeDim != target {
				continue
			}
			cand := &Plan{Kind: KindFold, Shape: s.Clone(), CubeDim: target,
				Dilation: child.Dilation, Child: child,
				FoldAxis: axis, FoldA: pair[0], FoldB: pair[1]}
			best = better(best, cand)
			if best.Dilation <= 2 {
				return best
			}
		}
	}
	return best
}
