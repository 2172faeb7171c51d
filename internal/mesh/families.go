package mesh

import "sort"

// Besides the grids of EachEdgeRange, a Shape has one further edge
// interpretation: the complete binary tree, a single-axis shape [2^h − 1]
// read as the heap-ordered tree.  It keeps the partitionable EachEdgeRange
// idiom: the edges generated by disjoint node-index ranges are disjoint and
// their union is the full edge set.

// TreeNodes reports whether the single-axis shape holds a complete binary
// tree: ℓ = 2^h − 1 for some h ≥ 1.
func (s Shape) TreeNodes() bool {
	if len(s) != 1 || s[0] < 1 {
		return false
	}
	n := uint64(s[0]) + 1
	return n&(n-1) == 0
}

// TreeEdges returns the edge count of the complete binary tree, |V| − 1.
func (s Shape) TreeEdges() int { return s[0] - 1 }

// EachTreeEdgeRange generates the child edges of the parents in [lo, hi).
// Every edge has exactly one parent endpoint, so disjoint parent ranges
// generate disjoint edge sets (the EachEdgeRange partition contract).
func (s Shape) EachTreeEdgeRange(lo, hi int, fn func(Edge)) {
	n := s[0]
	for idx := lo; idx < hi; idx++ {
		if l := 2*idx + 1; l < n {
			fn(Edge{U: idx, V: l, Axis: 0})
		}
		if r := 2*idx + 2; r < n {
			fn(Edge{U: idx, V: r, Axis: 0})
		}
	}
}

// SortCanonical returns the axis-sorted (ascending, stable) copy of s and
// the axis map: axmap[j] is the position in s of canonical axis j.  It is
// the canonical form of the axis-permutation-symmetric families (mesh and
// torus) and the key function of the planner and result caches.
func (s Shape) SortCanonical() (Shape, []int) {
	return s.SortCanonicalPrefix(len(s))
}

// SortCanonicalPrefix sorts only the first k axes (ascending, stable),
// keeping the remaining axes in place — the canonical form of families
// that distinguish an axis, like the cylinder's wraparound last axis.
func (s Shape) SortCanonicalPrefix(k int) (Shape, []int) {
	axmap := make([]int, len(s))
	for i := range axmap {
		axmap[i] = i
	}
	sort.SliceStable(axmap[:k], func(a, b int) bool { return s[axmap[a]] < s[axmap[b]] })
	canon := make(Shape, len(s))
	for j, i := range axmap {
		canon[j] = s[i]
	}
	return canon, axmap
}
