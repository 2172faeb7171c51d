// Package direct provides the direct low-dilation minimal-expansion
// embeddings of Section 3.3: the two-dimensional meshes 3x5, 7x9 and 11x11
// and the three-dimensional meshes 3x3x3 and 3x3x7.  These are the seed
// embeddings that, combined with Gray codes and the graph-decomposition
// technique (Corollary 2), cover the mesh families of Section 5.
//
// The original tables of Ho and Johnsson [13], [14] are not reproduced in
// the paper; the maps here were re-discovered with internal/solver
// (cmd/findembed, deterministic seeds) and satisfy the same properties the
// paper asserts: minimal expansion, dilation two, and — for the
// two-dimensional tables — congestion two under the pinned path
// realization.  The 3x3x7 table achieves congestion three; the paper makes
// no congestion claim for the three-dimensional direct embeddings.
package direct

import (
	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/mesh"
)

// Table is a frozen direct embedding.
type Table struct {
	Shape mesh.Shape
	Map   []cube.Node

	// Dilation and Congestion record the verified properties of the
	// table (congestion under RealizeMinCongestion).
	Dilation   int
	Congestion int
}

// Tables lists all direct embeddings, smallest first.
var Tables = []Table{
	{Shape: mesh.Shape{3, 5}, Dilation: 2, Congestion: 2, Map: map3x5},
	{Shape: mesh.Shape{3, 3, 3}, Dilation: 2, Congestion: 2, Map: map3x3x3},
	{Shape: mesh.Shape{7, 9}, Dilation: 2, Congestion: 2, Map: map7x9},
	{Shape: mesh.Shape{3, 3, 7}, Dilation: 2, Congestion: 3, Map: map3x3x7},
	{Shape: mesh.Shape{11, 11}, Dilation: 2, Congestion: 2, Map: map11x11},
}

// Lookup returns the table for the given shape, trying all axis
// permutations, together with the permutation mapping table axes to shape
// axes (shape[i] == table.Shape[perm[i]]).  ok is false when no table
// matches.
func Lookup(s mesh.Shape) (t Table, perm []int, ok bool) {
	for _, tab := range Tables {
		if p, match := matchPermutation(s, tab.Shape); match {
			return tab, p, true
		}
	}
	return Table{}, nil, false
}

// matchPermutation finds a permutation p with s[i] == ref[p[i]] for all i,
// using each axis of ref exactly once.  Shapes of different arity are
// aligned by treating missing axes as length 1.  Equal lengths are
// interchangeable, so giving each axis of s the first unused axis of ref
// with its length finds a permutation exactly when the two length
// multisets agree — no backtracking needed, which matters for shapes with
// many axes of one length.
func matchPermutation(s, ref mesh.Shape) ([]int, bool) {
	k := len(s)
	if len(ref) > k {
		// ref has more axes; they must all be 1 to match, which never
		// happens for the tables here.
		return nil, false
	}
	refPad := ref.PadTo(k)
	used := make([]bool, k)
	perm := make([]int, k)
	for i, l := range s {
		j := 0
		for j < k && (used[j] || refPad[j] != l) {
			j++
		}
		if j == k {
			return nil, false
		}
		used[j] = true
		perm[i] = j
	}
	return perm, true
}

// Embedding instantiates the direct embedding for the given shape (which
// must match a table up to axis permutation) with congestion-minimizing
// pinned paths.
func Embedding(s mesh.Shape) (*embed.Embedding, bool) {
	tab, perm, ok := Lookup(s)
	if !ok {
		return nil, false
	}
	n := tab.Shape.MinCubeDim()
	e := embed.New(s, n)
	refPad := tab.Shape.PadTo(len(s))
	coord := make([]int, len(s))
	refCoord := make([]int, len(refPad))
	for idx := range e.Map {
		s.CoordInto(idx, coord)
		for i, j := range perm {
			refCoord[j] = coord[i]
		}
		e.Map[idx] = tab.Map[refPad.Index(refCoord)]
	}
	e.RealizeMinCongestion()
	return e, true
}
