// Package mesh describes k-dimensional meshes (grids), with and without
// wraparound, as guest graphs for Boolean-cube embeddings.
//
// A mesh is identified by its Shape, the vector of axis lengths
// (ℓ₁, ℓ₂, …, ℓ_k).  Nodes are addressed either by coordinate vectors or by
// a dense row-major-like index in [0, ℓ₁ℓ₂⋯ℓ_k) with axis 0 varying fastest.
package mesh

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bits"
)

// Shape is the vector of axis lengths of a mesh.  All entries must be ≥ 1.
type Shape []int

// ParseShape parses strings like "5x6x7" or "512" into a Shape.
func ParseShape(s string) (Shape, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) == 0 {
		return nil, fmt.Errorf("mesh: empty shape %q", s)
	}
	out := make(Shape, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("mesh: bad axis %q in shape %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

// MustParse is ParseShape panicking on error, for literals in tools and
// tests.
func MustParse(s string) Shape {
	out, err := ParseShape(s)
	if err != nil {
		panic(err)
	}
	return out
}

// String renders the shape as "ℓ1xℓ2x…".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, l := range s {
		parts[i] = strconv.Itoa(l)
	}
	return strings.Join(parts, "x")
}

// Validate reports an error if any axis length is < 1.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("mesh: shape has no axes")
	}
	for i, l := range s {
		if l < 1 {
			return fmt.Errorf("mesh: axis %d has non-positive length %d", i, l)
		}
	}
	return nil
}

// Dims returns the number of axes.
func (s Shape) Dims() int { return len(s) }

// Nodes returns the number of mesh nodes, Π ℓi.
func (s Shape) Nodes() int {
	n := 1
	for _, l := range s {
		n *= l
	}
	return n
}

// WrapSet names the axes of a grid that wrap around — cycles instead of
// paths — as a count of trailing axes: a shape's last w axes wrap.  Which
// set each guest family uses is decided by package guest.
type WrapSet int

const (
	NoWrap  WrapSet = 0           // the plain mesh: every axis is a path
	WrapAll WrapSet = math.MaxInt // every axis is a cycle, whatever the arity
)

// first returns the lowest wrapped axis of a k-axis shape.
func (w WrapSet) first(k int) int { return k - int(w) }

// Edges returns the number of grid edges when the axes in wrap are cycles:
// Σ_i e_i · Π_{j≠i} ℓj, where e_i is ℓi − 1 on a path axis and ℓi on a
// cycle axis.  A cycle of length ≤ 2 adds no edge to its path (a length-2
// ring's closing edge coincides with its one path edge).
func (s Shape) Edges(wrap WrapSet) int {
	first := wrap.first(len(s))
	total := 0
	for i := range s {
		e := s[i] - 1
		if i >= first && s[i] > 2 {
			e++
		}
		for j := range s {
			if j != i {
				e *= s[j]
			}
		}
		total += e
	}
	return total
}

// MinCubeDim returns ⌈log₂ Π ℓi⌉, the dimension of the minimal Boolean cube
// that can host a one-to-one embedding of the mesh.
func (s Shape) MinCubeDim() int {
	return bits.CeilLog2(uint64(s.Nodes()))
}

// GrayCubeDim returns Σ ⌈log₂ ℓi⌉, the cube dimension consumed by the
// Gray-code embedding.
func (s Shape) GrayCubeDim() int {
	n := 0
	for _, l := range s {
		n += bits.CeilLog2(uint64(l))
	}
	return n
}

// GrayMinimal reports whether the Gray-code embedding is already
// minimal-expansion for this shape: Σ⌈log₂ ℓi⌉ == ⌈log₂ Πℓi⌉.
func (s Shape) GrayMinimal() bool {
	return s.GrayCubeDim() == s.MinCubeDim()
}

// Index converts a coordinate vector to a dense node index, axis 0 fastest.
func (s Shape) Index(coord []int) int {
	if len(coord) != len(s) {
		panic("mesh: coordinate arity mismatch")
	}
	idx := 0
	stride := 1
	for i, l := range s {
		c := coord[i]
		if c < 0 || c >= l {
			panic(fmt.Sprintf("mesh: coordinate %d out of range [0,%d) on axis %d", c, l, i))
		}
		idx += c * stride
		stride *= l
	}
	return idx
}

// Coord converts a dense node index back to a coordinate vector.
func (s Shape) Coord(idx int) []int {
	out := make([]int, len(s))
	s.CoordInto(idx, out)
	return out
}

// CoordInto is Coord without allocation; out must have length Dims().
func (s Shape) CoordInto(idx int, out []int) {
	if idx < 0 || idx >= s.Nodes() {
		panic(fmt.Sprintf("mesh: index %d out of range [0,%d)", idx, s.Nodes()))
	}
	for i, l := range s {
		out[i] = idx % l
		idx /= l
	}
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// Sorted returns a copy with axis lengths in non-decreasing order.  Useful
// for canonicalizing shapes when counting meshes up to axis permutation.
func (s Shape) Sorted() Shape {
	out := s.Clone()
	sort.Ints(out)
	return out
}

// Equal reports componentwise equality.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Product returns the componentwise product s∘t, the shape of the Cartesian
// product mesh (Corollary 2: ℓ_j = ℓ_{1j}·ℓ_{2j}).  Shapes of unequal arity
// are padded with trailing 1s.
func (s Shape) Product(t Shape) Shape {
	k := len(s)
	if len(t) > k {
		k = len(t)
	}
	out := make(Shape, k)
	for i := range out {
		a, b := 1, 1
		if i < len(s) {
			a = s[i]
		}
		if i < len(t) {
			b = t[i]
		}
		out[i] = a * b
	}
	return out
}

// Edge is a pair of adjacent mesh nodes identified by dense indices.
// For wraparound edges, U and V are the two endpoints of the ring edge.
type Edge struct {
	U, V int
	Axis int // the axis along which the edge runs
	Wrap bool
}

// EachEdge calls fn for every mesh edge (no wraparound), with U < V.
// Iteration allocates one scratch coordinate vector.
func (s Shape) EachEdge(fn func(Edge)) {
	s.EachEdgeRange(NoWrap, 0, s.Nodes(), fn)
}

// EachEdgeRange calls fn for the edges of the grid with the axes in wrap
// closed into cycles that are generated by the node indices in [lo, hi).
// A path edge is generated by its lower endpoint and a wraparound edge by
// its higher endpoint (the last hyperplane of its axis), so a partition of
// [0, Nodes()) partitions the edge set, which is what the parallel metrics
// engine shards over.  Edges(wrap) counts the full enumeration.
func (s Shape) EachEdgeRange(wrap WrapSet, lo, hi int, fn func(Edge)) {
	coord := make([]int, len(s))
	stride := make([]int, len(s))
	st := 1
	for i, l := range s {
		stride[i] = st
		st *= l
	}
	first := wrap.first(len(s))
	for idx := lo; idx < hi; idx++ {
		s.CoordInto(idx, coord)
		for i := range s {
			if coord[i]+1 < s[i] {
				fn(Edge{U: idx, V: idx + stride[i], Axis: i})
			} else if i >= first && s[i] > 2 {
				// wraparound edge from the last to the first hyperplane
				fn(Edge{U: idx - (s[i]-1)*stride[i], V: idx, Axis: i, Wrap: true})
			}
		}
	}
}

// Neighbors appends to dst the dense indices adjacent to idx (no wraparound)
// and returns the extended slice.
func (s Shape) Neighbors(idx int, dst []int) []int {
	coord := make([]int, len(s))
	s.CoordInto(idx, coord)
	stride := 1
	for i, l := range s {
		if coord[i] > 0 {
			dst = append(dst, idx-stride)
		}
		if coord[i]+1 < l {
			dst = append(dst, idx+stride)
		}
		stride *= l
	}
	return dst
}

// Contains reports whether a mesh of shape t fits inside s componentwise
// (after padding t with trailing 1s).
func (s Shape) Contains(t Shape) bool {
	if len(t) > len(s) {
		for _, l := range t[len(s):] {
			if l > 1 {
				return false
			}
		}
		t = t[:len(s)]
	}
	for i := range t {
		if t[i] > s[i] {
			return false
		}
	}
	return true
}
