// Package cube models the Boolean n-cube (hypercube) host graph: node
// addressing, Hamming distance, link identification, and shortest-path
// routing used to realize embedding paths.
package cube

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/bits"
)

// Node is a Boolean-cube node address.  In an n-cube the valid addresses are
// 0 … 2^n−1, and two nodes are adjacent iff their addresses differ in
// exactly one bit.
type Node uint64

// Dist returns the cube (Hamming) distance between two nodes.
func Dist(a, b Node) int {
	return bits.Hamming(uint64(a), uint64(b))
}

// Link identifies an (undirected) cube edge by its lower endpoint and the
// dimension of the differing bit.
type Link struct {
	Lo  Node // endpoint with bit Dim == 0
	Dim int
}

// LinkBetween returns the link joining two adjacent nodes.  It panics if the
// nodes are not cube neighbors.  It performs no heap allocation, so it is
// safe in per-edge hot loops.
func LinkBetween(a, b Node) Link {
	d := uint64(a) ^ uint64(b)
	if d == 0 || d&(d-1) != 0 {
		panic(fmt.Sprintf("cube: nodes %d and %d are not adjacent", a, b))
	}
	// Clearing the differing bit of either endpoint yields the endpoint
	// whose bit Dim is zero.
	return Link{Lo: Node(uint64(a) &^ d), Dim: mathbits.TrailingZeros64(d)}
}

// Path is a walk through the cube given as the ordered node sequence,
// including both endpoints.  A path of k edges has length k and k+1 nodes.
type Path []Node

// Len returns the number of edges in the path.
func (p Path) Len() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Validate checks that consecutive nodes are cube neighbors and that the
// path stays inside an n-cube.
func (p Path) Validate(n int) error {
	limit := Node(1) << uint(n)
	for i, v := range p {
		if v >= limit {
			return fmt.Errorf("cube: path node %d = %d outside %d-cube", i, v, n)
		}
		if i > 0 && Dist(p[i-1], v) != 1 {
			return fmt.Errorf("cube: path step %d: %d and %d not adjacent", i, p[i-1], v)
		}
	}
	return nil
}

// Links returns the links traversed by the path.
func (p Path) Links() []Link {
	if len(p) < 2 {
		return nil
	}
	return p.AppendLinks(make([]Link, 0, len(p)-1))
}

// AppendLinks appends the links traversed by the path to dst and returns the
// extended slice.  Callers reusing a scratch buffer pass dst[:0] to walk
// paths without per-path allocation.
func (p Path) AppendLinks(dst []Link) []Link {
	for i := 1; i < len(p); i++ {
		dst = append(dst, LinkBetween(p[i-1], p[i]))
	}
	return dst
}

// Route returns the e-cube (dimension-ordered) shortest path from a to b:
// the differing bits are corrected in increasing dimension order.  The
// returned path has exactly Dist(a, b) edges.
func Route(a, b Node) Path {
	return RouteInto(make(Path, 0, Dist(a, b)+1), a, b)
}

// RouteInto appends the e-cube route from a to b (including both endpoints)
// to dst and returns the extended slice.  It is Route with caller-managed
// storage: pass dst[:0] to reuse one buffer across many edges.
func RouteInto(dst Path, a, b Node) Path {
	dst = append(dst, a)
	cur := uint64(a)
	diff := cur ^ uint64(b)
	for diff != 0 {
		bit := diff & -diff // lowest differing dimension first
		cur ^= bit
		dst = append(dst, Node(cur))
		diff ^= bit
	}
	return dst
}

// ShortestPaths returns all shortest paths from a to b.  For nodes at
// distance d there are d! dimension orders; this is intended for the small
// distances (≤ 3) that arise in low-dilation embeddings.  It panics when
// Dist(a, b) > 4 to guard against factorial blowup.
func ShortestPaths(a, b Node) []Path {
	diff := bits.DiffBits(uint64(a), uint64(b))
	if len(diff) > 4 {
		panic("cube: ShortestPaths limited to distance ≤ 4")
	}
	var out []Path
	perm := make([]int, len(diff))
	var rec func(used uint, depth int)
	rec = func(used uint, depth int) {
		if depth == len(diff) {
			p := make(Path, 0, len(diff)+1)
			p = append(p, a)
			cur := uint64(a)
			for _, d := range perm {
				cur = bits.FlipBit(cur, d)
				p = append(p, Node(cur))
			}
			out = append(out, p)
			return
		}
		for i, d := range diff {
			if used&(1<<uint(i)) == 0 {
				perm[depth] = d
				rec(used|1<<uint(i), depth+1)
			}
		}
	}
	rec(0, 0)
	return out
}

// NumLinks returns the number of links in an n-cube: n · 2^(n−1).
func NumLinks(n int) int {
	if n == 0 {
		return 0
	}
	return n << uint(n-1)
}

// LinkIndex maps a link of an n-cube to a dense index in [0, NumLinks(n)),
// for congestion accounting arrays.
func LinkIndex(l Link, n int) int {
	// Remove bit Dim from Lo to get a (n-1)-bit row index, then add the
	// dimension stride.
	lo := uint64(l.Lo)
	low := lo & ((1 << uint(l.Dim)) - 1)
	high := lo >> uint(l.Dim+1)
	row := low | high<<uint(l.Dim)
	return l.Dim<<uint(n-1) | int(row)
}
