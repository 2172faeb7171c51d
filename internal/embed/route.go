package embed

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// Route codes.  Embedding.Routes pins the host path of a guest edge with one
// byte.  A pinned path is always a shortest path, so the order in which it
// flips the bits where its endpoints' images differ fixes it:
//
//   - code 0 leaves the edge unpinned: it takes the e-cube route from the
//     image of its U endpoint;
//   - any other code walks from the lower of the two images, and bits
//     2t..2t+1 hold the rank of the bit flipped at step t, counted among the
//     differing bits in ascending order.
//
// Only distances 2 to 4 can be pinned: a distance-1 path is forced, and
// four 2-bit ranks fill the byte.  Reading from the lower image makes a code
// independent of the edge's orientation, and it lets core.Product and
// core.SubMesh carry a code unchanged: their lifts keep both the order of
// the two images and the order of their differing bits.
//
// Routes has one slot per guest node and axis.  A grid edge's slot is its
// generating node in mesh.Shape.EachEdgeRange — the lower end of a path
// edge, the last-hyperplane end of a wraparound edge — times the guest's
// arity, plus its axis.  A tree edge's slot is its child.

// maxRouteDist is the longest path a route code can pin.
const maxRouteDist = 4

// numSlots returns the length of the embedding's route vector.
func (e *Embedding) numSlots() int { return e.Guest.Nodes() * e.Guest.Dims() }

// slot returns the route slot of a guest edge as its family enumerates it;
// dims is the guest's arity and tree marks the tree family.
func slot(ed mesh.Edge, dims int, tree bool) int {
	g := ed.U
	if ed.Wrap || tree {
		g = ed.V
	}
	return g*dims + ed.Axis
}

// nthBit returns the set bit of x of rank r, counted from the lowest.
func nthBit(x uint64, r int) uint64 {
	for ; r > 0; r-- {
		x &= x - 1
	}
	return x & -x
}

// routeCode returns the code of a shortest path at distance 2..4, given in
// either orientation.
func routeCode(p cube.Path) uint8 {
	a, b := p[0], p[len(p)-1]
	diff := uint64(a ^ b)
	var code uint8
	for t := 1; t < len(p); t++ {
		step := t - 1
		if a > b { // count steps from the lower end
			step = len(p) - 1 - t
		}
		rank := mathbits.OnesCount64(diff & (uint64(p[t]^p[t-1]) - 1))
		code |= uint8(rank) << (2 * step)
	}
	return code
}

// routeInto appends the host path of a guest edge with images a and b under
// route code c to dst and returns the extended slice: the e-cube route from
// a when c is 0, else c's flip order from the lower image.
func routeInto(dst cube.Path, a, b cube.Node, c uint8) cube.Path {
	if c == 0 {
		return cube.RouteInto(dst, a, b)
	}
	cur, diff := uint64(min(a, b)), uint64(a^b)
	dst = append(dst, cube.Node(cur))
	for t := range mathbits.OnesCount64(diff) {
		cur ^= nthBit(diff, int(c>>(2*t))&3)
		dst = append(dst, cube.Node(cur))
	}
	return dst
}

// validCode reports whether a nonzero code is a flip order of d bits: d is
// 2..4, the ranks of steps 0..d−1 are a permutation of 0..d−1, and no bit
// above them is set.
func validCode(c uint8, d int) bool {
	if d < 2 || d > maxRouteDist || c>>(2*d) != 0 {
		return false
	}
	seen := 0
	for t := range d {
		seen |= 1 << (c >> (2 * t) & 3)
	}
	return seen == 1<<d-1
}

// CopyRoute copies the route code of src's mesh edge {su, sv} to dst's mesh
// edge {du, dv}, both along axis, allocating dst's route vector on the first
// copy.  It does nothing when src has no routes.  Because a code is read
// from the lower image, the copy pins the same flip order whenever dst's
// images of the edge order and differ like src's.
func CopyRoute(dst *Embedding, du, dv int, src *Embedding, su, sv, axis int) {
	if src.Routes == nil {
		return
	}
	if dst.Routes == nil {
		dst.Routes = make([]uint8, dst.numSlots())
	}
	dst.Routes[min(du, dv)*dst.Guest.Dims()+axis] = src.Routes[min(su, sv)*src.Guest.Dims()+axis]
}

// verifyRoutes checks the route vector: it has one entry per slot, every
// code on an edge is a flip order of that edge's distance, and no slot
// without an edge holds a code.
func (e *Embedding) verifyRoutes() error {
	if e.Routes == nil {
		return nil
	}
	if len(e.Routes) != e.numSlots() {
		return fmt.Errorf("embed: %d route codes for %d slots", len(e.Routes), e.numSlots())
	}
	dims, tree := e.Guest.Dims(), e.Family == guest.Tree
	var bad error
	onEdges := 0
	e.eachGuestEdge(func(ed mesh.Edge) {
		c := e.Routes[slot(ed, dims, tree)]
		if c == 0 || bad != nil {
			return
		}
		onEdges++
		if d := cube.Dist(e.Map[ed.U], e.Map[ed.V]); !validCode(c, d) {
			bad = fmt.Errorf("embed: edge (%d,%d): route code %#02x is no flip order of distance %d", ed.U, ed.V, c, d)
		}
	})
	if bad != nil {
		return bad
	}
	codes := 0
	for _, c := range e.Routes {
		if c != 0 {
			codes++
		}
	}
	if codes != onEdges {
		return fmt.Errorf("embed: %d route codes on slots without an edge", codes-onEdges)
	}
	return nil
}
