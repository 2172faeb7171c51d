// Package bounds computes certified per-shape lower bounds for the three
// edge-routing quality measures of an embedding — dilation, wirelength
// (total routed path length) and edge congestion — for every registered
// guest family, in O(dims) integer arithmetic per shape.
//
// The bounds are *sound*: no one-to-one embedding of the guest into the
// stated cube can beat them, under any path realization.  They are the
// floors the service's optimality certificates are measured against
// (api.Certificate): a strategy whose achieved metrics equal the bounds is
// provably optimal, and the gap is an upper bound on how much any better
// strategy could still recover.  Tightness is a separate, empirical
// question — the golden tables in bounds_test pin the shapes where the
// bounds are known to be achieved.
//
// The criteria combine the classical edge-isoperimetric and parity
// arguments for hypercube embeddings (Harper's theorem; the bipartite and
// odd-cycle obstructions; degree pigeonholes), as used by the wirelength
// lower bounds of Rajan et al. (arXiv:1807.06787) and the grid-into-cube
// analysis of Miller–Pritikin–Sudborough (arXiv:1403.2749):
//
//   - Q_n is bipartite, so every odd cycle of the guest forces an edge of
//     dilation ≥ 2, and vertex-disjoint odd cycles force one such edge each.
//   - A connected bipartite guest whose larger color class exceeds 2^(n-1)
//     cannot be a subgraph of Q_n (the class must land in one parity class
//     of the cube).
//   - Harper's theorem: an m-vertex subgraph of Q_n has at most
//     H(m) = Σ_{k<m} popcount(k) edges, so at least E − H(m) guest edges
//     have dilation ≥ 2.
//   - Distance-d pigeonholes: a vertex of Q_n has Σ_{i≤d} C(n,i) − 1
//     neighbors within distance d, bounding both the realizable maximum
//     degree and (via m·|ball|/2) the number of edges of dilation ≤ d.
//   - Wirelength telescopes over dilation levels:
//     WL = Σ_{t≥1} #{e : dil(e) ≥ t}, each level bounded as above.
//   - Congestion: the deg(v) paths leaving a host node share its n links,
//     and the WL lower bound's link crossings share all n·2^(n-1) links.
package bounds

import (
	"repro/internal/guest"
	"repro/internal/mesh"
)

// Bounds holds the certified floors for one-to-one embeddings of a guest
// into the CubeDim-cube.  An edgeless guest has all-zero bounds.
type Bounds struct {
	CubeDim    int
	Dilation   int
	Wirelength int64
	Congestion int
}

// Minimal returns the bounds at the guest's minimal cube,
// n = ⌈log₂ nodes⌉ — the dimension every minimal-expansion strategy
// targets.
func Minimal(f guest.Family, s mesh.Shape) Bounds {
	return For(f, s, s.MinCubeDim())
}

// For returns the lower bounds for embedding the (f, s) guest one-to-one
// into the n-cube.  n must admit a one-to-one embedding (2^n ≥ nodes);
// for smaller cubes the returned bounds are vacuous.
func For(f guest.Family, s mesh.Shape, n int) Bounds {
	m := int64(s.Nodes())
	e := int64(guest.Get(f).Edges(s))
	b := Bounds{CubeDim: n}
	if e == 0 {
		return b
	}
	deg := MaxDegree(f, s)
	odd := disjointOddCycles(f, s)
	var bmax int64
	if odd == 0 {
		bmax = maxColorClass(f, s)
	}
	b.Dilation = dilationLB(n, m, e, deg, odd, bmax)
	b.Wirelength = wirelengthLB(n, m, e, odd, b.Dilation)
	b.Congestion = congestionLB(n, deg, b.Wirelength)
	return b
}

// Harper returns H(m) = Σ_{k=0}^{m-1} popcount(k), the maximum number of
// edges an m-vertex subgraph of a hypercube can have (Harper's
// edge-isoperimetric theorem; the maximizer is the first m nodes in binary
// order).  Computed per bit position in O(log m).
func Harper(m int64) int64 {
	var total int64
	for b := uint(0); b < 62; b++ {
		half := int64(1) << b
		if half >= m {
			break
		}
		block := half << 1
		total += (m / block) * half
		if rem := m % block; rem > half {
			total += rem - half
		}
	}
	return total
}

// MaxDegree returns the guest's maximum vertex degree.  For the grid
// families an axis of length a contributes min(2, a−1) to some shared
// node — wrapping changes which nodes are extremal, not the maximum
// (a length-2 wrapped axis still carries a single edge per line).
func MaxDegree(f guest.Family, s mesh.Shape) int {
	if f == guest.Tree {
		switch {
		case s[0] <= 1:
			return 0
		case s[0] <= 3:
			return 2
		default:
			return 3
		}
	}
	deg := 0
	for _, a := range s {
		deg += min(2, a-1)
	}
	return deg
}

// disjointOddCycles returns the largest number of vertex-disjoint odd
// cycles a single wrapped odd axis induces: an axis of odd length a ≥ 3
// partitions the nodes into m/a disjoint a-cycles, and Q_n's bipartiteness
// forces at least one dilation-≥2 edge on each.
func disjointOddCycles(f guest.Family, s mesh.Shape) int64 {
	m := int64(s.Nodes())
	wrap := guest.Get(f).Wrap()
	var best int64
	for i, a := range s {
		if a >= 3 && a%2 == 1 && wrap.Wraps(i, len(s)) {
			if c := m / int64(a); c > best {
				best = c
			}
		}
	}
	return best
}

// maxColorClass returns the size of the larger class of the guest's unique
// 2-coloring.  Callers invoke it only for bipartite guests (no wrapped odd
// axis); every guest family is connected, so the coloring — and the
// obstruction maxColorClass > 2^(n-1) — is well defined.
func maxColorClass(f guest.Family, s mesh.Shape) int64 {
	if f == guest.Tree {
		// Alternate the level sums of the complete binary tree.
		var even, odd int64
		size := int64(1)
		for total, j := int64(0), 0; total < int64(s[0]); j++ {
			if j%2 == 0 {
				even += size
			} else {
				odd += size
			}
			total += size
			size <<= 1
		}
		return max(even, odd)
	}
	// Grid families 2-color by coordinate-sum parity (wrapped even axes
	// preserve it); the classes are balanced unless every axis is odd.
	allOdd := int64(0)
	if func() bool {
		for _, a := range s {
			if a%2 == 0 {
				return false
			}
		}
		return true
	}() {
		allOdd = 1
	}
	return (int64(s.Nodes()) + allOdd) / 2
}

// ballSat is the saturation value for the distance-ball sums: far larger
// than any guest degree or edge count the service admits (≤ 2^22 nodes),
// and small enough that m·ballSat cannot overflow int64.
const ballSat = int64(1) << 38

// ballMinusOne returns min(Σ_{i=1..d} C(n,i), ballSat): the number of
// cube nodes within distance d of a fixed node, excluding itself.
func ballMinusOne(n, d int) int64 {
	var sum int64
	c := int64(1)
	for i := 1; i <= d && i <= n; i++ {
		c = c * int64(n-i+1) / int64(i)
		sum += c
		if sum >= ballSat {
			return ballSat
		}
	}
	return sum
}

// pairsWithin bounds the number of unordered node pairs at cube distance
// ≤ d inside any m-subset of Q_n — and therefore the number of guest edges
// realizable with dilation ≤ d.
func pairsWithin(m int64, n, d int) int64 {
	v := ballMinusOne(n, d)
	if m > 0 && v > ballSat/m {
		return ballSat
	}
	return m * v / 2
}

// dilationLB raises the dilation floor criterion by criterion: the guest
// is not a subgraph of Q_n (level 1), and more generally not a subgraph of
// the distance-≤d graph of Q_n (level d).
func dilationLB(n int, m, e int64, deg int, odd, bmax int64) int {
	d := 1
	for d <= n {
		violated := false
		if d == 1 {
			violated = int64(deg) > int64(n) ||
				e > Harper(m) ||
				odd > 0 ||
				(odd == 0 && bmax > int64(1)<<uint(max(n-1, 0)))
		} else {
			violated = int64(deg) > ballMinusOne(n, d) || e > pairsWithin(m, n, d)
		}
		if !violated {
			break
		}
		d++
	}
	return d
}

// wirelengthLB telescopes WL = Σ_{t≥1} #{e : dil(e) ≥ t}.  Level 1 is all
// E edges (one-to-one maps leave no edge at distance 0); level 2 is the
// Harper excess, the disjoint odd cycles, or — whenever the dilation floor
// already reached t — at least one edge; deeper levels use the distance
// pigeonhole.
func wirelengthLB(n int, m, e, odd int64, dil int) int64 {
	wl := e
	for t := 2; ; t++ {
		var ex int64
		if t == 2 {
			ex = max(e-Harper(m), odd)
		} else {
			ex = max(e-pairsWithin(m, n, t-1), 0)
		}
		if dil >= t && ex < 1 {
			ex = 1
		}
		if ex <= 0 {
			break
		}
		wl += ex
	}
	return wl
}

// congestionLB combines the per-node pigeonhole (deg(v) realized paths
// leave v through its n links) with the global one (the WL floor's link
// crossings share n·2^(n-1) links).
func congestionLB(n, deg int, wl int64) int {
	if wl == 0 {
		return 0
	}
	c := 1
	if n > 0 {
		if d := (deg + n - 1) / n; d > c {
			c = d
		}
		links := int64(n) << uint(n-1)
		if l := (wl + links - 1) / links; l > int64(c) {
			c = int(l)
		}
	}
	return c
}
