package bounds

import (
	"math/bits"
	"testing"

	"repro/internal/guest"
	"repro/internal/mesh"
)

// shapesUpTo enumerates every shape of 1..3 axes with at most maxNodes
// nodes that the family accepts, including all axis orderings (the bounds
// must be permutation-consistent where the family is).
func shapesUpTo(f guest.Family, maxNodes int) []mesh.Shape {
	var out []mesh.Shape
	var rec func(prefix mesh.Shape, nodes int)
	rec = func(prefix mesh.Shape, nodes int) {
		if len(prefix) > 0 {
			s := prefix.Clone()
			if guest.Validate(f, s) == nil {
				out = append(out, s)
			}
		}
		if len(prefix) == 3 {
			return
		}
		for a := 1; nodes*a <= maxNodes; a++ {
			rec(append(prefix, a), nodes*a)
		}
	}
	rec(mesh.Shape{}, 1)
	return out
}

// edgeList materializes the family's edge set through the same iterator
// the fused metrics pass shards over.
func edgeList(f guest.Family, s mesh.Shape) [][2]int {
	var edges [][2]int
	guest.Get(f).EachEdgeRange(s, 0, s.Nodes(), func(e mesh.Edge) {
		edges = append(edges, [2]int{e.U, e.V})
	})
	return edges
}

// TestHarperNaive checks the per-bit closed form against the defining sum.
func TestHarperNaive(t *testing.T) {
	var sum int64
	for m := int64(1); m <= 1<<13; m++ {
		if got := Harper(m); got != sum {
			t.Fatalf("Harper(%d) = %d, want %d", m, got, sum)
		}
		sum += int64(bits.OnesCount64(uint64(m)))
	}
}

// TestBallNaive checks the incremental-binomial ball size against a count
// over all codes of the cube.
func TestBallNaive(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for d := 0; d <= n+2; d++ {
			var want int64
			for c := 0; c < 1<<uint(n); c++ {
				if p := bits.OnesCount(uint(c)); p >= 1 && p <= d {
					want++
				}
			}
			if got := ballMinusOne(n, d); got != want {
				t.Fatalf("ballMinusOne(%d,%d) = %d, want %d", n, d, got, want)
			}
		}
	}
}

func TestPairsWithinSaturates(t *testing.T) {
	if got := pairsWithin(1<<22, 62, 20); got != ballSat {
		t.Fatalf("pairsWithin huge = %d, want saturation %d", got, ballSat)
	}
	if got := pairsWithin(6, 3, 1); got != 9 {
		t.Fatalf("pairsWithin(6,3,1) = %d, want 9", got)
	}
}

// TestGraphParametersNaive brute-force-recomputes every combinatorial
// input of the bounds — edge count, maximum degree, bipartiteness, color
// classes, and the disjoint odd rings — from the materialized edge list,
// on every shape with at most 64 nodes per family.
func TestGraphParametersNaive(t *testing.T) {
	for f := guest.Family(0); f.IsValid(); f++ {
		for _, s := range shapesUpTo(f, 64) {
			edges := edgeList(f, s)
			m := s.Nodes()
			if got, want := len(edges), guest.Get(f).Edges(s); got != want {
				t.Fatalf("%s %v: iterator edges %d != Edges() %d", f, s, got, want)
			}

			deg := make([]int, m)
			adj := make([][]int, m)
			for _, e := range edges {
				deg[e[0]]++
				deg[e[1]]++
				adj[e[0]] = append(adj[e[0]], e[1])
				adj[e[1]] = append(adj[e[1]], e[0])
			}
			maxDeg := 0
			for _, dv := range deg {
				maxDeg = max(maxDeg, dv)
			}
			if got := MaxDegree(f, s); got != maxDeg {
				t.Fatalf("%s %v: MaxDegree = %d, naive %d", f, s, got, maxDeg)
			}

			// 2-color by BFS; the guests are connected, so one sweep from
			// node 0 settles bipartiteness and both class sizes.
			color := make([]int8, m)
			for i := range color {
				color[i] = -1
			}
			color[0] = 0
			queue := []int{0}
			bipartite := true
			classes := [2]int64{1, 0}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v := range adj[u] {
					if color[v] == -1 {
						color[v] = 1 - color[u]
						classes[color[v]]++
						queue = append(queue, v)
					} else if color[v] == color[u] {
						bipartite = false
					}
				}
			}
			seen := int64(0)
			for _, c := range color {
				if c != -1 {
					seen++
				}
			}
			if len(edges) > 0 && seen != int64(m) {
				t.Fatalf("%s %v: guest not connected (%d/%d reached)", f, s, seen, m)
			}

			odd := disjointOddCycles(f, s)
			if (odd > 0) == bipartite {
				t.Fatalf("%s %v: disjointOddCycles=%d but bipartite=%v", f, s, odd, bipartite)
			}
			if bipartite && len(edges) > 0 {
				if got := maxColorClass(f, s); got != max(classes[0], classes[1]) {
					t.Fatalf("%s %v: maxColorClass = %d, naive %d/%d", f, s, got, classes[0], classes[1])
				}
			}
			if odd > 0 {
				checkDisjointOddRings(t, f, s, edges, odd)
			}
		}
	}
}

// checkDisjointOddRings verifies the combinatorial object behind the
// odd-cycle bound: some wrapped odd axis of length a really does carry
// `count` vertex-disjoint a-cycles whose edges are all present.
func checkDisjointOddRings(t *testing.T, f guest.Family, s mesh.Shape, edges [][2]int, count int64) {
	t.Helper()
	present := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		present[[2]int{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	m := s.Nodes()
	for i, a := range s {
		if !(a >= 3 && a%2 == 1 && guest.Get(f).Wrap().Wraps(i, len(s))) || int64(m/a) != count {
			continue
		}
		stride := 1
		for j := 0; j < i; j++ {
			stride *= s[j]
		}
		used := make([]bool, m)
		rings := int64(0)
		for base := 0; base < m; base++ {
			if s.Coord(base)[i] != 0 {
				continue
			}
			for k := 0; k < a; k++ {
				u, v := base+k*stride, base+((k+1)%a)*stride
				if !present[[2]int{min(u, v), max(u, v)}] {
					t.Fatalf("%s %v: claimed ring edge (%d,%d) missing", f, s, u, v)
				}
				if used[u] {
					t.Fatalf("%s %v: ring node %d reused", f, s, u)
				}
				used[u] = true
			}
			rings++
		}
		if rings != count {
			t.Fatalf("%s %v: found %d disjoint odd rings, bound claims %d", f, s, rings, count)
		}
		return
	}
	t.Fatalf("%s %v: no axis matches disjointOddCycles=%d", f, s, count)
}

// bruteOptimum exhaustively minimizes dilation and wirelength over every
// one-to-one embedding into the n-cube (node 0 pinned to host 0 — the
// XOR-translation symmetry of the cube preserves all Hamming distances),
// and minimizes the e-cube-routed congestion over the same maps (an upper
// bound on the optimum over all routings).
func bruteOptimum(edges [][2]int, m, n int) (minDil int, minWL int64, minCong int) {
	nHost := 1 << uint(n)
	code := make([]int, m)
	usedHost := make([]bool, nHost)
	code[0] = 0
	usedHost[0] = true
	minDil, minWL, minCong = 1<<30, 1<<62, 1<<30
	loads := make([]int, nHost*n)

	var rec func(g int)
	rec = func(g int) {
		if g == m {
			dil, wl := 0, int64(0)
			for _, e := range edges {
				d := bits.OnesCount(uint(code[e[0]] ^ code[e[1]]))
				wl += int64(d)
				dil = max(dil, d)
			}
			minDil = min(minDil, dil)
			minWL = min(minWL, wl)
			// e-cube routing: flip differing bits lowest-first, counting
			// the load on each undirected link (node, axis).
			for i := range loads {
				loads[i] = 0
			}
			cong := 0
			for _, e := range edges {
				cur, diff := code[e[0]], code[e[0]]^code[e[1]]
				for diff != 0 {
					b := bits.TrailingZeros(uint(diff))
					lo := cur &^ (1 << uint(b))
					loads[lo*n+b]++
					cong = max(cong, loads[lo*n+b])
					cur ^= 1 << uint(b)
					diff &^= 1 << uint(b)
				}
			}
			minCong = min(minCong, cong)
			return
		}
		for h := 1; h < nHost; h++ {
			if !usedHost[h] {
				usedHost[h] = true
				code[g] = h
				rec(g + 1)
				usedHost[h] = false
			}
		}
	}
	rec(1)
	return minDil, minWL, minCong
}

// TestBoundsExhaustiveSmall compares the closed-form bounds against the
// exhaustively computed optimum on every shape with at most 8 nodes per
// family (so the minimal cube has at most 8 hosts and full enumeration of
// one-to-one maps is feasible).  Dilation and wirelength bounds are tight
// on this entire set; congestion is checked for soundness against the best
// e-cube-routed map.
func TestBoundsExhaustiveSmall(t *testing.T) {
	for f := guest.Family(0); f.IsValid(); f++ {
		for _, s := range shapesUpTo(f, 8) {
			edges := edgeList(f, s)
			if len(edges) == 0 {
				b := Minimal(f, s)
				if b.Dilation != 0 || b.Wirelength != 0 || b.Congestion != 0 {
					t.Fatalf("%s %v: edgeless shape has nonzero bounds %+v", f, s, b)
				}
				continue
			}
			n := s.MinCubeDim()
			b := For(f, s, n)
			minDil, minWL, minCong := bruteOptimum(edges, s.Nodes(), n)
			if b.Dilation != minDil {
				t.Errorf("%s %v n=%d: dilation LB %d, exhaustive optimum %d", f, s, n, b.Dilation, minDil)
			}
			if b.Wirelength != minWL {
				t.Errorf("%s %v n=%d: wirelength LB %d, exhaustive optimum %d", f, s, n, b.Wirelength, minWL)
			}
			if b.Congestion > minCong {
				t.Errorf("%s %v n=%d: congestion LB %d exceeds best e-cube congestion %d", f, s, n, b.Congestion, minCong)
			}
		}
	}
}

// TestBoundsMonotoneInCube checks that a roomier cube never raises a
// bound: every criterion weakens as n grows.
func TestBoundsMonotoneInCube(t *testing.T) {
	for f := guest.Family(0); f.IsValid(); f++ {
		for _, s := range shapesUpTo(f, 64) {
			n := s.MinCubeDim()
			b0 := For(f, s, n)
			b1 := For(f, s, n+1)
			if b1.Dilation > b0.Dilation || b1.Wirelength > b0.Wirelength || b1.Congestion > b0.Congestion {
				t.Fatalf("%s %v: bounds grew with cube: n=%d %+v, n+1 %+v", f, s, n, b0, b1)
			}
		}
	}
}
