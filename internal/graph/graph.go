// Package graph provides an explicit undirected-graph representation with
// constructors for the graph families of the paper — meshes, wraparound
// meshes (tori), cylinders, Boolean cubes, paths, rings and Cartesian
// products — plus BFS utilities.  It backs the solver, the verifier's
// cross-checks, the guest edge-set oracle and the structural facts (e.g.
// Lemma 1) used by the torus embeddings.
package graph

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/mesh"
)

// Graph is a simple undirected graph on nodes 0..N-1 with adjacency lists.
type Graph struct {
	N   int
	Adj [][]int32
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	return &Graph{N: n, Adj: make([][]int32, n)}
}

// AddEdge inserts the undirected edge {u, v}.  Self-loops and duplicate
// edges are rejected with a panic: the graph families here are all simple.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u < 0 || v < 0 || u >= g.N || v >= g.N {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.N))
	}
	for _, w := range g.Adj[u] {
		if int(w) == v {
			panic(fmt.Sprintf("graph: duplicate edge (%d,%d)", u, v))
		}
	}
	g.Adj[u] = append(g.Adj[u], int32(v))
	g.Adj[v] = append(g.Adj[v], int32(u))
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.Adj[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.Adj {
		total += len(a)
	}
	return total / 2
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// EachEdge calls fn once per undirected edge with u < v.
func (g *Graph) EachEdge(fn func(u, v int)) {
	for u := 0; u < g.N; u++ {
		for _, w := range g.Adj[u] {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// BFS returns the distance from src to every node, with -1 for unreachable.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Adj[u] {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected (vacuously true for N≤1).
func (g *Graph) Connected() bool {
	if g.N <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Mesh returns the mesh graph of the given shape (no wraparound): the
// product of one path per axis.
func Mesh(s mesh.Shape) *Graph { return grid(s, len(s)) }

// Torus returns the wraparound-mesh graph of the given shape: the product
// of one ring per axis.
func Torus(s mesh.Shape) *Graph { return grid(s, 0) }

// Cylinder returns the graph of the given shape with only the last axis
// wrapped: a path on every other axis times a ring.
func Cylinder(s mesh.Shape) *Graph { return grid(s, len(s)-1) }

// grid is the Cartesian product of one factor per axis, axis 0 varying
// fastest as in mesh.Shape indexing: a ring on the axes from firstRing on,
// a path below.  It shares no code with the mesh.Shape edge enumerations,
// which is what lets tests use it as their oracle.
func grid(s mesh.Shape, firstRing int) *Graph {
	g := New(1)
	for i, l := range s {
		f := PathGraph(l)
		if i >= firstRing {
			f = Ring(l)
		}
		g = Product(g, f)
	}
	return g
}

// Hypercube returns the Boolean n-cube graph.
func Hypercube(n int) *Graph {
	g := New(1 << uint(n))
	for v := 0; v < g.N; v++ {
		for d := 0; d < n; d++ {
			w := int(bits.FlipBit(uint64(v), d))
			if w > v {
				g.AddEdge(v, w)
			}
		}
	}
	return g
}

// PathGraph returns the path (linear array) on n nodes.
func PathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Ring returns the cycle on n nodes (n ≥ 3; n = 2 yields a single edge,
// n ≤ 1 no edges) — matching the torus edge convention of package mesh.
func Ring(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	if n > 2 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Product returns the Cartesian product g1 × g2 (Definition 4).  The node
// [u, v] has index v*g1.N + u, i.e. the g1 coordinate varies fastest,
// matching mesh.Shape index order when shapes are multiplied per axis.
func Product(g1, g2 *Graph) *Graph {
	g := New(g1.N * g2.N)
	// G1-type edges: for every node v of g2, a copy of g1.
	for v := 0; v < g2.N; v++ {
		base := v * g1.N
		g1.EachEdge(func(a, b int) { g.AddEdge(base+a, base+b) })
	}
	// G2-type edges: for every node u of g1, a copy of g2.
	for u := 0; u < g1.N; u++ {
		g2.EachEdge(func(a, b int) { g.AddEdge(a*g1.N+u, b*g1.N+u) })
	}
	return g
}

// IsSubgraphUnderMap checks that the map φ (guest node → host node) is
// injective and maps every guest edge to a host edge, i.e. it witnesses that
// guest is (isomorphic to) a subgraph of host.
func IsSubgraphUnderMap(guest, host *Graph, phi []int) error {
	if len(phi) != guest.N {
		return fmt.Errorf("graph: map covers %d of %d nodes", len(phi), guest.N)
	}
	seen := make(map[int]int, len(phi))
	for u, hu := range phi {
		if hu < 0 || hu >= host.N {
			return fmt.Errorf("graph: node %d maps outside host (%d)", u, hu)
		}
		if prev, dup := seen[hu]; dup {
			return fmt.Errorf("graph: nodes %d and %d both map to %d", prev, u, hu)
		}
		seen[hu] = u
	}
	var bad error
	guest.EachEdge(func(u, v int) {
		if bad == nil && !host.HasEdge(phi[u], phi[v]) {
			bad = fmt.Errorf("graph: guest edge (%d,%d) not preserved", u, v)
		}
	})
	return bad
}
