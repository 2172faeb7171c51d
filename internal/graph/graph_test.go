package graph

import (
	"testing"

	"repro/internal/mesh"
)

func TestMeshGraph(t *testing.T) {
	s := mesh.Shape{3, 4}
	g := Mesh(s)
	if g.N != 12 || g.NumEdges() != s.Edges(mesh.NoWrap) {
		t.Fatalf("N=%d edges=%d", g.N, g.NumEdges())
	}
	if !g.Connected() {
		t.Error("mesh should be connected")
	}
}

func TestTorusGraphDegrees(t *testing.T) {
	g := Torus(mesh.Shape{3, 5})
	for v := 0; v < g.N; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus node %d has degree %d", v, g.Degree(v))
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N != 16 || g.NumEdges() != 32 {
		t.Fatalf("N=%d E=%d", g.N, g.NumEdges())
	}
	for v := 0; v < g.N; v++ {
		if g.Degree(v) != 4 {
			t.Errorf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	// Diameter of the n-cube is n.
	dist := g.BFS(0)
	max := 0
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	if max != 4 {
		t.Errorf("diameter %d, want 4", max)
	}
}

func TestProductOfPathsIsMesh(t *testing.T) {
	// Path(3) × Path(5) must be the 3×5 mesh (Corollary 2, fact 1).
	p3, p5 := PathGraph(3), PathGraph(5)
	prod := Product(p3, p5)
	m := Mesh(mesh.Shape{3, 5})
	if prod.N != m.N || prod.NumEdges() != m.NumEdges() {
		t.Fatalf("product: N=%d E=%d; mesh: N=%d E=%d", prod.N, prod.NumEdges(), m.N, m.NumEdges())
	}
	// identity map must witness isomorphism (same index convention)
	phi := make([]int, m.N)
	for i := range phi {
		phi[i] = i
	}
	if err := IsSubgraphUnderMap(m, prod, phi); err != nil {
		t.Errorf("mesh ⊄ product: %v", err)
	}
	if err := IsSubgraphUnderMap(prod, m, phi); err != nil {
		t.Errorf("product ⊄ mesh: %v", err)
	}
}

func TestProductOfCubesIsCube(t *testing.T) {
	// Corollary 2, fact 2: Q(n1) × Q(n2) = Q(n1+n2).
	q2, q3 := Hypercube(2), Hypercube(3)
	prod := Product(q2, q3)
	q5 := Hypercube(5)
	if prod.N != q5.N || prod.NumEdges() != q5.NumEdges() {
		t.Fatalf("product: N=%d E=%d; Q5: N=%d E=%d", prod.N, prod.NumEdges(), q5.N, q5.NumEdges())
	}
	// Node [u,v] has index v*4+u = v<<2 | u which is exactly the
	// concatenated cube address, so identity is an isomorphism.
	phi := make([]int, q5.N)
	for i := range phi {
		phi[i] = i
	}
	if err := IsSubgraphUnderMap(q5, prod, phi); err != nil {
		t.Errorf("Q5 ⊄ Q2×Q3: %v", err)
	}
}

func TestMeshSubgraphOfProductMeshes(t *testing.T) {
	// Fact 3 of Corollary 2 (Ma–Tao): a 6-node path is a subgraph of
	// Path(3) × Path(2) via snake order.
	p6 := PathGraph(6)
	prod := Product(PathGraph(3), PathGraph(2))
	// snake: (x,y) with y slow, reflect x when y odd
	phi := []int{0, 1, 2, 5, 4, 3}
	if err := IsSubgraphUnderMap(p6, prod, phi); err != nil {
		t.Errorf("path ⊄ product: %v", err)
	}
}

func TestRingSubgraphOfEvenProduct(t *testing.T) {
	// Lemma 1 ingredient: every ℓ'×ℓ'' mesh with even ℓ'ℓ'' contains a
	// Hamiltonian ring. Check 2×3: ring of 6 via boustrophedon cycle.
	prod := Product(PathGraph(2), PathGraph(3))
	ring := Ring(6)
	// cycle visiting (0,0),(1,0),(1,1),(1,2),(0,2),(0,1) -> indices u + v*2
	phi := []int{0, 1, 3, 5, 4, 2}
	if err := IsSubgraphUnderMap(ring, prod, phi); err != nil {
		t.Errorf("ring ⊄ 2x3 mesh: %v", err)
	}
}

func TestRingEdgeCounts(t *testing.T) {
	if Ring(1).NumEdges() != 0 || Ring(2).NumEdges() != 1 || Ring(3).NumEdges() != 3 || Ring(8).NumEdges() != 8 {
		t.Error("ring edge counts wrong")
	}
}

func TestIsSubgraphUnderMapRejects(t *testing.T) {
	g := PathGraph(3)
	h := PathGraph(3)
	if err := IsSubgraphUnderMap(g, h, []int{0, 2, 1}); err == nil {
		t.Error("non-edge-preserving map accepted")
	}
	if err := IsSubgraphUnderMap(g, h, []int{0, 0, 1}); err == nil {
		t.Error("non-injective map accepted")
	}
	if err := IsSubgraphUnderMap(g, h, []int{0, 1}); err == nil {
		t.Error("partial map accepted")
	}
	if err := IsSubgraphUnderMap(g, h, []int{0, 1, 5}); err == nil {
		t.Error("out-of-range map accepted")
	}
	if err := IsSubgraphUnderMap(g, h, []int{0, 1, 2}); err != nil {
		t.Errorf("identity rejected: %v", err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	for _, f := range []func(){
		func() { g.AddEdge(0, 0) },
		func() { g.AddEdge(0, 1) },
		func() { g.AddEdge(1, 0) },
		func() { g.AddEdge(0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[1] != 1 || dist[2] != -1 || dist[3] != -1 {
		t.Errorf("dist = %v", dist)
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestProductEdgeCount(t *testing.T) {
	// |E(G1×G2)| = |V1||E2| + |V2||E1| (Definition 4).
	g1, g2 := Mesh(mesh.Shape{3, 4}), Ring(5)
	prod := Product(g1, g2)
	want := g1.N*g2.NumEdges() + g2.N*g1.NumEdges()
	if prod.NumEdges() != want {
		t.Errorf("edges = %d, want %d", prod.NumEdges(), want)
	}
}

func BenchmarkHypercubeBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Hypercube(10)
	}
}

func BenchmarkBFS(b *testing.B) {
	g := Hypercube(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(i & (g.N - 1))
	}
}
