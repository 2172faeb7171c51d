package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// The metrics oracle: it measures an embedding on explicit graphs from
// internal/graph — the guest's own product graph, the hypercube's adjacency
// and BFS distances — and decodes every route code with its own reading of
// the layout package embed documents, sharing no code with the fused pass,
// the edge enumerators or the route decoder.

// oracleSlot re-derives the route slot of guest edge {u, v}: a grid edge
// belongs to the node that generates it — the lower end of a path edge, the
// last-hyperplane end of a wraparound edge — times the arity, plus its
// axis; a tree edge belongs to its child.
func oracleSlot(e *embed.Embedding, u, v int) int {
	u, v = min(u, v), max(u, v)
	if e.Family == guest.Tree {
		return v
	}
	cu, cv := e.Guest.Coord(u), e.Guest.Coord(v)
	for a := range cu {
		switch cv[a] - cu[a] {
		case 0:
		case 1:
			return u*len(cu) + a
		default: // a wraparound edge: v sits on the last hyperplane
			return v*len(cu) + a
		}
	}
	panic(fmt.Sprintf("oracle: {%d,%d} is no edge", u, v))
}

// oraclePath decodes the host path of guest edge {u, v}.  Code 0 corrects
// the differing bits lowest first from the image of the lower-indexed
// endpoint, which is the U every family's enumeration reports.  Any other
// code starts at the lower image and flips at step t the differing bit
// whose ascending rank sits in bits 2t..2t+1.
func oraclePath(e *embed.Embedding, u, v int) []int {
	u, v = min(u, v), max(u, v)
	a, b := int(e.Map[u]), int(e.Map[v])
	var code uint8
	if e.Routes != nil {
		code = e.Routes[oracleSlot(e, u, v)]
	}
	var differing []int
	for bit := 0; bit < e.N; bit++ {
		if (a^b)>>bit&1 == 1 {
			differing = append(differing, bit)
		}
	}
	cur, order := a, differing
	if code != 0 {
		cur, order = min(a, b), make([]int, len(differing))
		for t := range order {
			order[t] = differing[int(code>>(2*t))&3]
		}
	}
	path := []int{cur}
	for _, bit := range order {
		cur ^= 1 << bit
		path = append(path, cur)
	}
	return path
}

// fromLower orients a path to start at its lower end.
func fromLower(p []int) []int {
	if p[0] > p[len(p)-1] {
		p = slices.Clone(p)
		slices.Reverse(p)
	}
	return p
}

// guestGraph builds the explicit guest graph of an embedding's family.
func guestGraph(e *embed.Embedding) *graph.Graph {
	switch e.Family {
	case guest.Mesh:
		return graph.Mesh(e.Guest)
	case guest.Torus:
		return graph.Torus(e.Guest)
	case guest.Cylinder:
		return graph.Cylinder(e.Guest)
	case guest.Tree:
		g := graph.New(e.Guest[0])
		for c := 1; c < g.N; c++ {
			g.AddEdge((c-1)/2, c)
		}
		return g
	}
	panic("oracle: no graph for family " + e.Family.String())
}

// oracleMeasure computes Metrics from the explicit graphs, checking every
// decoded path on the way: its endpoints are the edge's images, each step
// is a hypercube edge, and its length is the BFS distance.  Loads are
// tallied per host node pair.
func oracleMeasure(t *testing.T, name string, e *embed.Embedding) embed.Metrics {
	t.Helper()
	g, h := guestGraph(e), graph.Hypercube(e.N)
	bfs := make(map[int][]int)
	loads := make(map[[2]int]int)
	edges, dilSum, maxDil := 0, 0, 0
	g.EachEdge(func(u, v int) {
		a, b := int(e.Map[u]), int(e.Map[v])
		p := oraclePath(e, u, v)
		if ends := []int{p[0], p[len(p)-1]}; !slices.Equal(ends, []int{a, b}) && !slices.Equal(ends, []int{b, a}) {
			t.Fatalf("%s: edge {%d,%d}: path %v does not join %d and %d", name, u, v, p, a, b)
		}
		for i := 1; i < len(p); i++ {
			if !h.HasEdge(p[i-1], p[i]) {
				t.Fatalf("%s: edge {%d,%d}: step %d→%d is no hypercube edge", name, u, v, p[i-1], p[i])
			}
			loads[[2]int{min(p[i-1], p[i]), max(p[i-1], p[i])}]++
		}
		if bfs[a] == nil {
			bfs[a] = h.BFS(a)
		}
		d := len(p) - 1
		if d != bfs[a][b] {
			t.Fatalf("%s: edge {%d,%d}: path length %d, BFS distance %d", name, u, v, d, bfs[a][b])
		}
		edges++
		dilSum += d
		maxDil = max(maxDil, d)
	})
	minDim := 0
	for 1<<minDim < g.N {
		minDim++
	}
	m := embed.Metrics{
		Guest:      e.Guest.String(),
		Family:     e.Family.String(),
		Wrap:       e.Family == guest.Torus,
		CubeDim:    e.N,
		Expansion:  float64(h.N) / float64(g.N),
		Minimal:    e.N == minDim,
		Dilation:   maxDil,
		Wirelength: int64(dilSum),
	}
	if edges > 0 {
		m.AvgDilation = float64(dilSum) / float64(edges)
	}
	sum := 0
	for _, c := range loads {
		m.Congestion = max(m.Congestion, c)
		sum += c
	}
	if links := h.NumEdges(); links > 0 {
		m.AvgCongestion = float64(sum) / float64(links)
	}
	hosted := make(map[cube.Node]int)
	for _, img := range e.Map {
		hosted[img]++
		m.LoadFactor = max(m.LoadFactor, hosted[img])
	}
	return m
}

// oracleGuests returns seeded planner-built guests of all four families
// with at most 2^10 nodes, planner-built guests whose routes come from the
// direct tables, and three fixtures pinned by RealizeMinCongestion: a
// 3x5x17 identity map and a 5x7 Gray torus, which pin edges at distances 3
// and 4 and across wraparounds, and the inorder 31-node tree, whose right
// children sit at distance 2.
func oracleGuests(t *testing.T) map[string]*embed.Embedding {
	t.Helper()
	out := make(map[string]*embed.Embedding)
	add := func(f guest.Family, s mesh.Shape) {
		p, err := PlanGuest(f, s, DefaultOptions)
		if err != nil {
			t.Fatalf("%v %v: %v", f, s, err)
		}
		out[fmt.Sprintf("%v %v", f, s)] = p.Build()
	}
	r := rand.New(rand.NewSource(16))
	for len(out) < 9 {
		s := mesh.Shape{2 + r.Intn(11), 2 + r.Intn(11), 2 + r.Intn(11)}
		if s.Nodes() <= 1<<10 {
			add(guest.Mesh, s)
		}
	}
	for len(out) < 15 {
		s := mesh.Shape{3 + r.Intn(10), 3 + r.Intn(10), 3 + r.Intn(10)}
		if s.Nodes() <= 1<<10 {
			add([]guest.Family{guest.Torus, guest.Cylinder}[len(out)%2], s)
		}
	}
	for h := 2; h <= 10; h += 4 {
		add(guest.Tree, mesh.Shape{1<<h - 1})
	}
	for _, s := range []mesh.Shape{{7, 9}, {3, 3, 7}, {6, 10}, {14, 18}} {
		add(guest.Mesh, s)
	}
	identity := embed.New(mesh.Shape{3, 5, 17}, 8)
	for i := range identity.Map {
		identity.Map[i] = cube.Node(i)
	}
	identity.RealizeMinCongestion()
	out["3x5x17 identity pinned"] = identity
	torus := embed.Gray(mesh.Shape{5, 7})
	torus.Family = guest.Torus
	torus.RealizeMinCongestion()
	out["torus 5x7 pinned"] = torus
	tree := embed.TreeInorder(mesh.Shape{31})
	tree.RealizeMinCongestion()
	out["tree 31 pinned"] = tree
	return out
}

// TestDilationAgreesWithGraphBFS is the full-metrics oracle: every metric
// of the fused Measure, at 1, 2, 4 and 8 workers, must equal oracleMeasure.
func TestDilationAgreesWithGraphBFS(t *testing.T) {
	pinned := 0
	for name, e := range oracleGuests(t) {
		if err := e.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Routes != nil {
			pinned++
		}
		want := oracleMeasure(t, name, e)
		for _, w := range []int{1, 2, 4, 8} {
			if got := e.MeasureParallel(w); got != want {
				t.Errorf("%s: workers=%d:\n fused  %+v\n oracle %+v", name, w, got, want)
			}
		}
	}
	if pinned < 6 {
		t.Errorf("only %d oracle guests carry route codes", pinned)
	}
}
