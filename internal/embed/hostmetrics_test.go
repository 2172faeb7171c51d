package embed

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// measureOnHost computes the embedding's Metrics on an explicit host graph
// instead of the fused cube-specialized pass: nodes are plain graph
// vertices, each step of a decoded route must be a host edge, each route's
// length must be the host's BFS distance, and loads are tallied per host
// node pair.  Routes are decoded with routeInto, which the fused pass does
// not call: it walks codes inline.
func measureOnHost(t *testing.T, name string, e *Embedding, h *graph.Graph) Metrics {
	t.Helper()
	dims, tree := e.Guest.Dims(), e.Family == guest.Tree
	bfs := make(map[int][]int)
	loads := make(map[[2]int]int)
	edges, dilSum, maxDil := 0, 0, 0
	e.eachGuestEdge(func(ed mesh.Edge) {
		var code uint8
		if e.Routes != nil {
			code = e.Routes[slot(ed, dims, tree)]
		}
		a, b := int(e.Map[ed.U]), int(e.Map[ed.V])
		p := routeInto(nil, e.Map[ed.U], e.Map[ed.V], code)
		for i := 1; i < len(p); i++ {
			u, v := int(p[i-1]), int(p[i])
			if !h.HasEdge(u, v) {
				t.Fatalf("%s: edge (%d,%d): step %d→%d is no host edge", name, ed.U, ed.V, u, v)
			}
			loads[[2]int{min(u, v), max(u, v)}]++
		}
		if bfs[a] == nil {
			bfs[a] = h.BFS(a)
		}
		d := len(p) - 1
		if d != bfs[a][b] {
			t.Fatalf("%s: edge (%d,%d): route length %d, host distance %d", name, ed.U, ed.V, d, bfs[a][b])
		}
		edges++
		dilSum += d
		maxDil = max(maxDil, d)
	})
	nodes := e.Guest.Nodes()
	minDim := 0
	for 1<<minDim < nodes {
		minDim++
	}
	m := Metrics{
		Guest:      e.Guest.String(),
		Family:     e.Family.String(),
		Wrap:       e.Family == guest.Torus,
		CubeDim:    e.N,
		Expansion:  float64(h.N) / float64(nodes),
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
	hosted := make(map[int]int)
	for _, img := range e.Map {
		hosted[int(img)]++
		m.LoadFactor = max(m.LoadFactor, hosted[int(img)])
	}
	return m
}

// TestMeasureOnHostAgreesWithFused measures every guest family in the
// metrics test set (mesh, torus, cylinder, tree, pinned routes) on the
// explicit hypercube graph and requires the fused pass to agree bit for
// bit.
func TestMeasureOnHostAgreesWithFused(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		got, want := measureOnHost(t, name, e, graph.Hypercube(e.N)), e.Measure()
		if got != want {
			t.Errorf("%s:\n host  %+v\n fused %+v", name, got, want)
		}
	}
}
