// Package embed defines the Embedding value — a map from the nodes of a
// guest mesh to the nodes of a Boolean cube together with a realization of
// every guest edge as a cube path — and computes the quality measures of the
// paper: expansion, dilation, average dilation, congestion, average
// congestion and (for many-to-one embeddings) load factor.
package embed

import (
	"context"
	"fmt"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// Embedding maps a guest graph into a Boolean N-cube.
//
// The guest is a (Family, Shape) pair named by package guest: the
// Shape fixes the node set (dense indices, axis 0 fastest) and the Family
// fixes the edge interpretation (mesh, torus, cylinder, tree, …).  The
// zero Family is guest.Mesh, so plain mesh embeddings need no extra setup.
//
// Map[i] is the cube node hosting guest node i.  For one-to-one embeddings
// Map must be injective; many-to-one embeddings (Section 7 of the paper)
// relax this and are validated with VerifyManyToOne.
//
// Routes, if non-nil, pins the host path of guest edges with one route code
// per edge slot (route.go).  An edge with code 0 takes e-cube
// (dimension-ordered) shortest-path routing.  Every route is a shortest
// path, so the dilation of an edge is the cube distance of its images
// whatever its code.
type Embedding struct {
	Guest  mesh.Shape
	Family guest.Family // edge interpretation of Guest (zero: mesh)
	N      int          // host cube dimension
	Map    []cube.Node
	Routes []uint8 // route code per edge slot; nil pins nothing
}

// New allocates an embedding of the guest shape into an n-cube with an
// all-zero map (to be filled in by a constructor).  The family defaults to
// mesh; constructors of other families set Family themselves.
func New(s mesh.Shape, n int) *Embedding {
	return &Embedding{Guest: s.Clone(), N: n, Map: make([]cube.Node, s.Nodes())}
}

// Relabel returns e read in another axis order: the guest to, whose axis
// axmap[j] is axis j of e's guest (axes past len(axmap) keep their place).
// Every node keeps its image, so dilation and wirelength are unchanged;
// route codes are not carried over.
func (e *Embedding) Relabel(to mesh.Shape, axmap []int) *Embedding {
	out := New(to, e.N)
	out.Family = e.Family
	at, from := make([]int, to.Dims()), make([]int, to.Dims())
	for idx := range out.Map {
		to.CoordInto(idx, at)
		for j := range from {
			from[j] = at[j]
			if j < len(axmap) {
				from[j] = at[axmap[j]]
			}
		}
		out.Map[idx] = e.Map[e.Guest.Index(from)]
	}
	return out
}

// HostNodes returns 2^N.
func (e *Embedding) HostNodes() int { return 1 << uint(e.N) }

// Expansion returns |V(H)| / |V(G)| (Definition 1).
func (e *Embedding) Expansion() float64 {
	return float64(e.HostNodes()) / float64(e.Guest.Nodes())
}

// Minimal reports whether the embedding uses the minimal cube:
// N == ⌈log₂ |V(G)|⌉.
func (e *Embedding) Minimal() bool { return e.N == e.Guest.MinCubeDim() }

// Wraps reports whether the guest family has wraparound edges.
func (e *Embedding) Wraps() bool { return guest.Get(e.Family).Wraps() }

// eachGuestEdge iterates guest edges under the family's interpretation.
func (e *Embedding) eachGuestEdge(fn func(mesh.Edge)) {
	guest.Get(e.Family).EachEdgeRange(e.Guest, 0, e.Guest.Nodes(), fn)
}

// NumGuestEdges returns the number of guest edges under the family's
// interpretation.
func (e *Embedding) NumGuestEdges() int {
	return guest.Get(e.Family).Edges(e.Guest)
}

// Dilation returns the maximum edge dilation (Definition 2).  It is a thin
// wrapper over the fused metrics engine (metrics.go).
func (e *Embedding) Dilation() int {
	return e.fusedPass(context.Background(), 0, false).maxDil
}

// AvgDilation returns the mean edge dilation (Definition 2).  It returns 0
// for guests with no edges.
func (e *Embedding) AvgDilation() float64 {
	st := e.fusedPass(context.Background(), 0, false)
	if st.edges == 0 {
		return 0
	}
	return float64(st.dilSum) / float64(st.edges)
}

// AxisAvgDilation returns the mean dilation of the edges along one guest
// axis (the d̄₂(i) of Section 4.1), or 0 if the axis has no edges.  No
// served metric needs it, so it walks the edges itself instead of adding
// per-axis tallies to the fused pass.
func (e *Embedding) AxisAvgDilation(axis int) float64 {
	sum, cnt := 0, 0
	e.eachGuestEdge(func(ed mesh.Edge) {
		if ed.Axis == axis {
			sum += cube.Dist(e.Map[ed.U], e.Map[ed.V])
			cnt++
		}
	})
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// LinkLoads returns the congestion of every host link under the current
// path realization, indexed by cube.LinkIndex.
func (e *Embedding) LinkLoads() []int {
	st := e.fusedPass(context.Background(), 0, true)
	loads := make([]int, cube.NumLinks(e.N))
	for i, c := range st.loads {
		loads[i] = int(c)
	}
	return loads
}

// Congestion returns the maximum link congestion (Definition 3).
func (e *Embedding) Congestion() int {
	max := 0
	for _, c := range e.fusedPass(context.Background(), 0, true).loads {
		if int(c) > max {
			max = int(c)
		}
	}
	return max
}

// LoadFactor returns the maximum number of guest nodes sharing a host node
// (Definition 5).  For a valid one-to-one embedding it is 1.  Small cubes
// are counted in a dense slice; cubes above denseNodeLimit fall back to a
// map.
func (e *Embedding) LoadFactor() int {
	hn := e.HostNodes()
	if hn <= denseNodeLimit {
		counts := make([]int32, hn)
		max := int32(0)
		for _, h := range e.Map {
			if int64(h) >= int64(hn) {
				return e.loadFactorMap() // invalid image; stay permissive like the map path
			}
			counts[h]++
			if counts[h] > max {
				max = counts[h]
			}
		}
		return int(max)
	}
	return e.loadFactorMap()
}

func (e *Embedding) loadFactorMap() int {
	counts := make(map[cube.Node]int, len(e.Map))
	max := 0
	for _, h := range e.Map {
		counts[h]++
		if counts[h] > max {
			max = counts[h]
		}
	}
	return max
}

// Verify checks the structural invariants of a one-to-one embedding:
// the guest shape is valid, every image is inside the cube, the map is
// injective, and the route codes are well formed (verifyRoutes).
func (e *Embedding) Verify() error {
	if err := e.verifyCommon(); err != nil {
		return err
	}
	if hn := e.HostNodes(); hn <= denseNodeLimit {
		// Dense injectivity check: slot h holds 1 + the guest index mapped
		// there.  verifyCommon bounds every image, and the first duplicate
		// appears within the first hn+1 entries, so int32 suffices.
		seen := make([]int32, hn)
		for i, h := range e.Map {
			if prev := seen[h]; prev != 0 {
				return fmt.Errorf("embed: guest nodes %v and %v both map to cube node %d",
					e.Guest.Coord(int(prev-1)), e.Guest.Coord(i), h)
			}
			seen[h] = int32(i + 1)
		}
		return nil
	}
	seen := make(map[cube.Node]int, len(e.Map))
	for i, h := range e.Map {
		if prev, dup := seen[h]; dup {
			return fmt.Errorf("embed: guest nodes %v and %v both map to cube node %d",
				e.Guest.Coord(prev), e.Guest.Coord(i), h)
		}
		seen[h] = i
	}
	return nil
}

// VerifyManyToOne checks the invariants of a many-to-one embedding
// (everything Verify checks except injectivity).
func (e *Embedding) VerifyManyToOne() error { return e.verifyCommon() }

func (e *Embedding) verifyCommon() error {
	if err := guest.Validate(e.Family, e.Guest); err != nil {
		return err
	}
	if e.N < 0 || e.N > 62 {
		return fmt.Errorf("embed: cube dimension %d out of range", e.N)
	}
	if len(e.Map) != e.Guest.Nodes() {
		return fmt.Errorf("embed: map covers %d of %d guest nodes", len(e.Map), e.Guest.Nodes())
	}
	limit := cube.Node(1) << uint(e.N)
	for i, h := range e.Map {
		if h >= limit {
			return fmt.Errorf("embed: guest node %v maps to %d, outside the %d-cube",
				e.Guest.Coord(i), h, e.N)
		}
	}
	return e.verifyRoutes()
}

// RealizeMinCongestion pins, for every unpinned guest edge whose images are
// at distance 2..4, the shortest path that currently has the lighter maximum
// link load (greedy, deterministic order; the first of cube.ShortestPaths
// wins a tie).  Distance-0/1 edges need no choice and longer edges keep
// e-cube routing.  This is how the congestion-2 figures of the direct
// embeddings are attained.
func (e *Embedding) RealizeMinCongestion() {
	loads := make([]int, cube.NumLinks(e.N))
	if e.Routes == nil {
		e.Routes = make([]uint8, e.numSlots())
	}
	// Links are accumulated by walking paths pairwise — no per-path link
	// slices — and routes land in one reused scratch buffer.
	var route cube.Path
	addPath := func(p cube.Path) {
		for i := 1; i < len(p); i++ {
			loads[cube.LinkIndex(cube.LinkBetween(p[i-1], p[i]), e.N)]++
		}
	}
	worst := func(p cube.Path) int {
		w := 0
		for i := 1; i < len(p); i++ {
			if c := loads[cube.LinkIndex(cube.LinkBetween(p[i-1], p[i]), e.N)]; c > w {
				w = c
			}
		}
		return w
	}
	dims, tree := e.Guest.Dims(), e.Family == guest.Tree
	e.eachGuestEdge(func(ed mesh.Edge) {
		s := slot(ed, dims, tree)
		a, b := e.Map[ed.U], e.Map[ed.V]
		if d := cube.Dist(a, b); e.Routes[s] == 0 && d >= 2 && d <= maxRouteDist {
			best := cube.Path(nil)
			bestW := int(^uint(0) >> 1)
			for _, p := range cube.ShortestPaths(a, b) {
				if w := worst(p); w < bestW {
					best, bestW = p, w
				}
			}
			e.Routes[s] = routeCode(best)
		}
		route = routeInto(route[:0], a, b, e.Routes[s])
		addPath(route)
	})
}

// Metrics bundles the quality measures for reporting; it is the served
// type api.Metrics.
type Metrics = api.Metrics

// Measure computes all metrics of the embedding in one fused edge pass
// (see metrics.go), parallelized over guest-node blocks for large meshes.
// The result is bit-identical for every worker count; MeasureParallel
// exposes the worker knob.
func (e *Embedding) Measure() Metrics {
	return e.MeasureParallel(0)
}
