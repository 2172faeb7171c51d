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
)

// Embedding maps a guest graph into a Boolean N-cube.
//
// The guest is a (Family, Shape) pair from the guest-family registry: the
// Shape fixes the node set (dense indices, axis 0 fastest) and the Family
// fixes the edge interpretation (mesh, torus, cylinder, tree, …).  The
// zero Family is guest.Mesh, so plain mesh embeddings need no extra setup.
//
// Map[i] is the cube node hosting guest node i.  For one-to-one embeddings
// Map must be injective; many-to-one embeddings (Section 7 of the paper)
// relax this and are validated with VerifyManyToOne.
//
// Paths, if non-nil, realizes guest edge e as an explicit cube path.  When a
// guest edge has no entry, metrics fall back to e-cube (dimension-ordered)
// shortest-path routing, which never changes the dilation (any realization
// of an edge uses at least Dist hops; stored paths are validated to be
// shortest unless AllowLongPaths is set).
type Embedding struct {
	Guest  mesh.Shape
	Family guest.Family // edge interpretation of Guest (zero: mesh)
	N      int          // host cube dimension
	Map    []cube.Node

	// Paths optionally pins the host path of selected guest edges,
	// keyed by the canonical edge (U < V handled by EdgeKey).
	Paths map[EdgeKey]cube.Path

	// AllowLongPaths permits stored paths longer than the cube distance
	// of their endpoints (used by the hierarchical embeddings of the
	// summary section, where an edge is routed through removed nodes).
	AllowLongPaths bool
}

// EdgeKey canonically identifies a guest edge by its dense endpoint indices.
type EdgeKey struct{ U, V int }

// Key returns the canonical key with U < V.
func Key(u, v int) EdgeKey {
	if u > v {
		u, v = v, u
	}
	return EdgeKey{U: u, V: v}
}

// New allocates an embedding of the guest shape into an n-cube with an
// all-zero map (to be filled in by a constructor).  The family defaults to
// mesh; constructors of other families set Family themselves.
func New(s mesh.Shape, n int) *Embedding {
	return &Embedding{Guest: s.Clone(), N: n, Map: make([]cube.Node, s.Nodes())}
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

// EdgeDilation returns the dilation of one guest edge: the length of its
// pinned path if any, else the cube distance of the endpoint images.
func (e *Embedding) EdgeDilation(u, v int) int {
	if e.Paths != nil {
		if p, ok := e.Paths[Key(u, v)]; ok {
			return p.Len()
		}
	}
	return cube.Dist(e.Map[u], e.Map[v])
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
// axis (the d̄₂(i) of Section 4.1), or 0 if the axis has no edges.
func (e *Embedding) AxisAvgDilation(axis int) float64 {
	st := e.fusedPass(context.Background(), 0, false)
	if axis < 0 || axis >= len(st.axisSum) || st.axisCnt[axis] == 0 {
		return 0
	}
	return float64(st.axisSum[axis]) / float64(st.axisCnt[axis])
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

// AvgCongestion returns the mean congestion over all host links
// (Definition 3), counting idle links.  The total load equals the dilation
// sum (a path of length d crosses d links), so no load vector is needed.
func (e *Embedding) AvgCongestion() float64 {
	numLinks := cube.NumLinks(e.N)
	if numLinks == 0 {
		return 0
	}
	return float64(e.fusedPass(context.Background(), 0, false).dilSum) / float64(numLinks)
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

// OptimalLoadFactor returns ⌈|V(G)| / 2^N⌉, the best possible load factor.
func (e *Embedding) OptimalLoadFactor() int {
	hn := e.HostNodes()
	return (e.Guest.Nodes() + hn - 1) / hn
}

// Verify checks the structural invariants of a one-to-one embedding:
// the guest shape is valid, every image is inside the cube, the map is
// injective, and every pinned path is a valid cube walk joining the correct
// images with length ≥ the cube distance (== unless AllowLongPaths).
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
	var bad error
	if e.Paths != nil {
		e.eachGuestEdge(func(ed mesh.Edge) {
			if bad != nil {
				return
			}
			p, ok := e.Paths[Key(ed.U, ed.V)]
			if !ok {
				return
			}
			if err := p.Validate(e.N); err != nil {
				bad = fmt.Errorf("embed: edge (%d,%d): %v", ed.U, ed.V, err)
				return
			}
			if len(p) == 0 || p[0] != e.Map[ed.U] || p[len(p)-1] != e.Map[ed.V] {
				// also accept the reversed orientation
				if len(p) == 0 || p[0] != e.Map[ed.V] || p[len(p)-1] != e.Map[ed.U] {
					bad = fmt.Errorf("embed: edge (%d,%d): path endpoints do not match images", ed.U, ed.V)
					return
				}
			}
			d := cube.Dist(e.Map[ed.U], e.Map[ed.V])
			if p.Len() < d || (!e.AllowLongPaths && p.Len() != d) {
				bad = fmt.Errorf("embed: edge (%d,%d): path length %d vs distance %d", ed.U, ed.V, p.Len(), d)
			}
		})
		// Reject paths for non-existent edges: they would silently skew
		// congestion accounting.
		valid := make(map[EdgeKey]bool, e.NumGuestEdges())
		e.eachGuestEdge(func(ed mesh.Edge) { valid[Key(ed.U, ed.V)] = true })
		for k := range e.Paths {
			if !valid[k] {
				return fmt.Errorf("embed: pinned path for non-edge (%d,%d)", k.U, k.V)
			}
		}
	}
	return bad
}

// RealizeMinCongestion pins, for every guest edge whose images are at
// distance 2, the shortest path that currently has the lighter maximum link
// load (greedy, deterministic order).  Distance-0/1 edges need no choice and
// distance ≥ 3 edges keep e-cube routing.  This is how the congestion-2
// figures of the direct embeddings are attained.
func (e *Embedding) RealizeMinCongestion() {
	loads := make([]int, cube.NumLinks(e.N))
	if e.Paths == nil {
		e.Paths = make(map[EdgeKey]cube.Path)
	}
	// Links are accumulated by walking paths pairwise — no per-path link
	// slices — and e-cube routes land in one reused scratch buffer.
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
	e.eachGuestEdge(func(ed mesh.Edge) {
		key := Key(ed.U, ed.V)
		if p, pinned := e.Paths[key]; pinned {
			addPath(p)
			return
		}
		a, b := e.Map[ed.U], e.Map[ed.V]
		d := cube.Dist(a, b)
		if d <= 1 || d > 4 {
			route = cube.RouteInto(route[:0], a, b)
			addPath(route)
			return
		}
		best := cube.Path(nil)
		bestW := int(^uint(0) >> 1)
		for _, p := range cube.ShortestPaths(a, b) {
			if w := worst(p); w < bestW {
				best, bestW = p, w
			}
		}
		e.Paths[key] = best
		addPath(best)
	})
}

// Metrics bundles the quality measures for reporting.  Family names the
// guest family ("mesh", "torus", "cylinder", "tree"); Wrap is kept as the
// historical torus marker for wire compatibility.
type Metrics struct {
	Guest         string
	Family        string
	Wrap          bool
	CubeDim       int
	Expansion     float64
	Minimal       bool
	Dilation      int
	AvgDilation   float64
	Wirelength    int64
	Congestion    int
	AvgCongestion float64
	LoadFactor    int
}

// Measure computes all metrics of the embedding in one fused edge pass
// (see metrics.go), parallelized over guest-node blocks for large meshes.
// The result is bit-identical for every worker count; MeasureParallel
// exposes the worker knob.
func (e *Embedding) Measure() Metrics {
	return e.MeasureParallel(0)
}

// String renders the metrics compactly.  The torus keeps its historical
// " (wraparound)" marker; other non-mesh families show their name.
func (m Metrics) String() string {
	w := ""
	switch {
	case m.Wrap || m.Family == "torus":
		w = " (wraparound)"
	case m.Family != "" && m.Family != "mesh":
		w = " (" + m.Family + ")"
	}
	return fmt.Sprintf("%s%s -> %d-cube: exp=%.4f minimal=%v dil=%d avgdil=%.4f wl=%d cong=%d avgcong=%.4f load=%d",
		m.Guest, w, m.CubeDim, m.Expansion, m.Minimal, m.Dilation, m.AvgDilation, m.Wirelength, m.Congestion, m.AvgCongestion, m.LoadFactor)
}
