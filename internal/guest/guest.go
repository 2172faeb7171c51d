// Package guest is the guest-topology family registry: the seam that lets
// the planner, the fused metrics engine, the HTTP service and the batch
// jobs treat "which graph is being embedded" as data instead of hardwired
// mesh/torus branches.
//
// A guest graph is identified by a (Family, mesh.Shape) pair.  The Shape
// fixes the node set — dense indices 0..Nodes()−1 in the usual axis-0-fastest
// order — and the Family fixes the edge interpretation:
//
//	mesh      k-D grid, no wraparound
//	torus     k-D grid, every axis wraps
//	cylinder  k-D grid, only the last axis wraps (path×…×path×cycle)
//	tree      single-axis shape [2^h − 1], the heap-ordered complete
//	          binary tree
//
// The first three are grids, products of paths and cycles that differ
// only in which axes wrap.  That choice is made here and nowhere else: it
// is the mesh.WrapSet each grid Desc carries.
//
// Each family's Desc bundles exactly what the layers above need: edge
// count, the partitionable EachEdgeRange enumeration the parallel metrics
// engine shards over, the canonical form under which plans and results are
// cached, and family-specific shape validation.
//
// To add a grid family, add a Family constant, run `go generate
// ./internal/guest` and register grid(family, wrap, canonical) in init;
// DESIGN.md §4h covers other families.  The conformance suite in
// guest_test.go picks every registered family up automatically.
package guest

import (
	"fmt"

	"repro/internal/mesh"
)

//go:generate go run repro/cmd/enumgen -type Family

// Family identifies a registered guest topology family.  The zero value is
// Mesh, so existing mesh-embedding values remain valid by default.
type Family int32

const (
	Mesh Family = iota
	Torus
	Cylinder
	Tree
)

// Desc describes one family to the layers above.  All function fields are
// pure and safe for concurrent use; the enumeration field is called on the
// metrics hot path (once per node block), so implementations must not
// allocate beyond their own scratch space.
type Desc struct {
	Family Family

	// Validate checks family-specific shape constraints beyond
	// mesh.Shape.Validate (e.g. the tree's 2^h − 1 node count).
	Validate func(s mesh.Shape) error

	// Edges returns the family's edge count for the shape.
	Edges func(s mesh.Shape) int

	// EachEdgeRange enumerates the edges generated by node indices
	// [lo, hi).  A partition of [0, Nodes()) must partition the edge set —
	// the contract the parallel metrics engine shards over.
	EachEdgeRange func(s mesh.Shape, lo, hi int, fn func(mesh.Edge))

	// Canonical returns the cache-canonical shape and the axis map
	// (axmap[j] = position in s of canonical axis j).  Metrics are
	// invariant under the relabelings Canonical identifies, which is what
	// makes canonical-key result caching sound.
	Canonical func(s mesh.Shape) (mesh.Shape, []int)

	// Grid marks the families whose edges are those of the shape's grid
	// with the axes in Wrap closed into cycles; hot loops enumerate them
	// with a direct mesh.Shape.EachEdgeRange(Wrap, …) call.
	Grid bool
	Wrap mesh.WrapSet
}

// Wraps reports whether the family has wraparound edges.
func (d Desc) Wraps() bool { return d.Grid && d.Wrap != mesh.NoWrap }

// registry is indexed by Family.  It is populated in init and read-only
// afterwards, so lookups need no locking.
var registry []Desc

// Register adds a family descriptor.  Families must be registered in
// Family order (the registry is a dense array); re-registration panics.
func Register(d Desc) {
	if int(d.Family) != len(registry) {
		panic(fmt.Sprintf("guest: family %d registered out of order (have %d)", d.Family, len(registry)))
	}
	if d.Validate == nil || d.Edges == nil || d.EachEdgeRange == nil || d.Canonical == nil {
		panic(fmt.Sprintf("guest: family %v registered with nil hooks", d.Family))
	}
	registry = append(registry, d)
}

// Get returns the descriptor of a registered family.
func Get(f Family) Desc {
	if int(f) < 0 || int(f) >= len(registry) {
		panic(fmt.Sprintf("guest: unregistered family %d", f))
	}
	return registry[int(f)]
}

// All lists every registered family descriptor in Family order.
func All() []Desc {
	out := make([]Desc, len(registry))
	copy(out, registry)
	return out
}

// ByName resolves a family wire name ("mesh", "torus", "cylinder",
// "tree"); the empty string resolves to Mesh for backward compatibility
// with pre-family requests.
func ByName(name string) (Desc, error) {
	if name == "" {
		return Get(Mesh), nil
	}
	f, err := ParseFamily(name)
	if err != nil {
		return Desc{}, err
	}
	return Get(f), nil
}

// Validate checks s as a guest shape of family f: the generic axis checks
// plus the family's own constraints.
func Validate(f Family, s mesh.Shape) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return Get(f).Validate(s)
}

func validateAny(mesh.Shape) error { return nil }

func validateTree(s mesh.Shape) error {
	if len(s) != 1 {
		return fmt.Errorf("guest: tree shapes have exactly one axis, got %s", s)
	}
	if !s.TreeNodes() {
		return fmt.Errorf("guest: tree shape %s is not 2^h-1 nodes", s)
	}
	return nil
}

func sortAll(s mesh.Shape) (mesh.Shape, []int) { return s.SortCanonical() }

func sortPrefix(s mesh.Shape) (mesh.Shape, []int) {
	return s.SortCanonicalPrefix(len(s) - 1)
}

func identityCanonical(s mesh.Shape) (mesh.Shape, []int) {
	axmap := make([]int, len(s))
	for i := range axmap {
		axmap[i] = i
	}
	return s.Clone(), axmap
}

// grid describes the family whose edges are the grid edges of a shape with
// the axes in wrap closed into cycles.
func grid(f Family, wrap mesh.WrapSet, canonical func(mesh.Shape) (mesh.Shape, []int)) Desc {
	return Desc{
		Family:   f,
		Validate: validateAny,
		Edges:    func(s mesh.Shape) int { return s.Edges(wrap) },
		EachEdgeRange: func(s mesh.Shape, lo, hi int, fn func(mesh.Edge)) {
			s.EachEdgeRange(wrap, lo, hi, fn)
		},
		Canonical: canonical,
		Grid:      true,
		Wrap:      wrap,
	}
}

func init() {
	Register(grid(Mesh, mesh.NoWrap, sortAll))
	Register(grid(Torus, mesh.WrapAll, sortAll))
	Register(grid(Cylinder, 1, sortPrefix)) // path×…×path×cycle
	Register(Desc{
		Family:        Tree,
		Validate:      validateTree,
		Edges:         mesh.Shape.TreeEdges,
		EachEdgeRange: mesh.Shape.EachTreeEdgeRange,
		Canonical:     identityCanonical,
	})
}
