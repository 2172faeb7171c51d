// Package repro embeds multidimensional meshes in Boolean cubes
// (hypercubes) by graph decomposition, reproducing
//
//	Ching-Tien Ho and S. Lennart Johnsson,
//	"Embedding Three-Dimensional Meshes in Boolean Cubes by Graph
//	Decomposition", ICPP 1990.
//
// The facade exposes the library's main entry points; the construction
// machinery lives in the internal packages (core, embed, wrap, manyone,
// stats — see DESIGN.md for the map).
//
// # Quick start
//
//	shape := repro.MustShape("5x6x7")
//	result := repro.Embed(shape)
//	fmt.Println(result.Plan)           // how the embedding is built
//	fmt.Println(result.Metrics)        // expansion, dilation, congestion
//	host := result.Embedding.Map[idx]  // cube address of a mesh node
//
// Every embedding targets the minimal cube (⌈log₂|V|⌉ dimensions).  Shapes
// whose decomposition matches one of the paper's methods get guaranteed
// dilation ≤ 2; the rest fall back to a valid snake embedding whose
// dilation is measured and reported.
package repro

import (
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/manyone"
	"repro/internal/mesh"
	"repro/internal/wrap"
)

// Shape is the vector of mesh axis lengths; see mesh.Shape.
type Shape = mesh.Shape

// Family identifies a guest topology family: how a shape's node set is
// turned into a graph.  See the Family* constants for the registered
// families.
type Family = guest.Family

// The registered guest families.
const (
	FamilyMesh     = guest.Mesh     // plain mesh (the paper's guest)
	FamilyTorus    = guest.Torus    // wraparound on every axis (Section 6)
	FamilyCylinder = guest.Cylinder // wraparound on the last axis only
	FamilyTree     = guest.Tree     // complete binary tree on 2^h−1 nodes
)

// ParseFamily resolves a family wire name ("mesh", "torus", "cylinder",
// "tree"); the empty string means FamilyMesh.
func ParseFamily(name string) (Family, error) {
	d, err := guest.ByName(name)
	if err != nil {
		return FamilyMesh, err
	}
	return d.Family, nil
}

// Embedding maps a guest mesh into a Boolean cube; see embed.Embedding.
type Embedding = embed.Embedding

// Metrics bundles the quality measures of an embedding.
type Metrics = embed.Metrics

// Plan is a construction tree produced by the planner.
type Plan = core.Plan

// Options tunes the planner; the zero value turns the residual solver off.
type Options = core.Options

// ParseShape parses "5x6x7"-style shape strings.
func ParseShape(s string) (Shape, error) { return mesh.ParseShape(s) }

// MustShape is ParseShape panicking on error, for literals in examples.
func MustShape(s string) Shape {
	out, err := mesh.ParseShape(s)
	if err != nil {
		panic(err)
	}
	return out
}

// Result is an embedding together with its plan and measured metrics.
type Result struct {
	Plan      *Plan
	Embedding *Embedding
	Metrics   Metrics
}

// CacheStats reports a Planner's plan-cache counters.
type CacheStats = core.CacheStats

// Planner plans shapes through a shared, concurrency-safe plan cache keyed
// by canonical (axis-sorted) shape: all permutations of a shape, and every
// sub-shape the strategies revisit, share one cache entry.  One Planner may
// be used from many goroutines; plans it returns are never aliased to cache
// state.
type Planner struct {
	p *core.Planner
}

// NewPlanner returns a caching planner with the given options.
func NewPlanner(opts Options) *Planner { return &Planner{p: core.NewPlanner(opts)} }

// NewUncachedPlanner returns a planner that plans identically to
// NewPlanner but keeps no plan cache (solver searches are still shared per
// process) — the reference for cache-equivalence tests and benchmarks.
func NewUncachedPlanner(opts Options) *Planner {
	return &Planner{p: core.NewUncachedPlanner(opts)}
}

// Plan returns a minimal-expansion plan for the shape without building it.
func (pl *Planner) Plan(shape Shape) *Plan { return pl.p.Plan(shape) }

// TryPlan is Plan returning shape-validation failures as errors instead of
// panicking, for untrusted input (servers, RPC boundaries).
func (pl *Planner) TryPlan(shape Shape) (*Plan, error) { return pl.p.TryPlan(shape) }

// PlanFamily plans the guest (family, shape) through the shared cache; it
// panics when the shape is not a valid member of the family (TryPlanFamily
// returns the error instead).  PlanFamily(FamilyMesh, s) == Plan(s).
func (pl *Planner) PlanFamily(f Family, shape Shape) *Plan { return pl.p.PlanGuest(f, shape) }

// TryPlanFamily is PlanFamily returning guest-validation failures as
// errors, for untrusted input.
func (pl *Planner) TryPlanFamily(f Family, shape Shape) (*Plan, error) {
	return pl.p.TryPlanGuest(f, shape)
}

// EmbedFamily plans, builds and measures a guest of the family in one call.
func (pl *Planner) EmbedFamily(f Family, shape Shape) Result {
	plan := pl.p.PlanGuest(f, shape)
	e := plan.Build()
	return Result{Plan: plan, Embedding: e, Metrics: e.Measure()}
}

// Embed plans, builds and measures in one call.
func (pl *Planner) Embed(shape Shape) Result {
	plan := pl.p.Plan(shape)
	e := plan.Build()
	return Result{Plan: plan, Embedding: e, Metrics: e.Measure()}
}

// CacheStats returns the planner's cache counters (all zero when built by
// NewUncachedPlanner).
func (pl *Planner) CacheStats() CacheStats { return pl.p.CacheStats() }

// defaultPlanner backs Embed: one process-wide cache under default options.
var defaultPlanner = NewPlanner(core.DefaultOptions)

// Embed builds a minimal-expansion embedding of the mesh into its minimal
// Boolean cube using the graph-decomposition planner (methods 1-4 of the
// paper plus solver/snake fallbacks) with default options.  All Embed
// calls share one cached Planner; use NewPlanner for an isolated cache or
// custom options.
func Embed(shape Shape) Result {
	return defaultPlanner.Embed(shape)
}

// EmbedWith is Embed with explicit planner options (no shared cache).
func EmbedWith(shape Shape, opts Options) Result {
	return NewPlanner(opts).Embed(shape)
}

// EmbedGray builds the classical Gray-code embedding (dilation one,
// congestion one, expansion Π⌈ℓᵢ⌉₂/Πℓᵢ — minimal only when
// shape.GrayMinimal() holds).  It is the baseline the paper improves on.
func EmbedGray(shape Shape) Result {
	e := embed.Gray(shape)
	return Result{Plan: nil, Embedding: e, Metrics: e.Measure()}
}

// EmbedTorus builds a minimal-expansion embedding of the wraparound mesh
// using the constructions of Section 6 (cyclic Gray codes, quartering,
// halving, snake fallback).  It is EmbedFamily(FamilyTorus, shape) without
// the plan tree, kept for compatibility.
func EmbedTorus(shape Shape) Result {
	e := wrap.Embed(shape, core.DefaultOptions)
	return Result{Plan: nil, Embedding: e, Metrics: e.Measure()}
}

// EmbedFamily builds a minimal-expansion embedding of the guest
// (family, shape) with default options, sharing the process-wide planner
// cache.  EmbedFamily(FamilyMesh, s) == Embed(s).
func EmbedFamily(f Family, shape Shape) Result {
	return defaultPlanner.EmbedFamily(f, shape)
}

// EmbedManyToOne embeds the mesh into an n-cube smaller than the mesh with
// dilation one and load factor within a factor of two of optimal, per
// Corollary 5.  ok is false when no axis cover satisfies the corollary's
// conditions.
func EmbedManyToOne(shape Shape, n int) (Result, bool) {
	e, _, ok := manyone.Corollary5(shape, n)
	if !ok {
		return Result{}, false
	}
	return Result{Plan: nil, Embedding: e, Metrics: e.Measure()}, true
}

// Contract collapses factors[i] consecutive indices along axis i of the
// base embedding's guest (Lemma 5): load multiplies by Πfactors, dilation
// is unchanged.
func Contract(base *Embedding, factors Shape) *Embedding {
	return manyone.Contract(base, factors)
}

// Product composes two mesh embeddings into an embedding of the
// componentwise-product mesh (Theorem 3 / Corollary 2): dilation and
// congestion are the maxima over the factors, expansion multiplies.
func Product(e1, e2 *Embedding) *Embedding { return core.Product(e1, e2) }

// SubMesh restricts an embedding to a componentwise-smaller guest.
func SubMesh(e *Embedding, target Shape) *Embedding { return core.SubMesh(e, target) }
