package core

import (
	"fmt"
	"strings"

	"repro/internal/cube"
	"repro/internal/direct"
	"repro/internal/embed"
	"repro/internal/gray"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/pkg/api"
)

// Kind enumerates the constructions a Plan node can take.  Its wire names
// (plan strings, artifact records) are kindNames, keyed by constant.
type Kind int

const (
	KindGray    Kind = iota // binary-reflected Gray code embedding
	KindDirect              // frozen direct table (package direct)
	KindProduct             // graph decomposition (Corollary 2)
	KindSubMesh             // restriction of a larger plan's mesh
	KindSolver              // embedding found by internal/solver at plan time
	KindSnake               // snake-order Gray fallback (valid, dilation measured)
	KindFold                // axis folded into two axes (ℓ = a·b), child planned
	KindRing                // Section 6 strip construction of the wrapped axes
	KindTree                // inorder labeling of the complete binary tree
)

var kindNames = [...]string{
	KindGray: "gray", KindDirect: "direct", KindProduct: "product",
	KindSubMesh: "submesh", KindSolver: "solver", KindSnake: "snake",
	KindFold: "fold", KindRing: "ring", KindTree: "tree",
}

// String returns the wire name of k ("unknown" out of range).
func (k Kind) String() string {
	if !k.IsValid() {
		return "unknown"
	}
	return kindNames[k]
}

// IsValid reports whether k is one of the declared constants.
func (k Kind) IsValid() bool { return k >= 0 && int(k) < len(kindNames) }

// ParseKind returns the Kind whose wire name is s.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown Kind %q (want one of %v)", s, kindNames[:])
}

// DilationUnknown marks constructions with no a-priori dilation bound.
const DilationUnknown = 1 << 20

// CongestionUnknown marks constructions with no a-priori congestion bound.
const CongestionUnknown = 1 << 20

// Plan is a construction tree for an embedding.  Build realizes it.
type Plan struct {
	Kind    Kind
	Family  guest.Family // guest family of this node (zero: mesh)
	Shape   mesh.Shape   // guest shape this node embeds
	CubeDim int          // host cube dimension

	// Dilation is the bound guaranteed by the construction rules
	// (Theorem 3 for products); DilationUnknown when no bound is known
	// before building (snake fallback).
	Dilation int

	// Method records which Section 5 method produced a top-level 3D plan
	// (1..4), 5 for the beyond-paper constructive fallbacks, 0 elsewhere.
	Method int

	Factors []*Plan    // Product: the decomposition factors
	Super   mesh.Shape // SubMesh: the enclosing shape actually embedded
	Child   *Plan      // SubMesh/Fold: plan for the transformed shape

	// Fold parameters: guest axis FoldAxis of length a·b becomes two
	// folded-mesh axes of lengths FoldA (at FoldAxis) and FoldB
	// (appended), consecutive strips reflected so the fold costs no
	// dilation.
	FoldAxis, FoldA, FoldB int

	// RingDiv is the strip divisor of a KindRing node (2: halving, Lemma 3;
	// 4: quartering, Lemma 4), applied to every axis for a torus and to the
	// last axis only for a cylinder.  Child plans the strip-column mesh.
	RingDiv int

	solved *embed.Embedding // Solver: the embedding found during planning
}

// Minimal reports whether the plan uses the minimal cube for its shape.
func (p *Plan) Minimal() bool { return p.CubeDim == p.Shape.MinCubeDim() }

// DilationBound returns the served form of Dilation: the a-priori bound,
// or −1 when the construction has none (DilationUnknown).
func (p *Plan) DilationBound() int {
	if p.Dilation == DilationUnknown {
		return -1
	}
	return p.Dilation
}

// Entry returns the plan's record: the served, position-independent form
// an artifact stores per shape and a plancensus chunk carries.
func (p *Plan) Entry() api.PlanEntry {
	return api.PlanEntry{
		Kind: p.Kind.String(), Method: p.Method, Dilation: p.DilationBound(),
		CubeDim: p.CubeDim, Minimal: p.Minimal(), Plan: p.String(),
	}
}

// Depth returns the height of the plan tree; leaves have depth one.
func (p *Plan) Depth() int {
	d := 0
	for _, f := range p.Factors {
		d = max(d, f.Depth())
	}
	if p.Child != nil {
		d = max(d, p.Child.Depth())
	}
	return d + 1
}

// CongestionBound returns the congestion guaranteed by the construction
// rules (Theorem 3 propagates the maximum across product factors), or
// CongestionUnknown for the snake fallback.  Non-mesh families route extra
// (wraparound or tree) edges over the same links, so their congestion is
// always measured rather than bounded.
func (p *Plan) CongestionBound() int {
	if p.Family != guest.Mesh {
		return CongestionUnknown
	}
	switch p.Kind {
	case KindGray:
		return 1
	case KindDirect:
		if tab, _, ok := direct.Lookup(p.Shape); ok {
			return tab.Congestion
		}
		return CongestionUnknown
	case KindProduct:
		c := 1
		for _, f := range p.Factors {
			c = max(c, f.CongestionBound())
		}
		return c
	case KindSubMesh, KindFold:
		return p.Child.CongestionBound()
	case KindSolver:
		if p.solved != nil {
			return p.solved.Congestion()
		}
	}
	return CongestionUnknown
}

// String renders the plan tree on one line.
func (p *Plan) String() string {
	var b strings.Builder
	p.render(&b)
	return b.String()
}

func (p *Plan) render(b *strings.Builder) {
	switch p.Kind {
	case KindProduct:
		b.WriteString("(")
		for i, f := range p.Factors {
			if i > 0 {
				b.WriteString(" ⊗ ")
			}
			f.render(b)
		}
		b.WriteString(")")
	case KindSubMesh:
		fmt.Fprintf(b, "%s⊆", p.Shape)
		p.Child.render(b)
	case KindFold:
		fmt.Fprintf(b, "%s↷", p.Shape)
		p.Child.render(b)
	default:
		fmt.Fprintf(b, "%s[%s]", p.Shape, p.Kind)
	}
}

// Build constructs the embedding described by the plan and verifies the
// construction-level invariants (cube dimension, guest shape).
func (p *Plan) Build() *embed.Embedding {
	var e *embed.Embedding
	switch p.Kind {
	case KindGray:
		e = embed.Gray(p.Shape)
	case KindDirect:
		var ok bool
		e, ok = direct.Embedding(p.Shape)
		if !ok {
			panic(fmt.Sprintf("core: no direct table for %v", p.Shape))
		}
	case KindProduct:
		e = p.Factors[0].Build()
		for _, f := range p.Factors[1:] {
			e = Product(e, f.Build())
		}
	case KindSubMesh:
		e = SubMesh(p.Child.Build(), p.Shape)
	case KindSolver:
		if p.solved == nil {
			panic("core: solver plan without solution")
		}
		e = p.solved
	case KindSnake:
		e = Snake(p.Shape)
	case KindFold:
		e = unfold(p.Child.Build(), p.Shape, p.FoldAxis, p.FoldA, p.FoldB)
	case KindRing:
		base := p.Child.Build()
		k := p.Shape.Dims()
		wrap := guest.Get(p.Family).Wrap()
		lays := make([]ring.Layout, k)
		for i := range lays {
			if wrap.Wraps(i, k) {
				lays[i] = ring.ForDiv(p.RingDiv, p.Shape[i])
			} else {
				lays[i] = ring.Identity(p.Shape[i])
			}
		}
		e = ring.Assemble(base, p.Shape, lays)
	case KindTree:
		e = embed.TreeInorder(p.Shape)
	default:
		panic("core: unknown plan kind")
	}
	if e.Family != p.Family {
		e.Family = p.Family
	}
	if !e.Guest.Equal(p.Shape) {
		panic(fmt.Sprintf("core: plan for %v built %v", p.Shape, e.Guest))
	}
	if e.N != p.CubeDim {
		panic(fmt.Sprintf("core: plan for %v promised %d-cube, built %d-cube", p.Shape, p.CubeDim, e.N))
	}
	return e
}

// Snake returns the minimal-expansion fallback embedding: guest nodes in
// boustrophedon order are assigned consecutive Gray codewords of the minimal
// cube.  Always valid and minimal; edges along the snake have dilation one
// but cross-snake edges can be long, so the dilation must be measured.
func Snake(s mesh.Shape) *embed.Embedding {
	n := s.MinCubeDim()
	e := embed.New(s, n)
	for pos, g := range s.SnakeOrder() {
		e.Map[g] = cube.Node(gray.Encode(uint64(pos)))
	}
	return e
}

// snakePlan wraps a shape in the always-valid snake fallback node.
func snakePlan(s mesh.Shape) *Plan {
	return &Plan{Kind: KindSnake, Shape: s.Clone(), CubeDim: s.MinCubeDim(),
		Dilation: DilationUnknown}
}

// Options tunes the planner.
type Options struct {
	// SolverBudget enables a solver search for factoring residuals with
	// at most this many nodes (0 disables).  The search is deterministic
	// (fixed seed) but costs time.
	SolverBudget int
}

// DefaultOptions enables a small solver budget: factoring residuals up to
// 36 nodes are searched directly.
var DefaultOptions = Options{SolverBudget: 36}

// PlanShape returns a minimal-expansion plan for the shape, choosing the
// lowest guaranteed dilation among the applicable constructions: Gray
// (method 1), 2D embedding + Gray pairs (method 2), direct 3D blocks
// (method 3), axis-extension decomposition (method 4), and the solver/snake
// fallbacks (method 5, beyond the paper).  The returned plan always embeds
// into the minimal cube.
//
// PlanShape plans the shape in its given axis order with no plan cache
// (its solver searches still share the per-process solver table); sweeps
// that re-plan many (sub-)shapes should use a Planner, which adds a
// canonical-shape cache on top of the same strategy pipelines.
func PlanShape(s mesh.Shape, opts Options) *Plan {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return newPlanContext(opts, nil, false).planTop(s)
}

// planTop runs the full pipeline for a top-level request: structured
// strategies, snake fallback, and method classification.
func (pc *planContext) planTop(s mesh.Shape) *Plan {
	best := pc.planMinimalDepth(s, 0)
	if best == nil {
		best = snakePlan(s)
		best.Method = 5
	}
	if best.Method == 0 {
		best.Method = classifyMethod(s, best)
	}
	return best
}

// classifyMethod labels a plan with the paper's method index for reporting:
// for three-active-axis shapes the counting predicates of §5 decide; other
// arities use 1 for Gray plans and 5 (beyond-paper constructive) otherwise.
func classifyMethod(s mesh.Shape, p *Plan) int {
	if p.Kind == KindGray {
		return 1
	}
	var active []int
	for _, l := range s {
		if l > 1 {
			active = append(active, l)
		}
	}
	if len(active) == 3 && p.Dilation <= 2 {
		if m := stats.BestMethod(active[0], active[1], active[2]); m != 0 {
			return m
		}
	}
	return 5
}
