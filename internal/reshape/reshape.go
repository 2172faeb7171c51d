// Package reshape implements the classical grid-reshaping baselines of
// Section 3.2 — embedding an ℓ1×ℓ2 mesh into a power-of-two N1×N2 mesh and
// then applying a Gray code — against which the paper's graph-decomposition
// technique is compared.  Step embedding (row-major rewrap) and snake
// rewrap are position-arithmetic reshapes with measured dilation; folding
// is expressed through graph decomposition and achieves dilation one into
// the folded three-dimensional mesh.
package reshape

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/gray"
	"repro/internal/mesh"
)

// hostFor picks the canonical power-of-two host grid for a guest: the host
// row count is the largest power of two ≤ ℓ1 and the column count fills the
// minimal cube, N1·N2 = ⌈ℓ1ℓ2⌉₂.
func hostFor(guest mesh.Shape) mesh.Shape {
	if guest.Dims() != 2 {
		panic("reshape: two-dimensional guests only")
	}
	n := guest.MinCubeDim()
	r := 0
	for (1 << uint(r+1)) <= guest[0] {
		r++
	}
	if r > n {
		r = n
	}
	return mesh.Shape{1 << uint(r), 1 << uint(n-r)}
}

// RowMajor embeds the guest into its minimal cube by the step-embedding
// rewrap: guest position p = r·ℓ2 + c (row major) lands at host grid cell
// (p / N2, p mod N2), and the host grid is Gray-coded per axis.  Guest rows
// "step" through the host grid; the dilation depends on ℓ2 mod N2 and is
// measured, not bounded.
func RowMajor(guest mesh.Shape) *embed.Embedding {
	host := hostFor(guest)
	g := gray.NewProduct(host...)
	e := embed.New(guest, guest.MinCubeDim())
	n2 := host[1]
	for idx := range e.Map {
		// guest index: axis 0 fastest (column index c is axis 0 here,
		// matching mesh.Shape order: coord[0] ∈ [0,ℓ1) rows? —
		// mesh.Shape{ℓ1, ℓ2} has axis 0 of length ℓ1. Use row-major over
		// (axis1, axis0): p = coord1*ℓ0 + coord0.
		c0 := idx % guest[0]
		c1 := idx / guest[0]
		p := c1*guest[0] + c0
		e.Map[idx] = cube.Node(g.Code([]int{p / n2 % host[0], p % n2}))
	}
	// p/n2 can exceed host[0]−1 only if host too small; guard above keeps
	// N1·N2 = ⌈|V|⌉₂ ≥ |V|, so p < N1·N2 and p/n2 < N1.
	return e
}

// Snake embeds the guest into its minimal cube by rewrapping the guest's
// boustrophedon order onto the host grid's boustrophedon order, Gray-coded.
// Snake-consecutive guest nodes stay adjacent (dilation one along the
// snake); cross-snake mesh edges are measured.
func Snake(guest mesh.Shape) *embed.Embedding {
	host := hostFor(guest)
	g := gray.NewProduct(host...)
	e := embed.New(guest, guest.MinCubeDim())
	guestOrder := guest.SnakeOrder()
	hostOrder := host.SnakeOrder()
	coord := make([]int, 2)
	for pos, gi := range guestOrder {
		host.CoordInto(hostOrder[pos], coord)
		e.Map[gi] = cube.Node(g.Code(coord))
	}
	return e
}

// Fold embeds the guest by folding axis 1 into c strips: the guest is a
// subgraph of the three-dimensional mesh ℓ1 × c × ⌈ℓ2/c⌉ (consecutive
// strips reflected), which is then embedded by the decomposition planner.
// The fold itself costs no dilation — strip-boundary neighbors coincide
// across the reflection — so the result's dilation is that of the
// three-dimensional plan.
func Fold(guest mesh.Shape, c int) *embed.Embedding {
	if guest.Dims() != 2 {
		panic("reshape: two-dimensional guests only")
	}
	if c < 1 || c > guest[1] {
		panic(fmt.Sprintf("reshape: fold factor %d out of range", c))
	}
	w := (guest[1] + c - 1) / c
	folded := mesh.Shape{guest[0], c, w}
	plan := core.PlanShape(folded, core.Options{})
	fe := plan.Build()
	e := embed.New(guest, fe.N)
	coord := make([]int, 3)
	for idx := range e.Map {
		c0 := idx % guest[0]
		y := idx / guest[0]
		q := y / w
		j := y % w
		if q&1 == 1 { // reflect odd strips so strip seams coincide
			j = w - 1 - j
		}
		coord[0], coord[1], coord[2] = c0, q, j
		e.Map[idx] = fe.Map[folded.Index(coord)]
	}
	return e
}

// BestFold tries all fold factors that keep the folded mesh within the
// guest's minimal cube and returns the embedding with the smallest measured
// dilation (ties broken toward smaller average dilation).
func BestFold(guest mesh.Shape) *embed.Embedding {
	var best *embed.Embedding
	bestD, bestAvg := int(^uint(0)>>1), 0.0
	n := guest.MinCubeDim()
	for c := 1; c <= guest[1]; c++ {
		w := (guest[1] + c - 1) / c
		folded := mesh.Shape{guest[0], c, w}
		if folded.MinCubeDim() != n {
			continue // folding wasted space beyond the minimal cube
		}
		e := Fold(guest, c)
		if e.N != n {
			continue
		}
		d, avg := e.Dilation(), e.AvgDilation()
		if d < bestD || (d == bestD && avg < bestAvg) {
			best, bestD, bestAvg = e, d, avg
		}
	}
	return best
}

// Comparison is one row of the reshaping-vs-decomposition ablation.
type Comparison struct {
	Guest       string
	Technique   string
	CubeDim     int
	Minimal     bool
	Dilation    int
	AvgDilation float64
	Wirelength  int64
	Congestion  int
}

// Compare builds the guest with every technique and returns the rows:
// row-major step rewrap, snake rewrap, best fold, and the decomposition
// planner.
func Compare(guest mesh.Shape) []Comparison {
	row := func(name string, e *embed.Embedding) Comparison {
		m := e.Measure()
		return Comparison{
			Guest:       guest.String(),
			Technique:   name,
			CubeDim:     m.CubeDim,
			Minimal:     e.Minimal(),
			Dilation:    m.Dilation,
			AvgDilation: m.AvgDilation,
			Wirelength:  m.Wirelength,
			Congestion:  m.Congestion,
		}
	}
	out := []Comparison{
		row("rowmajor", RowMajor(guest)),
		row("snake", Snake(guest)),
	}
	if f := BestFold(guest); f != nil {
		out = append(out, row("fold", f))
	}
	out = append(out, row("decomposition", core.PlanShape(guest, core.DefaultOptions).Build()))
	return out
}
