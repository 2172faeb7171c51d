package ring

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/mesh"
)

// ringLayoutOK walks the ring layout and checks every consecutive (and the
// closing) step stays within the allowed per-step structure: row codes at
// Hamming distance ≤ maxRow and columns differing by ≤ 1, never both.
func ringLayoutOK(t *testing.T, lay Layout, l int, maxRow int) {
	t.Helper()
	if len(lay.Codes) != l || len(lay.Cols) != l {
		t.Fatalf("layout length %d/%d, want %d", len(lay.Codes), len(lay.Cols), l)
	}
	seen := make(map[[2]int]bool)
	for w := 0; w < l; w++ {
		key := [2]int{int(lay.Codes[w]), lay.Cols[w]}
		if seen[key] {
			t.Fatalf("l=%d: duplicate strip slot %v", l, key)
		}
		seen[key] = true
	}
	if l == 1 {
		return
	}
	for w := 0; w < l; w++ {
		v := (w + 1) % l
		rowDist := bits.Hamming(lay.Codes[w], lay.Codes[v])
		colDist := lay.Cols[w] - lay.Cols[v]
		if colDist < 0 {
			colDist = -colDist
		}
		if rowDist > maxRow {
			t.Errorf("l=%d: step %d→%d row distance %d > %d", l, w, v, rowDist, maxRow)
		}
		if colDist > 1 {
			t.Errorf("l=%d: step %d→%d column distance %d", l, w, v, colDist)
		}
		if rowDist > 1 && colDist > 0 {
			t.Errorf("l=%d: step %d→%d moves %d rows and %d columns", l, w, v, rowDist, colDist)
		}
	}
}

func TestHalfLayouts(t *testing.T) {
	for l := 1; l <= 64; l++ {
		lay := Half(l)
		m := (l + 1) / 2
		if lay.Bits != 1 {
			t.Fatalf("l=%d: Half bits %d, want 1", l, lay.Bits)
		}
		for w := 0; w < l; w++ {
			if lay.Cols[w] < 0 || lay.Cols[w] >= m {
				t.Fatalf("l=%d: column %d out of strip", l, lay.Cols[w])
			}
		}
		// Even rings: every step moves one row xor one column.  Odd rings:
		// the wrap step may move a row and a column together (the logical
		// edge through the removed slot), so only the slot/dup checks and
		// the host-level dilation tests in package wrap apply.
		if l%2 == 0 {
			ringLayoutOK(t, lay, l, 1)
		}
	}
}

func TestQuarterLayouts(t *testing.T) {
	for l := 1; l <= 101; l++ {
		lay := Quarter(l)
		m := (l + 3) / 4
		if lay.Bits != 2 {
			t.Fatalf("l=%d: Quarter bits %d, want 2", l, lay.Bits)
		}
		for w := 0; w < l; w++ {
			if lay.Cols[w] < 0 || lay.Cols[w] >= m {
				t.Fatalf("l=%d: column %d out of strip", l, lay.Cols[w])
			}
		}
		ringLayoutOK(t, lay, l, 2)
	}
}

func TestIdentityLayout(t *testing.T) {
	lay := Identity(5)
	if lay.Bits != 0 || len(lay.Codes) != 5 {
		t.Fatalf("Identity(5) = %+v", lay)
	}
	for w, c := range lay.Cols {
		if c != w || lay.Codes[w] != 0 {
			t.Fatalf("Identity(5) slot %d = (%d, %d)", w, lay.Codes[w], c)
		}
	}
}

// TestAssembleMixedLayouts drives the cylinder case: identity layouts on the
// prefix axes and a ring layout on the last, over a Gray base of the strip
// columns.  Mesh edges on all axes plus the last-axis wrap edge must stay
// within the lemma's dilation bound.
func TestAssembleMixedLayouts(t *testing.T) {
	shape := mesh.Shape{3, 10}
	base := embed.Gray(mesh.Shape{3, 5})
	lays := []Layout{Identity(3), Half(10)}
	e := Assemble(base, shape, lays)
	if e.N != base.N+1 {
		t.Fatalf("cube dim %d, want %d", e.N, base.N+1)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	// All mesh edges plus the wrap edge of axis 1 (even length → ≤ max(d,1)
	// with Gray base d = 1... the base 3x5 Gray has dilation 1).
	maxDil := 0
	check := func(u, v int) {
		if d := cube.Dist(e.Map[u], e.Map[v]); d > maxDil {
			maxDil = d
		}
	}
	shape.EachEdge(func(ed mesh.Edge) { check(ed.U, ed.V) })
	for x := 0; x < 3; x++ {
		check(shape.Index([]int{x, 9}), shape.Index([]int{x, 0}))
	}
	if maxDil > 1 {
		t.Errorf("mixed-layout dilation %d, want ≤ 1", maxDil)
	}
}
