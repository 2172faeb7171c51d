package mesh

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParseShape(t *testing.T) {
	s, err := ParseShape("5x6x7")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(Shape{5, 6, 7}) {
		t.Errorf("got %v", s)
	}
	if s.String() != "5x6x7" {
		t.Errorf("String = %q", s.String())
	}
	if _, err := ParseShape("5x0x7"); err == nil {
		t.Error("expected error for zero axis")
	}
	if _, err := ParseShape("5xax7"); err == nil {
		t.Error("expected error for non-numeric axis")
	}
	if s2, err := ParseShape(" 512 "); err != nil || !s2.Equal(Shape{512}) {
		t.Errorf("single axis parse: %v, %v", s2, err)
	}
}

func TestNodesEdges(t *testing.T) {
	cases := []struct {
		s     Shape
		nodes int
		edges int
	}{
		{Shape{1}, 1, 0},
		{Shape{5}, 5, 4},
		{Shape{3, 5}, 15, 2*5 + 4*3},
		{Shape{2, 2, 2}, 8, 12},
		{Shape{3, 3, 3}, 27, 3 * (2 * 9)},
		{Shape{5, 6, 7}, 210, 4*42 + 5*35 + 6*30},
	}
	for _, c := range cases {
		if got := c.s.Nodes(); got != c.nodes {
			t.Errorf("%v.Nodes() = %d, want %d", c.s, got, c.nodes)
		}
		if got := c.s.Edges(NoWrap); got != c.edges {
			t.Errorf("%v.Edges() = %d, want %d", c.s, got, c.edges)
		}
	}
}

// TestNodesWithin checks the overflow-checked node count against Nodes on
// small shapes, and that the bound, invalid axes and products past an int
// are refused rather than wrapped.
func TestNodesWithin(t *testing.T) {
	for _, c := range []struct {
		s     Shape
		max   int
		nodes int
		ok    bool
	}{
		{Shape{5, 6, 7}, 210, 210, true},
		{Shape{5, 6, 7}, 209, 0, false},
		{Shape{1}, 1, 1, true},
		{Shape{3, 0}, 100, 0, false},
		{Shape{65536, 65536, 65536}, math.MaxInt, 1 << 48, true},
		{Shape{1 << 32, 1 << 32}, math.MaxInt, 0, false}, // Nodes wraps to 0
	} {
		if n, ok := c.s.NodesWithin(c.max); n != c.nodes || ok != c.ok {
			t.Errorf("%v.NodesWithin(%d) = %d, %v; want %d, %v", c.s, c.max, n, ok, c.nodes, c.ok)
		}
	}
}

func TestEdgesMatchIteration(t *testing.T) {
	shapes := []Shape{{1}, {7}, {3, 5}, {4, 4}, {2, 3, 4}, {3, 3, 3}, {1, 5, 1}}
	for _, s := range shapes {
		count := 0
		s.EachEdge(func(e Edge) {
			count++
			if e.U >= e.V {
				t.Errorf("%v: edge not ordered: %+v", s, e)
			}
			// endpoints must differ by 1 along exactly the named axis
			cu, cv := s.Coord(e.U), s.Coord(e.V)
			diffAxes := 0
			for i := range cu {
				if cu[i] != cv[i] {
					diffAxes++
					if i != e.Axis || cv[i]-cu[i] != 1 {
						t.Errorf("%v: bad edge %+v (%v -> %v)", s, e, cu, cv)
					}
				}
			}
			if diffAxes != 1 {
				t.Errorf("%v: edge %+v spans %d axes", s, e, diffAxes)
			}
		})
		if count != s.Edges(NoWrap) {
			t.Errorf("%v: iterated %d edges, Edges() = %d", s, count, s.Edges(NoWrap))
		}
	}
}

func TestTorusEdges(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{1}, 0},
		{Shape{2}, 1},
		{Shape{3}, 3},
		{Shape{5}, 5},
		{Shape{2, 2}, 4},       // the 2x2 torus is the 4-cycle
		{Shape{3, 3}, 18},      // each node has degree 4
		{Shape{4, 5}, 40},      // 4*5 + 5*4 ring edges
		{Shape{1, 6}, 6},       // a single ring
		{Shape{2, 3}, 2*3 + 3}, // axis0 len2: 3 edges; axis1 len3: 2 rings of 3
	}
	for _, c := range cases {
		if got := c.s.Edges(WrapAll); got != c.want {
			t.Errorf("%v.Edges(WrapAll) = %d, want %d", c.s, got, c.want)
		}
		count := 0
		c.s.EachEdgeRange(WrapAll, 0, c.s.Nodes(), func(Edge) { count++ })
		if count != c.want {
			t.Errorf("%v: iterated %d torus edges, want %d", c.s, count, c.want)
		}
	}
}

func TestTorusEdgeValidity(t *testing.T) {
	shapes := []Shape{{3}, {4}, {3, 4}, {2, 5}, {3, 3, 3}, {2, 2, 2}}
	for _, s := range shapes {
		seen := make(map[[2]int]bool)
		s.EachEdgeRange(WrapAll, 0, s.Nodes(), func(e Edge) {
			if e.U >= e.V {
				t.Errorf("%v: unordered torus edge %+v", s, e)
			}
			key := [2]int{e.U, e.V}
			if seen[key] {
				t.Errorf("%v: duplicate torus edge %+v", s, e)
			}
			seen[key] = true
			cu, cv := s.Coord(e.U), s.Coord(e.V)
			for i := range cu {
				d := cv[i] - cu[i]
				if i == e.Axis {
					if !(d == 1 || (e.Wrap && d == s[i]-1)) {
						t.Errorf("%v: bad torus edge %+v", s, e)
					}
				} else if d != 0 {
					t.Errorf("%v: torus edge %+v moves on axis %d", s, e, i)
				}
			}
		})
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s := Shape{int(a%7) + 1, int(b%7) + 1, int(c%7) + 1}
		for idx := 0; idx < s.Nodes(); idx++ {
			if s.Index(s.Coord(idx)) != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMinCubeDim(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{3, 5}, 4},    // 15 -> 16
		{Shape{3, 3, 3}, 5}, // 27 -> 32
		{Shape{7, 9}, 6},    // 63 -> 64
		{Shape{11, 11}, 7},  // 121 -> 128
		{Shape{512, 512, 512}, 27},
		{Shape{5, 6, 7}, 8}, // 210 -> 256
	}
	for _, c := range cases {
		if got := c.s.MinCubeDim(); got != c.want {
			t.Errorf("%v.MinCubeDim() = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestGrayMinimal(t *testing.T) {
	// 5x10x11: ⌈5⌉₂⌈10⌉₂⌈11⌉₂ = 8*16*16 = 2048 vs ⌈550⌉₂ = 1024 — not minimal.
	if (Shape{5, 10, 11}).GrayMinimal() {
		t.Error("5x10x11 should not be Gray-minimal")
	}
	// 4x8x16 trivially minimal.
	if !(Shape{4, 8, 16}).GrayMinimal() {
		t.Error("4x8x16 should be Gray-minimal")
	}
	// 3x4: ⌈3⌉₂⌈4⌉₂ = 16 vs ⌈12⌉₂ = 16 — minimal despite axis 3.
	if !(Shape{3, 4}).GrayMinimal() {
		t.Error("3x4 should be Gray-minimal")
	}
}

func TestProduct(t *testing.T) {
	got := Shape{3, 5, 1}.Product(Shape{1, 5, 3})
	if !got.Equal(Shape{3, 25, 3}) {
		t.Errorf("Product = %v", got)
	}
	got = Shape{3, 5}.Product(Shape{4, 4, 2})
	if !got.Equal(Shape{12, 20, 2}) {
		t.Errorf("Product with padding = %v", got)
	}
}

func TestNeighbors(t *testing.T) {
	s := Shape{3, 3}
	center := s.Index([]int{1, 1})
	nb := s.Neighbors(center, nil)
	if len(nb) != 4 {
		t.Fatalf("center degree %d, want 4", len(nb))
	}
	corner := s.Index([]int{0, 0})
	nb = s.Neighbors(corner, nil)
	if len(nb) != 2 {
		t.Fatalf("corner degree %d, want 2", len(nb))
	}
}

func TestNeighborsMatchEdges(t *testing.T) {
	s := Shape{3, 4, 2}
	deg := make([]int, s.Nodes())
	s.EachEdge(func(e Edge) { deg[e.U]++; deg[e.V]++ })
	for idx := 0; idx < s.Nodes(); idx++ {
		if got := len(s.Neighbors(idx, nil)); got != deg[idx] {
			t.Errorf("node %d: Neighbors %d, edge degree %d", idx, got, deg[idx])
		}
	}
}

// TestSnakeOrderIsMeshPath: for every shape of one to four axes, each of
// length at most 5 (780 shapes), the snake order visits every node once
// and each step moves to a mesh neighbor.  Shapes with an even axis
// strictly between the first and the last (3x4x5) are the ones a parity of
// the digit sum, instead of the ordinal, gets wrong.
func TestSnakeOrderIsMeshPath(t *testing.T) {
	shapes := 0
	var each func(s Shape)
	each = func(s Shape) {
		if len(s) > 0 {
			shapes++
			checkSnake(t, s)
		}
		if len(s) < 4 {
			for l := 1; l <= 5; l++ {
				each(append(s[:len(s):len(s)], l))
			}
		}
	}
	each(nil)
	if shapes != 780 {
		t.Fatalf("checked %d shapes, want 780", shapes)
	}
}

func checkSnake(t *testing.T, s Shape) {
	t.Helper()
	order := s.SnakeOrder()
	if len(order) != s.Nodes() {
		t.Fatalf("%v: snake has %d entries, want %d", s, len(order), s.Nodes())
	}
	seen := make([]bool, s.Nodes())
	var nb []int
	for i, v := range order {
		if v < 0 || v >= len(seen) || seen[v] {
			t.Fatalf("%v: entry %d is node %d, out of range or repeated", s, i, v)
		}
		seen[v] = true
		if i > 0 && !slices.Contains(s.Neighbors(order[i-1], nb[:0]), v) {
			t.Fatalf("%v: step %d jumps from %v to %v", s, i, s.Coord(order[i-1]), s.Coord(v))
		}
	}
}

func TestSortedAndContains(t *testing.T) {
	if !(Shape{5, 6, 7}).Contains(Shape{5, 6}) {
		t.Error("5x6x7 should contain 5x6")
	}
	if (Shape{5, 6}).Contains(Shape{5, 6, 7}) {
		t.Error("5x6 should not contain 5x6x7")
	}
	if !(Shape{5, 6}).Contains(Shape{5, 6, 1, 1}) {
		t.Error("trailing 1s should be ignored")
	}
}

func TestValidate(t *testing.T) {
	if err := (Shape{}).Validate(); err == nil {
		t.Error("empty shape should be invalid")
	}
	if err := (Shape{3, 0}).Validate(); err == nil {
		t.Error("zero axis should be invalid")
	}
	if err := (Shape{3, 4}).Validate(); err != nil {
		t.Errorf("3x4 should be valid: %v", err)
	}
}

func TestCoordPanics(t *testing.T) {
	s := Shape{3, 3}
	for _, bad := range []int{-1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Coord(%d) did not panic", bad)
				}
			}()
			s.Coord(bad)
		}()
	}
}

func BenchmarkEachEdge(b *testing.B) {
	s := Shape{32, 32, 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.EachEdge(func(Edge) { n++ })
	}
}

func BenchmarkIndexCoord(b *testing.B) {
	s := Shape{17, 23, 31}
	out := make([]int, 3)
	r := rand.New(rand.NewSource(1))
	idxs := make([]int, 1024)
	for i := range idxs {
		idxs[i] = r.Intn(s.Nodes())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CoordInto(idxs[i&1023], out)
		_ = s.Index(out)
	}
}

// collectEdges gathers edges from a range iteration for comparison.
func collectEdges(s Shape, wrap WrapSet, lo, hi int) []Edge {
	var out []Edge
	s.EachEdgeRange(wrap, lo, hi, func(e Edge) { out = append(out, e) })
	return out
}

// testWraps covers the plain mesh, the cylinder's last axis, a two-axis
// suffix and the torus.
var testWraps = []WrapSet{NoWrap, 1, 2, WrapAll}

func TestEdgeRangePartition(t *testing.T) {
	shapes := []Shape{{7}, {3, 5}, {4, 4}, {2, 3, 4}, {5, 1, 3}, {2, 2, 2, 2}}
	for _, s := range shapes {
		for _, wrap := range testWraps {
			full := collectEdges(s, wrap, 0, s.Nodes())
			// Any partition of the node range must reproduce the full edge
			// sequence block by block.
			for _, blocks := range []int{1, 2, 3, 4, 7} {
				var got []Edge
				n := s.Nodes()
				for b := 0; b < blocks; b++ {
					got = append(got, collectEdges(s, wrap, b*n/blocks, (b+1)*n/blocks)...)
				}
				if len(got) != len(full) {
					t.Fatalf("%v wrap=%v blocks=%d: %d edges, want %d", s, wrap, blocks, len(got), len(full))
				}
				for i := range full {
					if got[i] != full[i] {
						t.Errorf("%v wrap=%v blocks=%d: edge %d = %+v, want %+v", s, wrap, blocks, i, got[i], full[i])
					}
				}
			}
		}
	}
}

func TestEdgeRangeCountsMatchFormulas(t *testing.T) {
	s := Shape{3, 4, 5}
	want := map[WrapSet]int{
		NoWrap:  2*20 + 3*15 + 4*12,
		1:       2*20 + 3*15 + 5*12, // cylinder: 12 rings of 5 on the last axis
		2:       2*20 + 4*15 + 5*12,
		WrapAll: 3*20 + 4*15 + 5*12,
	}
	for _, wrap := range testWraps {
		if got := len(collectEdges(s, wrap, 0, s.Nodes())); got != s.Edges(wrap) || got != want[wrap] {
			t.Errorf("wrap=%v: enumerated %d edges, Edges says %d, want %d", wrap, got, s.Edges(wrap), want[wrap])
		}
	}
}
