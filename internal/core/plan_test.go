package core

import (
	"testing"

	"repro/internal/mesh"
)

// TestEnumNames: each constant of Kind and StrategyID has a nonempty wire
// name distinct from the others', ParseKind inverts Kind.String, and out of
// range values print "unknown" and do not parse.
func TestEnumNames(t *testing.T) {
	distinct := func(enum string, names []string) {
		seen := map[string]bool{}
		for i, name := range names {
			if name == "" || seen[name] {
				t.Errorf("%s %d: wire name %q is empty or repeated", enum, i, name)
			}
			seen[name] = true
		}
	}
	distinct("Kind", kindNames[:])
	distinct("StrategyID", strategyNames[:])
	if !KindTree.IsValid() || StrategyFold.String() != "fold" {
		t.Errorf("the last constants lack names: %s %s", KindTree, StrategyFold)
	}
	for k := Kind(0); k.IsValid(); k++ {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %d", k, got, err, int(k))
		}
	}
	for _, k := range []Kind{-1, Kind(len(kindNames))} {
		if k.IsValid() || k.String() != "unknown" {
			t.Errorf("Kind(%d) is valid or prints %q", int(k), k)
		}
	}
	if s := StrategyID(len(strategyNames)).String(); s != "unknown" {
		t.Errorf("StrategyID out of range prints %q", s)
	}
	_, err := ParseKind("moebius")
	if want := `unknown Kind "moebius" (want one of [gray direct product submesh solver snake fold ring tree])`; err == nil || err.Error() != want {
		t.Errorf("ParseKind(\"moebius\") error %v, want %s", err, want)
	}
}

// buildAndCheck plans the shape, builds it, verifies, and returns measured
// metrics via the embedding.
func buildAndCheck(t *testing.T, s mesh.Shape) (*Plan, int) {
	t.Helper()
	p := PlanShape(s, DefaultOptions)
	if !p.Shape.Equal(s) {
		t.Fatalf("%v: plan shape %v", s, p.Shape)
	}
	if !p.Minimal() {
		t.Fatalf("%v: plan not minimal expansion (cube %d, want %d): %s",
			s, p.CubeDim, s.MinCubeDim(), p)
	}
	e := p.Build()
	if err := e.Verify(); err != nil {
		t.Fatalf("%v: %v (plan %s)", s, err, p)
	}
	d := e.Dilation()
	if p.Dilation != DilationUnknown && d > p.Dilation {
		t.Fatalf("%v: measured dilation %d exceeds guaranteed %d (plan %s)",
			s, d, p.Dilation, p)
	}
	return p, d
}

func TestPlanGrayMinimal(t *testing.T) {
	p, d := buildAndCheck(t, mesh.Shape{4, 8, 16})
	if p.Method != 1 || d != 1 {
		t.Errorf("plan %s method %d dilation %d", p, p.Method, d)
	}
	// 3x4 is Gray-minimal despite the odd axis.
	p, d = buildAndCheck(t, mesh.Shape{3, 4})
	if p.Method != 1 || d != 1 {
		t.Errorf("plan %s method %d dilation %d", p, p.Method, d)
	}
}

func TestPlanDirectTables(t *testing.T) {
	for _, s := range []mesh.Shape{{3, 5}, {7, 9}, {11, 11}, {3, 3, 3}, {3, 3, 7}} {
		p, d := buildAndCheck(t, s)
		if d > 2 {
			t.Errorf("%v: dilation %d (plan %s)", s, d, p)
		}
	}
}

func TestPlan12x20(t *testing.T) {
	// §4.2: 12x20 reduces to (3x5) ⊗ (4x4).
	p, d := buildAndCheck(t, mesh.Shape{12, 20})
	if d > 2 {
		t.Errorf("dilation %d (plan %s)", d, p)
	}
	if p.Kind != KindProduct {
		t.Errorf("expected product plan, got %s", p)
	}
}

func TestPlan3x25x3(t *testing.T) {
	// §4.2: 3x25x3 reduces to two 3x5 meshes.
	p, d := buildAndCheck(t, mesh.Shape{3, 25, 3})
	if d > 2 {
		t.Errorf("dilation %d (plan %s)", d, p)
	}
}

func TestPlan21x9x5(t *testing.T) {
	// §5: 21x9x5 = (7x9x1) ⊗ (3x1x5), minimal expansion, dilation two.
	p, d := buildAndCheck(t, mesh.Shape{21, 9, 5})
	if d > 2 {
		t.Errorf("dilation %d (plan %s)", d, p)
	}
}

func TestPlan3x3x23Extension(t *testing.T) {
	// §4.2 strategy step 3: 3x3x23 extends to 3x3x25 = (3x1x5) ⊗ (1x3x5).
	p, d := buildAndCheck(t, mesh.Shape{3, 3, 23})
	if d > 2 {
		t.Errorf("dilation %d (plan %s)", d, p)
	}
}

func TestPlan5x6x7(t *testing.T) {
	// §5: 5x6x7 picks the 5x6 pair (smallest ℓ/⌈ℓ⌉₂) + Gray on 7.
	// ⌈30⌉₂·⌈7⌉₂ = 32·8 = 256 = ⌈210⌉₂: minimal.
	p, d := buildAndCheck(t, mesh.Shape{5, 6, 7})
	if p.Method != 2 {
		t.Errorf("method %d, want 2 (plan %s)", p.Method, p)
	}
	_ = d // dilation depends on the 2D engine for 5x6 (solver/snake)
}

func TestPlan5x10x11(t *testing.T) {
	// §5: more than one relative expansion may be one.
	p, _ := buildAndCheck(t, mesh.Shape{5, 10, 11})
	if p.Method == 0 || p.Method > 4 {
		t.Errorf("method %d (plan %s)", p.Method, p)
	}
}

func TestPlan6x11x7NoPairWorks(t *testing.T) {
	// §5: 6x11x7 has no relative expansion one via pairs:
	// ⌈66⌉₂⌈7⌉₂=1024, ⌈77⌉₂⌈6⌉₂=1024, ⌈42⌉₂⌈11⌉₂=1024, ⌈462⌉₂=512.
	s := mesh.Shape{6, 11, 7}
	p := PlanShape(s, DefaultOptions)
	if !p.Minimal() {
		t.Fatalf("plan not minimal: %s", p)
	}
	if p.Method == 2 && p.Kind == KindProduct && len(p.Factors) == 2 {
		// method 2 must not claim a pair+gray here; methods 3/4/5 only
		for _, f := range p.Factors {
			if f.Kind == KindGray && f.Shape.Nodes() > 1 {
				active := 0
				for _, l := range f.Shape {
					if l > 1 {
						active++
					}
				}
				if active == 1 {
					t.Errorf("pair+gray plan should be impossible for 6x11x7: %s", p)
				}
			}
		}
	}
	e := p.Build()
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPlan12x16x20x32HighDim(t *testing.T) {
	// §4.2 step 1: power-of-two axes (16, 32) split off by Gray code,
	// leaving 12x20 = (3x5) ⊗ (4x4).
	p, d := buildAndCheck(t, mesh.Shape{12, 16, 20, 32})
	if d > 2 {
		t.Errorf("dilation %d (plan %s)", d, p)
	}
}

func TestPlanSnakeFallbackIsValid(t *testing.T) {
	// 5x5x5 has no known dilation-2 minimal-expansion embedding (§5);
	// the planner must still produce a valid minimal-expansion embedding.
	s := mesh.Shape{5, 5, 5}
	p := PlanShape(s, DefaultOptions)
	if !p.Minimal() {
		t.Fatalf("not minimal: %s", p)
	}
	e := p.Build()
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	t.Logf("5x5x5 plan %s: measured dilation %d", p, e.Dilation())
}

func TestSnakeEmbeddingProperties(t *testing.T) {
	for _, s := range []mesh.Shape{{5}, {3, 7}, {5, 5, 5}, {2, 3, 4, 5}} {
		e := Snake(s)
		if err := e.Verify(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !e.Minimal() {
			t.Errorf("%v: snake not minimal", s)
		}
	}
}

// TestSnakeOrderIsHamiltonianPath: Snake assigns one codeword per entry of
// the snake order, so the order must visit every node exactly once.
func TestSnakeOrderIsHamiltonianPath(t *testing.T) {
	s := mesh.Shape{3, 4, 5}
	order := s.SnakeOrder()
	if len(order) != s.Nodes() {
		t.Fatalf("snake has %d nodes, want %d", len(order), s.Nodes())
	}
	seen := make([]bool, s.Nodes())
	for i, g := range order {
		if seen[g] {
			t.Fatalf("duplicate at %d", i)
		}
		seen[g] = true
	}
}

func TestPlanStringRendering(t *testing.T) {
	p := PlanShape(mesh.Shape{12, 20}, DefaultOptions)
	str := p.String()
	if str == "" {
		t.Error("empty plan string")
	}
	t.Logf("12x20 plan: %s", str)
}

func TestPlanLargeShapesFast(t *testing.T) {
	// Planner must stay fast on large shapes (used in sweeps).
	for _, s := range []mesh.Shape{{511, 512, 509}, {100, 200, 300}, {333, 222, 111}} {
		p := PlanShape(s, Options{}) // no solver
		if !p.Minimal() {
			t.Errorf("%v: not minimal", s)
		}
	}
}

func TestPlanMethodOrderMatchesPaper(t *testing.T) {
	// Method indices must be populated for reporting.
	cases := []struct {
		s          mesh.Shape
		wantMethod int
	}{
		{mesh.Shape{8, 8, 8}, 1},
		{mesh.Shape{5, 6, 7}, 2},
	}
	for _, c := range cases {
		p := PlanShape(c.s, DefaultOptions)
		if p.Method != c.wantMethod {
			t.Errorf("%v: method %d, want %d (plan %s)", c.s, p.Method, c.wantMethod, p)
		}
	}
}

func BenchmarkPlan3D(b *testing.B) {
	shapes := []mesh.Shape{{5, 6, 7}, {21, 9, 5}, {3, 3, 23}, {100, 200, 300}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PlanShape(shapes[i%len(shapes)], Options{})
	}
}

func BenchmarkPlanAndBuild21x9x5(b *testing.B) {
	s := mesh.Shape{21, 9, 5}
	for i := 0; i < b.N; i++ {
		p := PlanShape(s, Options{})
		e := p.Build()
		_ = e.Dilation()
	}
}
