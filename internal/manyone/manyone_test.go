package manyone

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/mesh"
)

func TestAllToOne(t *testing.T) {
	e := AllToOne(mesh.Shape{3, 4})
	if err := e.VerifyManyToOne(); err != nil {
		t.Fatal(err)
	}
	if e.N != 0 || e.LoadFactor() != 12 || e.Dilation() != 0 {
		t.Errorf("AllToOne: %s", e.Measure())
	}
}

func TestContractPath(t *testing.T) {
	// A 12-node path contracted by 3 onto a Gray path of 4: load 3,
	// dilation 1, congestion 1 (one crossing edge per group boundary).
	base := embed.Gray(mesh.Shape{4})
	e := Contract(base, mesh.Shape{3})
	if err := e.VerifyManyToOne(); err != nil {
		t.Fatal(err)
	}
	if !e.Guest.Equal(mesh.Shape{12}) {
		t.Fatalf("guest = %v", e.Guest)
	}
	m := e.Measure()
	if m.LoadFactor != 3 || m.Dilation != 1 || m.Congestion != 1 {
		t.Errorf("contracted path: %s", m)
	}
}

func TestContractLoadLaw(t *testing.T) {
	// Theorem 4 / Lemma 5: load multiplies by Πfactors.
	base := embed.Gray(mesh.Shape{4, 4})
	e := Contract(base, mesh.Shape{2, 3})
	if err := e.VerifyManyToOne(); err != nil {
		t.Fatal(err)
	}
	if !e.Guest.Equal(mesh.Shape{8, 12}) {
		t.Fatalf("guest = %v", e.Guest)
	}
	if e.LoadFactor() != 6 {
		t.Errorf("load = %d, want 6", e.LoadFactor())
	}
	if e.Dilation() != 1 {
		t.Errorf("dilation = %d, want 1", e.Dilation())
	}
}

func TestGrayContractedCorollary4(t *testing.T) {
	// Corollary 4: ℓ1·2^n1 × ℓ2·2^n2 mesh into (n1+n2)-cube, dilation 1,
	// congestion (Πℓ)/min ℓ.
	cases := []struct {
		loads    mesh.Shape
		pows     []int
		wantCong int
		wantLoad int
	}{
		{mesh.Shape{3, 5}, []int{3, 2}, 5, 15}, // 24x20, cong 15/3 = 5
		{mesh.Shape{2, 2}, []int{2, 2}, 2, 4},  // 8x8 into 4-cube
		{mesh.Shape{4, 1}, []int{1, 3}, 1, 4},  // cong 4/1? (Πℓ)/min = 4/1 = 4 upper bound; actual may be lower
	}
	for _, c := range cases {
		e := GrayContracted(c.loads, c.pows)
		if err := e.VerifyManyToOne(); err != nil {
			t.Fatalf("%v: %v", c.loads, err)
		}
		if e.Dilation() != 1 {
			t.Errorf("%v: dilation %d, want 1", c.loads, e.Dilation())
		}
		if e.LoadFactor() != c.wantLoad {
			t.Errorf("%v: load %d, want %d", c.loads, e.LoadFactor(), c.wantLoad)
		}
		bound := 1
		for _, l := range c.loads {
			bound *= l
		}
		min := c.loads[0]
		for _, l := range c.loads {
			if l < min {
				min = l
			}
		}
		bound /= min
		if got := e.Congestion(); got > bound {
			t.Errorf("%v: congestion %d exceeds Corollary 4 bound %d", c.loads, got, bound)
		}
		if c.wantCong > 0 && c.loads[0] != 4 {
			if got := e.Congestion(); got != c.wantCong {
				t.Errorf("%v: congestion %d, want exactly %d", c.loads, got, c.wantCong)
			}
		}
		// Load is optimal: |V| / 2^n exactly.
		if opt := OptimalLoad(e.Guest, e.N); e.LoadFactor() != opt {
			t.Errorf("%v: load %d not optimal (%d)", c.loads, e.LoadFactor(), opt)
		}
	}
}

func TestFoldCube(t *testing.T) {
	e := embed.Gray(mesh.Shape{4, 4}) // 4-cube
	f := FoldCube(e, 2)
	if err := f.VerifyManyToOne(); err != nil {
		t.Fatal(err)
	}
	if f.N != 2 || f.LoadFactor() != 4 {
		t.Errorf("folded: %s", f.Measure())
	}
	if f.Dilation() > e.Dilation() {
		t.Errorf("folding increased dilation: %d > %d", f.Dilation(), e.Dilation())
	}
	// Folding to the same size is the identity.
	same := FoldCube(e, 4)
	for i := range same.Map {
		if same.Map[i] != e.Map[i] {
			t.Fatal("FoldCube(e, e.N) changed the map")
		}
	}
}

func TestFoldCubePanics(t *testing.T) {
	e := embed.Gray(mesh.Shape{4})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FoldCube(e, 3)
}

func TestCorollary5Example19x19(t *testing.T) {
	// §7's worked example: a 19x19 mesh into up to a 5-cube with dilation
	// one and load 15 (optimal is ⌈361/32⌉ = 12, so within a factor of 2).
	e, plan, ok := Corollary5(mesh.Shape{19, 19}, 5)
	if !ok {
		t.Fatal("Corollary5 found no cover for 19x19")
	}
	if err := e.VerifyManyToOne(); err != nil {
		t.Fatal(err)
	}
	if e.N != 5 {
		t.Errorf("cube dim %d, want 5", e.N)
	}
	if e.Dilation() != 1 {
		t.Errorf("dilation %d, want 1", e.Dilation())
	}
	if got := e.LoadFactor(); got != 15 {
		t.Errorf("load %d, want 15 (plan %+v)", got, plan)
	}
	if plan.LoadFactor() != 15 {
		t.Errorf("plan load %d, want 15", plan.LoadFactor())
	}
	if opt := OptimalLoad(mesh.Shape{19, 19}, 5); opt != 12 {
		t.Errorf("optimal load %d, want 12", opt)
	}
	// within a factor of two
	if e.LoadFactor() > 2*OptimalLoad(mesh.Shape{19, 19}, 5) {
		t.Errorf("load %d exceeds twice the optimum", e.LoadFactor())
	}
}

func TestCorollary5WithFolding(t *testing.T) {
	// Ask for a smaller cube than the cover's Σnᵢ: folding must kick in
	// and the load doubles per folded dimension.
	e, plan, ok := Corollary5(mesh.Shape{19, 19}, 4)
	if !ok {
		t.Fatal("no cover")
	}
	if e.N != 4 {
		t.Errorf("cube dim %d", e.N)
	}
	if e.Dilation() > 1 {
		t.Errorf("dilation %d", e.Dilation())
	}
	if e.LoadFactor() > 2*OptimalLoad(mesh.Shape{19, 19}, 4) {
		t.Errorf("load %d vs optimal %d: beyond factor two (plan %+v)",
			e.LoadFactor(), OptimalLoad(mesh.Shape{19, 19}, 4), plan)
	}
}

func TestCorollary5Infeasible(t *testing.T) {
	// n larger than any Σnᵢ compatible with the ⌈·⌉₂ condition: 3x3 into
	// a 4-cube would need Σnᵢ ≥ 4 with cover ≤ 16; covers: 4x4 (pows 2,2)
	// works — so pick something truly infeasible: n beyond ⌈log₂|V|⌉ bits
	// of cover is impossible only when cover product can't reach 2^n...
	// 3x3 target=16: (4,4) pows(2,2) sum 4 ≥ 4 ✓ feasible. Use n = 5:
	// Σnᵢ ≥ 5 needs cover ≥ 32 > 16 ✗.
	if _, _, ok := Corollary5(mesh.Shape{3, 3}, 5); ok {
		t.Error("expected infeasible")
	}
}

func TestCorollary5DilationOneAlways(t *testing.T) {
	for _, s := range []mesh.Shape{{19, 19}, {5, 5, 5}, {7, 11}, {100}} {
		n := s.MinCubeDim() - 2
		if n < 0 {
			n = 0
		}
		e, _, ok := Corollary5(s, n)
		if !ok {
			continue
		}
		if err := e.VerifyManyToOne(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if e.Dilation() > 1 {
			t.Errorf("%v: dilation %d, want ≤ 1", s, e.Dilation())
		}
	}
}

func TestContractCongestionBound(t *testing.T) {
	// Lemma 5: congestion of axis-i links ≤ cᵢ · Πⱼ≠ᵢ ℓⱼ'.
	base := embed.Gray(mesh.Shape{4, 4}) // congestion 1 per axis
	e := Contract(base, mesh.Shape{3, 4})
	// bound: max over axes of 1·(other factor) = max(4, 3) = 4
	if got := e.Congestion(); got > 4 {
		t.Errorf("congestion %d exceeds Lemma 5 bound 4", got)
	}
}

func BenchmarkContract(b *testing.B) {
	base := embed.Gray(mesh.Shape{16, 16})
	factors := mesh.Shape{3, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Contract(base, factors)
	}
}

func BenchmarkCorollary5(b *testing.B) {
	s := mesh.Shape{19, 19}
	for i := 0; i < b.N; i++ {
		_, _, _ = Corollary5(s, 5)
	}
}
