package direct

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
)

func TestTablesProperties(t *testing.T) {
	for _, tab := range Tables {
		e, ok := Embedding(tab.Shape)
		if !ok {
			t.Fatalf("%v: Embedding not found", tab.Shape)
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("%v: %v", tab.Shape, err)
		}
		m := e.Measure()
		if !m.Minimal {
			t.Errorf("%v: not minimal expansion: %s", tab.Shape, m)
		}
		if m.Dilation != tab.Dilation {
			t.Errorf("%v: dilation %d, recorded %d", tab.Shape, m.Dilation, tab.Dilation)
		}
		if m.Congestion != tab.Congestion {
			t.Errorf("%v: congestion %d, recorded %d", tab.Shape, m.Congestion, tab.Congestion)
		}
		if m.LoadFactor != 1 {
			t.Errorf("%v: load %d", tab.Shape, m.LoadFactor)
		}
	}
}

func TestTwoDimensionalTablesCongestionTwo(t *testing.T) {
	// Section 3.3 / [13]: the 2D direct embeddings have congestion two.
	for _, s := range []mesh.Shape{{3, 5}, {7, 9}, {11, 11}} {
		e, ok := Embedding(s)
		if !ok {
			t.Fatalf("%v missing", s)
		}
		if c := e.Congestion(); c != 2 {
			t.Errorf("%v: congestion %d, want 2", s, c)
		}
	}
}

func TestLookupPermutation(t *testing.T) {
	// 5x3 must resolve to the 3x5 table via permutation.
	e, ok := Embedding(mesh.Shape{5, 3})
	if !ok {
		t.Fatal("5x3 not found")
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if e.Dilation() > 2 {
		t.Errorf("permuted table dilation %d", e.Dilation())
	}
	// 7x3x3 resolves to 3x3x7.
	e, ok = Embedding(mesh.Shape{7, 3, 3})
	if !ok {
		t.Fatal("7x3x3 not found")
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if e.Dilation() > 2 {
		t.Errorf("permuted 3D table dilation %d", e.Dilation())
	}
}

func TestLookupWithTrailingOnes(t *testing.T) {
	// 3x5x1 should match the 3x5 table with a padded axis.
	e, ok := Embedding(mesh.Shape{3, 5, 1})
	if !ok {
		t.Fatal("3x5x1 not found")
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if e.Dilation() > 2 || !e.Minimal() {
		t.Errorf("bad: %s", e.Measure())
	}
	// 3x1x5 likewise (permutation with the 1 in the middle).
	e, ok = Embedding(mesh.Shape{3, 1, 5})
	if !ok {
		t.Fatal("3x1x5 not found")
	}
	if e.Dilation() > 2 {
		t.Errorf("dilation %d", e.Dilation())
	}
}

func TestLookupMiss(t *testing.T) {
	for _, s := range []mesh.Shape{{4, 5}, {5, 5}, {3, 6}, {2, 3, 7}} {
		if _, _, ok := Lookup(s); ok {
			t.Errorf("%v unexpectedly matched a table", s)
		}
	}
}

func TestAvgDilationQuality(t *testing.T) {
	// The direct tables were polished for low average dilation; guard
	// against regressions that would degrade the product embeddings.
	limits := map[string]float64{
		"3x5":   1.25,
		"7x9":   1.70,
		"11x11": 1.70,
		"3x3x3": 1.40,
		"3x3x7": 1.70,
	}
	for _, tab := range Tables {
		e, _ := Embedding(tab.Shape)
		if avg := e.AvgDilation(); avg > limits[tab.Shape.String()] {
			t.Errorf("%v: avg dilation %.4f exceeds %v", tab.Shape, avg, limits[tab.Shape.String()])
		}
	}
}

func BenchmarkDirectEmbedding(b *testing.B) {
	s := mesh.Shape{7, 9}
	for i := 0; i < b.N; i++ {
		if _, ok := Embedding(s); !ok {
			b.Fatal("missing")
		}
	}
}

// matchPermutationBacktrack is the exhaustive reference for
// matchPermutation: depth-first over every assignment of ref axes to s
// axes, returning the first complete one.
func matchPermutationBacktrack(s, ref mesh.Shape) ([]int, bool) {
	k := len(s)
	if len(ref) > k {
		return nil, false
	}
	refPad := ref.PadTo(k)
	used := make([]bool, k)
	perm := make([]int, k)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == k {
			return true
		}
		for j := 0; j < k; j++ {
			if !used[j] && refPad[j] == s[i] {
				used[j] = true
				perm[i] = j
				if rec(i + 1) {
					return true
				}
				used[j] = false
			}
		}
		return false
	}
	if rec(0) {
		return perm, true
	}
	return nil, false
}

// TestMatchPermutationMatchesBacktracking: the greedy match returns the
// backtracking search's first permutation, and fails exactly when it
// fails, on every shape of at most six axes with lengths in {1, 3, 5, 7}
// against every table.
func TestMatchPermutationMatchesBacktracking(t *testing.T) {
	lengths := []int{1, 3, 5, 7}
	var shapes []mesh.Shape
	var rec func(s mesh.Shape)
	rec = func(s mesh.Shape) {
		if len(s) > 0 {
			shapes = append(shapes, s.Clone())
		}
		if len(s) == 6 {
			return
		}
		for _, l := range lengths {
			rec(append(s, l))
		}
	}
	rec(nil)
	matches := 0
	for _, tab := range Tables {
		for _, s := range shapes {
			got, gok := matchPermutation(s, tab.Shape)
			want, wok := matchPermutationBacktrack(s, tab.Shape)
			if gok != wok || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v vs table %v: greedy %v %v, backtracking %v %v",
					s, tab.Shape, got, gok, want, wok)
			}
			if gok {
				matches++
			}
		}
	}
	if matches == 0 {
		t.Fatal("no shape matched any table")
	}
}
