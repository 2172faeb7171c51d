package solver

import (
	"testing"

	"repro/internal/mesh"
)

// TestSnakeOrderAdjacent: startGray seeds the search along the snake order,
// so consecutive entries must be mesh neighbors.
func TestSnakeOrderAdjacent(t *testing.T) {
	for _, s := range []mesh.Shape{{5}, {3, 5}, {4, 4}, {2, 3, 4}, {3, 3, 3}, {1, 7, 2}} {
		order := s.SnakeOrder()
		if len(order) != s.Nodes() {
			t.Fatalf("%v: snake has %d nodes, want %d", s, len(order), s.Nodes())
		}
		seen := make([]bool, s.Nodes())
		for i, g := range order {
			if seen[g] {
				t.Fatalf("%v: duplicate node %d in snake order", s, g)
			}
			seen[g] = true
			if i > 0 {
				// consecutive entries must be mesh neighbors
				cu, cv := s.Coord(order[i-1]), s.Coord(g)
				diff := 0
				for j := range cu {
					diff += max(cu[j]-cv[j], cv[j]-cu[j])
				}
				if diff != 1 {
					t.Fatalf("%v: snake step %d: %v -> %v not adjacent", s, i, cu, cv)
				}
			}
		}
	}
}

func TestFindGrayMinimalShortcut(t *testing.T) {
	e := Find(mesh.Shape{3, 4}, Options{Seed: 1})
	if e == nil {
		t.Fatal("Find failed on Gray-minimal shape")
	}
	if e.Dilation() != 1 {
		t.Errorf("dilation %d", e.Dilation())
	}
}

func TestFind3x5(t *testing.T) {
	s := mesh.Shape{3, 5}
	e := Find(s, Options{MaxDilation: 2, Seed: 42})
	if e == nil {
		t.Fatal("no dilation-2 embedding of 3x5 found")
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if !e.Minimal() || e.Dilation() > 2 {
		t.Errorf("bad embedding: %s", e.Measure())
	}
}

func TestFind3x3x3(t *testing.T) {
	s := mesh.Shape{3, 3, 3}
	e := Find(s, Options{MaxDilation: 2, Seed: 42, Restarts: 12})
	if e == nil {
		t.Fatal("no dilation-2 embedding of 3x3x3 found")
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if !e.Minimal() || e.Dilation() > 2 {
		t.Errorf("bad embedding: %s", e.Measure())
	}
}

func TestFastExpMonotone(t *testing.T) {
	prev := 1.0
	for x := 0.0; x < 10; x += 0.25 {
		y := fastExp(-x)
		if y < 0 || y > prev+1e-12 {
			t.Fatalf("fastExp(-%v) = %v not monotone", x, y)
		}
		prev = y
	}
	if fastExp(-30) != 0 {
		t.Error("deep tail should clamp to 0")
	}
}

func BenchmarkFind3x5(b *testing.B) {
	s := mesh.Shape{3, 5}
	for i := 0; i < b.N; i++ {
		if Find(s, Options{MaxDilation: 2, Seed: int64(i + 1)}) == nil {
			b.Fatal("solver failed")
		}
	}
}
