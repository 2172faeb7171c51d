package bits

import (
	"testing"
	"testing/quick"
)

func TestHamming(t *testing.T) {
	cases := []struct {
		x, y uint64
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0b1010, 0b0101, 4},
		{0xFFFF, 0, 16},
		{0xFFFFFFFFFFFFFFFF, 0, 64},
		{7, 7, 0},
		{0b100, 0b101, 1},
	}
	for _, c := range cases {
		if got := Hamming(c.x, c.y); got != c.want {
			t.Errorf("Hamming(%b,%b) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestHammingMetricAxioms(t *testing.T) {
	// Identity, symmetry and triangle inequality on random triples.
	f := func(x, y, z uint64) bool {
		if Hamming(x, x) != 0 {
			return false
		}
		if Hamming(x, y) != Hamming(y, x) {
			return false
		}
		return Hamming(x, z) <= Hamming(x, y)+Hamming(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingTranslationInvariance(t *testing.T) {
	// Hamming distance is invariant under XOR translation, the cube's
	// vertex-transitivity.
	f := func(x, y, t uint64) bool {
		return Hamming(x, y) == Hamming(x^t, y^t)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{511, 9}, {512, 9}, {513, 10}, {1 << 40, 40}, {1<<40 + 1, 41},
	}
	for _, c := range cases {
		if got := CeilLog2(c.x); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestFloorLog2(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{511, 8}, {512, 9}, {513, 9},
	}
	for _, c := range cases {
		if got := FloorLog2(c.x); got != c.want {
			t.Errorf("FloorLog2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestCeilPow2(t *testing.T) {
	cases := []struct{ x, want uint64 }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {15, 16}, {16, 16}, {17, 32},
		{27, 32}, {63, 64}, {121, 128}, {125, 128},
	}
	for _, c := range cases {
		if got := CeilPow2(c.x); got != c.want {
			t.Errorf("CeilPow2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestCeilFloorPow2Properties(t *testing.T) {
	f := func(x uint64) bool {
		x = x%(1<<50) + 1 // keep in range, positive
		c := CeilPow2(x)
		if !IsPow2(c) {
			return false
		}
		if c < x {
			return false
		}
		if c >= 2*x && x > 0 { // c is the *smallest* power of two >= x
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsPow2(t *testing.T) {
	for _, x := range []uint64{1, 2, 4, 8, 1024, 1 << 62} {
		if !IsPow2(x) {
			t.Errorf("IsPow2(%d) = false, want true", x)
		}
	}
	for _, x := range []uint64{0, 3, 5, 6, 7, 9, 1023, 1<<62 + 1} {
		if IsPow2(x) {
			t.Errorf("IsPow2(%d) = true, want false", x)
		}
	}
}

func TestBitOps(t *testing.T) {
	x := uint64(0b1010)
	if got := FlipBit(x, 3); got != 0b0010 {
		t.Errorf("FlipBit(%b,3) = %b", x, got)
	}
}

func TestDiffBits(t *testing.T) {
	got := DiffBits(0b1010, 0b0110)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("DiffBits = %v, want [2 3]", got)
	}
	if len(DiffBits(5, 5)) != 0 {
		t.Errorf("DiffBits(x,x) should be empty")
	}
}

func TestDiffBitsMatchesHamming(t *testing.T) {
	f := func(x, y uint64) bool {
		d := DiffBits(x, y)
		if len(d) != Hamming(x, y) {
			return false
		}
		// Flipping all listed bits of x must yield y.
		z := x
		for _, b := range d {
			z = FlipBit(z, b)
		}
		return z == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilLog2PanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilLog2(0) did not panic")
		}
	}()
	CeilLog2(0)
}

func BenchmarkHamming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Hamming(uint64(i), uint64(i)*2654435761)
	}
}

func BenchmarkCeilPow2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = CeilPow2(uint64(i) + 1)
	}
}
