package main

import "testing"

func TestNearestRankPercentile(t *testing.T) {
	v := make([]int, 100)
	for i := range v {
		v[i] = i + 1
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int{7, 9, 11}, 50); got != 9 {
		t.Errorf("p50 of three = %d, want 9", got)
	}
	if got := percentile([]int(nil), 99); got != 0 {
		t.Errorf("p99 of nothing = %d, want 0", got)
	}
	if got := median([]int{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of four = %d, want the lower middle 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // rank 990, ten beyond
		{999, 99, false}, // rank 990, nine beyond
		{100, 90, true},
		{99, 90, false},
		{0, 50, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}
