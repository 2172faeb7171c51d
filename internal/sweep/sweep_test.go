package sweep

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers should normalize non-positive requests to >= 1")
	}
	if Workers(5) != 5 {
		t.Error("Workers should pass explicit counts through")
	}
}

func TestMapMatchesSerial(t *testing.T) {
	fn := func(i int) int { return i*i - 3*i }
	want := Map(1000, 1, fn)
	for _, w := range []int{2, 3, 7, 0} {
		got := Map(1000, w, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapOrderDeterministic(t *testing.T) {
	got := Map(64, 8, func(i int) string { return fmt.Sprintf("item-%02d", i) })
	for i, s := range got {
		if want := fmt.Sprintf("item-%02d", i); s != want {
			t.Fatalf("slot %d holds %q, want %q", i, s, want)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if out := Map(0, 4, func(i int) int { return i }); out != nil {
		t.Errorf("Map(0) = %v, want nil", out)
	}
	if out := Map(-5, 4, func(i int) int { return i }); out != nil {
		t.Errorf("Map(-5) = %v, want nil", out)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the worker panic to reach the caller")
		}
		if s, ok := r.(string); !ok || s != "boom 13" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	Map(100, 4, func(i int) int {
		if i == 13 {
			panic("boom 13")
		}
		return i
	})
}

func TestMapCoversAllOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int32
	Map(n, 6, func(i int) struct{} { counts[i].Add(1); return struct{}{} })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}
