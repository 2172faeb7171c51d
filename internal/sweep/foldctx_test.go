package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFoldCtxCancelMidRun cancels from inside an item: FoldCtx must return
// acc untouched with ctx.Err(), never call merge, and start at most one item
// per worker once the cancel has happened (each worker checks ctx between
// items, so only an item pulled just before the check can still start).
func TestFoldCtxCancelMidRun(t *testing.T) {
	const n, workers = 10000, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls, late atomic.Int64
	var cancelled atomic.Bool
	merges := 0
	acc, err := FoldCtx(ctx, n, workers,
		func(i int) int {
			calls.Add(1)
			if cancelled.Load() {
				late.Add(1)
			}
			if i == 100 {
				cancel()
				cancelled.Store(true)
			}
			return i
		},
		-7, func(acc, r int) int { merges++; return acc + r })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if acc != -7 || merges != 0 {
		t.Fatalf("acc = %d after %d merges, want the untouched -7 and no merge", acc, merges)
	}
	if l := late.Load(); l > workers {
		t.Fatalf("%d items started after the cancel, want at most one per worker (%d)", l, workers)
	}
	if c := calls.Load(); c >= n {
		t.Fatalf("all %d items ran despite the cancel", c)
	}
}

// TestFoldCtxPanicAfterDrain checks a worker panic reaches the caller only
// once no other item is still running.
func TestFoldCtxPanicAfterDrain(t *testing.T) {
	var running atomic.Int64
	defer func() {
		r := recover()
		if r != "boom 13" {
			t.Fatalf("recovered %v, want the worker panic", r)
		}
		if k := running.Load(); k != 0 {
			t.Fatalf("panic re-raised with %d items still running", k)
		}
	}()
	FoldCtx(context.Background(), 100, 4,
		func(i int) int {
			running.Add(1)
			defer running.Add(-1)
			if i == 13 {
				panic("boom 13")
			}
			time.Sleep(time.Millisecond)
			return i
		},
		0, func(acc, r int) int { return acc + r })
	t.Fatal("FoldCtx returned instead of panicking")
}

func TestFoldCtxEmpty(t *testing.T) {
	fn := func(i int) int { t.Fatalf("fn(%d) called for n = 0", i); return 0 }
	merge := func(acc, r int) int { t.Fatal("merge called for n = 0"); return acc }
	if acc, err := FoldCtx(context.Background(), 0, 4, fn, 5, merge); acc != 5 || err != nil {
		t.Fatalf("FoldCtx(n=0) = %d, %v; want 5, nil", acc, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if acc, err := FoldCtx(ctx, 0, 4, fn, 5, merge); acc != 5 || !errors.Is(err, context.Canceled) {
		t.Fatalf("FoldCtx(n=0, cancelled) = %d, %v; want 5, context.Canceled", acc, err)
	}
}

// TestFoldCtxTracedTree checks FoldCtx records the same sweep / worker span
// tree as MapCtx under an active trace, and still folds in index order.
func TestFoldCtxTracedTree(t *testing.T) {

	ctx, root := obs.StartRoot(context.Background(), "test")
	const n, workers = 257, 8
	sum, err := FoldCtx(ctx, n, workers, func(i int) int { return i }, 0,
		func(acc, r int) int { return acc + r })
	root.End()
	if err != nil || sum != n*(n-1)/2 {
		t.Fatalf("FoldCtx = %d, %v; want %d, nil", sum, err, n*(n-1)/2)
	}
	checkPoolTree(t, root.Snapshot(), n, workers)
}
