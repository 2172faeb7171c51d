package sweep

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestMapCtxMatchesMap(t *testing.T) {
	fn := func(i int) int { return i * i }
	want := Map(100, 4, fn)
	got := MapCtx(context.Background(), 100, 4, func(_ context.Context, i int) int { return fn(i) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MapCtx[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if MapCtx(context.Background(), 0, 4, func(_ context.Context, i int) int { return i }) != nil {
		t.Fatal("n=0 must return nil")
	}
}

// TestMapCtxTracedTree runs concurrent workers under an active trace (this
// test is part of the -race suite) and checks the span tree is well-formed:
// one pool span, one span per worker, item counts summing to n, and an
// imbalance summary on the pool span.
func TestMapCtxTracedTree(t *testing.T) {

	ctx, root := obs.StartRoot(context.Background(), "test")
	const n, workers = 257, 8
	var calls atomic.Int64
	out := MapCtx(ctx, n, workers, func(wctx context.Context, i int) int {
		calls.Add(1)
		_, sp := obs.Start(wctx, "item")
		sp.End()
		return i
	})
	root.End()

	if len(out) != n || calls.Load() != n {
		t.Fatalf("ran %d items (len %d), want %d", calls.Load(), len(out), n)
	}
	for _, ws := range checkPoolTree(t, root.Snapshot(), n, workers).Children {
		if items := attr(ws, "items").(int64); int64(len(ws.Children)) != items {
			t.Fatalf("worker %s: %d item spans for %d items", ws.Name, len(ws.Children), items)
		}
	}
}

// checkPoolTree checks the "sweep" span under snap: one finished span per
// worker on distinct lanes, items and busy_ns on each with items summing to
// n, and an imbalance ≥ 1 on the pool span.  It returns the pool span.
func checkPoolTree(t *testing.T, snap *obs.SpanJSON, n, workers int) *obs.SpanJSON {
	t.Helper()
	pool := snap.Find("sweep")
	if pool == nil {
		t.Fatal("no sweep span")
	}
	if len(pool.Children) != workers {
		t.Fatalf("worker spans = %d, want %d", len(pool.Children), workers)
	}
	var items int64
	lanes := map[int]bool{}
	for _, ws := range pool.Children {
		if ws.Unfinished {
			t.Fatalf("worker span %s unfinished", ws.Name)
		}
		lanes[ws.Lane] = true
		wItems, wBusy := attr(ws, "items"), attr(ws, "busy_ns")
		if wItems == nil || wBusy == nil {
			t.Fatalf("worker span %s missing items/busy attrs: %+v", ws.Name, ws.Attrs)
		}
		items += wItems.(int64)
	}
	if items != int64(n) {
		t.Fatalf("worker items sum to %d, want %d", items, n)
	}
	if len(lanes) != workers {
		t.Fatalf("lanes not distinct: %v", lanes)
	}
	imb := attr(pool, "imbalance")
	if imb == nil {
		t.Fatalf("no imbalance summary on pool span: %+v", pool.Attrs)
	}
	if v := imb.(float64); v < 1 {
		t.Fatalf("imbalance = %v, want >= 1", v)
	}
	return pool
}

// attr returns the value of s's attribute key, or nil.
func attr(s *obs.SpanJSON, key string) any {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

func TestMapCtxPanicPropagates(t *testing.T) {
	ctx, root := obs.StartRoot(context.Background(), "test")
	defer root.End()
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	MapCtx(ctx, 64, 4, func(_ context.Context, i int) int {
		if i == 13 {
			panic("boom")
		}
		return i
	})
}
