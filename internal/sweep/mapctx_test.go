package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMapCtxMatchesMap(t *testing.T) {
	fn := func(i int) int { return i * i }
	want := Map(100, 4, fn)
	got, err := MapCtx(context.Background(), 100, 4, func(_ context.Context, i int) int { return fn(i) })
	if err != nil {
		t.Fatalf("MapCtx: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MapCtx[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if out, err := MapCtx(context.Background(), 0, 4, func(_ context.Context, i int) int { return i }); out != nil || err != nil {
		t.Fatalf("MapCtx(n=0) = %v, %v; want nil, nil", out, err)
	}
}

// TestMapCtxCancelMidRun cancels from inside an item: MapCtx must return
// no results with ctx.Err(), and start at most one item per worker once
// the cancel has happened (each worker checks ctx between items, so only
// an item pulled just before the check can still start).  Items after the
// cancelling one wait until the cancel has fired, so a worker descheduled
// before item 100 cannot let the others run every other item first.
func TestMapCtxCancelMidRun(t *testing.T) {
	const n, workers = 10000, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls, late atomic.Int64
	var cancelled atomic.Bool
	fired := make(chan struct{})
	out, err := MapCtx(ctx, n, workers, func(_ context.Context, i int) int {
		calls.Add(1)
		if cancelled.Load() {
			late.Add(1)
		}
		switch {
		case i == 100:
			cancel()
			cancelled.Store(true)
			close(fired)
		case i > 100:
			<-fired
		}
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled MapCtx returned %d results, want none", len(out))
	}
	if l := late.Load(); l > workers {
		t.Fatalf("%d items started after the cancel, want at most one per worker (%d)", l, workers)
	}
	if c := calls.Load(); c >= n {
		t.Fatalf("all %d items ran despite the cancel", c)
	}
}

// TestMapCtxPanicAfterDrain checks a worker panic reaches the caller only
// once no other item is still running.
func TestMapCtxPanicAfterDrain(t *testing.T) {
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
	MapCtx(context.Background(), 100, 4, func(_ context.Context, i int) int {
		running.Add(1)
		defer running.Add(-1)
		if i == 13 {
			panic("boom 13")
		}
		time.Sleep(time.Millisecond)
		return i
	})
	t.Fatal("MapCtx returned instead of panicking")
}

func TestMapCtxEmpty(t *testing.T) {
	fn := func(_ context.Context, i int) int { t.Fatalf("fn(%d) called for n = 0", i); return 0 }
	if out, err := MapCtx(context.Background(), 0, 4, fn); out != nil || err != nil {
		t.Fatalf("MapCtx(n=0) = %v, %v; want nil, nil", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := MapCtx(ctx, 0, 4, fn); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("MapCtx(n=0, cancelled) = %v, %v; want nil, context.Canceled", out, err)
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
	out, err := MapCtx(ctx, n, workers, func(wctx context.Context, i int) int {
		calls.Add(1)
		_, sp := obs.Start(wctx, "item")
		sp.End()
		return i
	})
	root.End()

	if err != nil || len(out) != n || calls.Load() != n {
		t.Fatalf("ran %d items (len %d, err %v), want %d", calls.Load(), len(out), err, n)
	}
	for _, ws := range checkPoolTree(t, root.Snapshot(), n, workers).Children {
		if items := attr(ws, "items").(int64); int64(len(ws.Children)) != items {
			t.Fatalf("worker %s: %d item spans for %d items", ws.Name, len(ws.Children), items)
		}
	}
}

// TestMapCtxTracedFold checks the reduction callers now write themselves:
// under an active trace the pool records the same sweep / worker span tree,
// and a fold over the returned slots sees them in index order.  The fold is
// order-sensitive, so a slot out of place changes the result.
func TestMapCtxTracedFold(t *testing.T) {

	ctx, root := obs.StartRoot(context.Background(), "test")
	const n, workers = 257, 8
	out, err := MapCtx(ctx, n, workers, func(_ context.Context, i int) int { return i })
	root.End()
	if err != nil || len(out) != n {
		t.Fatalf("MapCtx = %d results, %v; want %d, nil", len(out), err, n)
	}
	sum, got := 0, uint64(0)
	want := uint64(0)
	for i, r := range out {
		sum += r
		got = got*1000003 + uint64(r)
		want = want*1000003 + uint64(i)
	}
	if sum != n*(n-1)/2 || got != want {
		t.Fatalf("fold over slots = sum %d, hash %#x; want %d, %#x", sum, got, n*(n-1)/2, want)
	}
	checkPoolTree(t, root.Snapshot(), n, workers)
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
