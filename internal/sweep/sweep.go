// Package sweep is the shared bounded worker-pool engine behind the
// shape-space enumerations (Figure 2, the exceptional-mesh lists, the §8
// conjecture sweep), the batch-job chunks, the parallel metrics pass and
// the CLI tools.  Work items are indexed 0..n-1 and handed to workers
// through an atomic cursor; results land in slots indexed by item, and the
// caller gets those slots themselves.  A reduction is the caller's own loop
// over them in index order, so output order — and therefore every golden
// rendering built from it — is independent of the worker count and the
// scheduling.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Workers normalizes a requested worker count: values below one mean "use
// GOMAXPROCS".
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Map computes fn(i) for every i in [0, n) on up to workers goroutines and
// returns the results indexed by i.  fn must be safe for concurrent calls.
// A panic in any fn is re-raised on the caller after the pool drains, so a
// failing sweep fails loudly instead of deadlocking.
func Map[R any](n, workers int, fn func(i int) R) []R {
	return run(context.Background(), n, workers, func(_ context.Context, i int) R { return fn(i) })
}

// MapCtx is Map with cooperative cancellation and observability.  Workers
// stop pulling new items once ctx is done, and the partial results are
// discarded: a cancelled MapCtx returns nil and ctx.Err(), so a caller
// never reduces over an incomplete item set.  Otherwise it returns the
// pool's own result slots, indexed by item, for the caller to use in place
// or fold in index order; a computation that must not be cut short passes
// context.WithoutCancel.  Long-running shard loops (the batch-job chunks)
// use the cancellation so a cancelled job stops within one item, not one
// chunk.
//
// When ctx carries an active obs span the pool runs under a "sweep" child
// span with one span per worker recording items processed, busy time
// (cumulative time inside fn) and a lane for the Chrome export, plus an
// imbalance summary (max worker busy time over the even-share average) on
// the pool span.  fn receives a context carrying its worker's span, so
// work items can open their own child spans; without a span fn receives
// ctx itself.
func MapCtx[R any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) R) ([]R, error) {
	out := run(ctx, n, workers, fn)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// tally is one worker's trace summary: items processed and time inside fn.
type tally struct{ items, busy int64 }

// run is the one pool body behind Map and MapCtx.  Each worker pulls item
// indices from an atomic cursor until the items run out, a worker panics,
// or ctx is done; the caller's goroutine is one of the workers, so a
// single-worker pool starts no goroutine.  A panic in fn is re-raised on
// the caller once every worker has returned.  Under an active obs span the
// pool records the "sweep" / "worker N" span tree MapCtx documents.
func run[R any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) R) []R {
	if n <= 0 {
		return nil
	}
	done := ctx.Done() // nil for a context that is never cancelled
	w := min(Workers(workers), n)
	out := make([]R, n)
	sctx, pool := obs.Start(ctx, "sweep")
	var p struct {
		wg       sync.WaitGroup
		next     atomic.Int64 // worker index
		cursor   atomic.Int64 // item index
		panicked atomic.Bool
		panicVal any
		tallies  []tally // per worker; nil when untraced
	}
	if pool != nil {
		p.tallies = make([]tally, w)
	}
	// The worker takes no arguments: `go work()` then needs no per-goroutine
	// wrapper closure.
	work := func() {
		wi := int(p.next.Add(1)) - 1
		wctx := sctx
		var ws *obs.Span
		if pool != nil {
			wctx, ws = obs.Start(sctx, fmt.Sprintf("worker %d", wi))
			ws.SetLane(wi + 1)
		}
		defer func() {
			if r := recover(); r != nil && p.panicked.CompareAndSwap(false, true) {
				p.panicVal = r
			}
			if ws != nil {
				ws.SetAttr("items", p.tallies[wi].items)
				ws.SetAttr("busy_ns", p.tallies[wi].busy)
				ws.End()
			}
			p.wg.Done()
		}()
		for {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			i := int(p.cursor.Add(1)) - 1
			if i >= n || p.panicked.Load() {
				return
			}
			if ws == nil {
				out[i] = fn(wctx, i)
				continue
			}
			t0 := time.Now()
			out[i] = fn(wctx, i)
			p.tallies[wi].busy += int64(time.Since(t0))
			p.tallies[wi].items++
		}
	}
	p.wg.Add(w)
	for range w - 1 {
		go work()
	}
	work()
	p.wg.Wait()
	if pool != nil {
		summarize(pool, n, p.tallies)
	}
	if p.panicked.Load() {
		panic(p.panicVal)
	}
	return out
}

// summarize records the pool's size and worker busy-time spread on its span
// and ends it.
func summarize(pool *obs.Span, n int, tallies []tally) {
	pool.SetAttr("items", n)
	pool.SetAttr("workers", len(tallies))
	var sum, maxBusy int64
	minBusy := tallies[0].busy
	for _, t := range tallies {
		sum += t.busy
		maxBusy = max(maxBusy, t.busy)
		minBusy = min(minBusy, t.busy)
	}
	pool.SetAttr("busy_total_ns", sum)
	pool.SetAttr("busy_max_ns", maxBusy)
	pool.SetAttr("busy_min_ns", minBusy)
	if sum > 0 {
		// 1.0 = perfectly even; w = one worker did everything.
		pool.SetAttr("imbalance", float64(maxBusy)*float64(len(tallies))/float64(sum))
	}
	pool.End()
}
