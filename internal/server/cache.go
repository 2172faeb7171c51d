package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// ResultCacheStats reports the result cache's counters.  Hits counts LRU
// hits; Misses counts computations started (a thundering herd on one key is
// one miss), so Misses is exactly the number of plan+build+measure runs;
// Coalesced counts requests that joined another request's computation,
// whether or not their wait got a value.  Every request counts in exactly
// one of the three, so Hits + Misses + Coalesced is the number of requests
// that reached the cache.
type ResultCacheStats struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Evictions uint64
	Size      int
	Capacity  int
}

// resultCache is L0: one table of the fully-measured results keyed by
// canonical shape + options (see the handlers' keys), holding both the
// settled results, a bounded LRU, and the computations in flight, under one
// mutex.  A key is in at most one of the two: a miss registers its flight in
// the critical section that found no entry, and a finished computation
// enters the LRU and leaves the flight table in one critical section, so no
// key is ever computed twice at once and a settled key is never recomputed
// while it is cached.  Entries are immutable after insertion, so a returned
// value may be shared by any number of concurrent readers.
type resultCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List               // front = most recent
	items     map[string]*list.Element // value: *lruEntry
	flights   map[string]*flight
	hits      uint64
	misses    uint64
	coalesced uint64
	evictions uint64
}

type lruEntry struct {
	key string
	val *cachedResult
}

// flight is one computation in progress; val, source and err are written
// before done is closed and read only after.
type flight struct {
	done   chan struct{}
	val    *cachedResult
	source string
	err    error
}

// newResultCache returns a table keeping at most capacity settled results;
// capacity below one keeps none, though concurrent requests for one key
// still share one computation.
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
}

// do returns key's value and how it was served: "cache" for a settled
// result, "coalesced" for a wait on another request's computation, or the
// source compute reports for a computation this call started.  compute
// runs on its own goroutine, detached from ctx's cancellation, so ctx
// bounds only the wait: a caller that gives up leaves the computation
// running, and its result still lands in the cache for the other waiters
// and for the retry.  A panic in compute becomes every waiter's error;
// errors are not cached.
//
// Under a debug trace the phases appear as cache-lookup, coalesce-wait and
// compute spans; compute keeps the wait span's values, so a leader's trace
// still holds the plan / build / measure subtree.
func (c *resultCache) do(ctx context.Context, key string, compute func(ctx context.Context) (*cachedResult, string, error)) (*cachedResult, string, error) {
	_, lspan := obs.Start(ctx, "cache-lookup")
	c.mu.Lock()
	el, hit := c.items[key]
	var v *cachedResult
	var f *flight
	led := false
	if hit {
		c.hits++
		c.ll.MoveToFront(el)
		v = el.Value.(*lruEntry).val
	} else if f = c.flights[key]; f == nil {
		f = &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.misses++
		led = true
	} else {
		c.coalesced++
	}
	c.mu.Unlock()
	if lspan != nil { // guarded: boxing the attrs must not cost the hot path
		lspan.SetAttr("key", key)
		lspan.SetAttr("hit", hit)
		lspan.End()
	}
	if hit {
		return v, "cache", nil
	}
	wctx, wspan := obs.Start(ctx, "coalesce-wait")
	if led {
		go c.run(context.WithoutCancel(wctx), key, f, compute)
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		wspan.End()
		return nil, "", ctx.Err()
	}
	wspan.End()
	switch {
	case f.err != nil:
		return nil, "", f.err
	case led:
		return f.val, f.source, nil
	}
	return f.val, "coalesced", nil
}

// run computes f's value and settles it: the result enters the LRU (unless
// it is an error) and the flight leaves the table in one critical section.
func (c *resultCache) run(ctx context.Context, key string, f *flight, compute func(ctx context.Context) (*cachedResult, string, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("embedserver: compute panicked: %v", r)
		}
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil && c.capacity > 0 {
			c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: f.val})
			if c.ll.Len() > c.capacity {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.items, oldest.Value.(*lruEntry).key)
				c.evictions++
			}
		}
		c.mu.Unlock()
		close(f.done)
	}()
	cctx, cspan := obs.Start(ctx, "compute")
	cspan.SetAttr("key", key)
	f.val, f.source, f.err = compute(cctx)
	cspan.End()
}

func (c *resultCache) stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}
