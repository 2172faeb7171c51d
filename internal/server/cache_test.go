package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func entry() *cachedResult { return &cachedResult{} }

// value returns a compute that yields v as a fresh computation.
func value(v *cachedResult) func(context.Context) (*cachedResult, string, error) {
	return func(context.Context) (*cachedResult, string, error) { return v, "computed", nil }
}

// mustDo is do with a background context; it fails the test on an error.
func mustDo(t *testing.T, c *resultCache, key string, compute func(context.Context) (*cachedResult, string, error)) (*cachedResult, string) {
	t.Helper()
	v, src, err := c.do(context.Background(), key, compute)
	if err != nil {
		t.Fatalf("do(%q): %v", key, err)
	}
	return v, src
}

func TestLRUEvictsOldest(t *testing.T) {
	c := newResultCache(2)
	a, b, d := entry(), entry(), entry()
	mustDo(t, c, "a", value(a))
	mustDo(t, c, "b", value(b))
	if v, src := mustDo(t, c, "a", value(entry())); v != a || src != "cache" { // touch a: b becomes oldest
		t.Fatalf("a: %q", src)
	}
	mustDo(t, c, "d", value(d))
	if v, src := mustDo(t, c, "a", value(entry())); v != a || src != "cache" {
		t.Fatalf("a lost: %q", src)
	}
	if v, src := mustDo(t, c, "d", value(entry())); v != d || src != "cache" {
		t.Fatalf("d lost: %q", src)
	}
	st := c.stats()
	if st.Hits != 3 || st.Misses != 3 || st.Evictions != 1 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats: %+v", st)
	}
	b2 := entry()
	if v, src := mustDo(t, c, "b", value(b2)); v != b2 || src != "computed" {
		t.Fatalf("b should have been evicted and recomputed: %q", src)
	}
	if st := c.stats(); st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats after recompute: %+v", st)
	}
}

// waitSignal is a context whose Done call reports that do has reached its
// wait: do consults ctx.Done only after it has found or registered the
// key's flight, so a herd whose every member has signalled is one whose
// every member waits on one flight.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (w *waitSignal) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

type result struct {
	v   *cachedResult
	src string
	err error
}

// herd runs n concurrent do calls of key, holding the first one's compute
// until all n wait on it; a second computation fails the test.
func herd(t *testing.T, c *resultCache, key string, n int, compute func(context.Context) (*cachedResult, string, error)) []result {
	t.Helper()
	release := make(chan struct{})
	var computes sync.WaitGroup
	computes.Add(1)
	first := func(ctx context.Context) (*cachedResult, string, error) {
		defer computes.Done()
		<-release
		return compute(ctx)
	}
	second := func(context.Context) (*cachedResult, string, error) {
		t.Error("a second computation of one key started")
		return nil, "", errors.New("second computation")
	}
	out := make([]result, n)
	var wg sync.WaitGroup
	for i := range out {
		ctx := &waitSignal{Context: context.Background(), waiting: make(chan struct{})}
		fn := second
		if i == 0 {
			fn = first
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &out[i]
			r.v, r.src, r.err = c.do(ctx, key, fn)
		}(i)
		<-ctx.waiting // the first call registers the flight before the rest join it
	}
	close(release)
	wg.Wait()
	computes.Wait()
	return out
}

// herdIsOneMiss runs a herd of 8 on one key of a fresh cache and checks
// that it computed once and every waiter got the value.
func herdIsOneMiss(t *testing.T, capacity int) *resultCache {
	t.Helper()
	c := newResultCache(capacity)
	want := entry()
	const n = 8
	for i, r := range herd(t, c, "k", n, value(want)) {
		wantSrc := "coalesced"
		if i == 0 {
			wantSrc = "computed"
		}
		if r.err != nil || r.v != want || r.src != wantSrc {
			t.Fatalf("capacity %d, waiter %d: %+v, want source %q", capacity, i, r, wantSrc)
		}
	}
	if st := c.stats(); st.Misses != 1 || st.Coalesced != n-1 || st.Hits != 0 {
		t.Fatalf("capacity %d: stats %+v", capacity, st)
	}
	return c
}

// TestLRUDisabled: a capacity below one keeps nothing, but a herd on one
// key is still one computation.
func TestLRUDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := herdIsOneMiss(t, capacity)
		if st := c.stats(); st.Size != 0 {
			t.Fatalf("capacity %d kept %d entries", capacity, st.Size)
		}
		if _, src := mustDo(t, c, "k", value(entry())); src != "computed" {
			t.Fatalf("capacity %d: second lookup %q, want computed", capacity, src)
		}
	}
}

// TestLRUMissCounting: misses count computations started — a herd is one —
// while hits and joined waits start none and count no miss; a follower
// that gives up still counts as coalesced, so every call counts once.
func TestLRUMissCounting(t *testing.T) {
	herdIsOneMiss(t, 4)
	c := newResultCache(4)
	mustDo(t, c, "a", value(entry()))
	if _, src := mustDo(t, c, "a", value(entry())); src != "cache" {
		t.Fatalf("second lookup: %q", src)
	}
	release := make(chan struct{})
	blocked := func(context.Context) (*cachedResult, string, error) {
		<-release
		return entry(), "computed", nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A cancelled caller still registers the flight, which runs on.
	if _, _, err := c.do(ctx, "b", blocked); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader: %v", err)
	}
	if _, _, err := c.do(ctx, "b", value(entry())); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower: %v", err)
	}
	if st := c.stats(); st.Misses != 2 || st.Hits != 1 || st.Coalesced != 1 {
		t.Fatalf("stats: %+v", st)
	}
	close(release)
	// Joins the flight or, once it has settled, hits it.
	if _, src := mustDo(t, c, "b", value(entry())); src != "coalesced" && src != "cache" {
		t.Fatalf("after release: %q", src)
	}
	st := c.stats()
	if st.Misses != 2 || st.Hits+st.Coalesced != 3 {
		t.Fatalf("stats: %+v", st)
	}
	if calls := uint64(5); st.Hits+st.Misses+st.Coalesced != calls {
		t.Fatalf("hits+misses+coalesced = %d, want one per call (%d): %+v", st.Hits+st.Misses+st.Coalesced, calls, st)
	}
}

func TestErrorReachesEveryWaiterUncached(t *testing.T) {
	c := newResultCache(4)
	boom := errors.New("boom")
	res := herd(t, c, "k", 8, func(context.Context) (*cachedResult, string, error) { return nil, "", boom })
	for i, r := range res {
		if !errors.Is(r.err, boom) || r.v != nil {
			t.Fatalf("waiter %d: %+v", i, r)
		}
	}
	if st := c.stats(); st.Size != 0 || st.Coalesced != 7 {
		t.Fatalf("error cached: %+v", st)
	}
	if _, src := mustDo(t, c, "k", value(entry())); src != "computed" {
		t.Fatalf("after an error: %q, want computed", src)
	}
}

func TestPanicReachesEveryWaiter(t *testing.T) {
	c := newResultCache(4)
	res := herd(t, c, "k", 8, func(context.Context) (*cachedResult, string, error) { panic("boom") })
	for i, r := range res {
		if r.err == nil || !strings.Contains(r.err.Error(), "embedserver: compute panicked: boom") {
			t.Fatalf("waiter %d: %+v", i, r)
		}
	}
	c.mu.Lock()
	left := len(c.flights)
	c.mu.Unlock()
	if st := c.stats(); left != 0 || st.Size != 0 {
		t.Fatalf("after a panic: %d flights, stats %+v", left, st)
	}
	if _, src := mustDo(t, c, "k", value(entry())); src != "computed" {
		t.Fatalf("after a panic: %q, want computed", src)
	}
}
