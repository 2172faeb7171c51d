package fabric

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/api"
)

// chunkResult fabricates the deterministic result every execution of a chunk
// must return: the record is a pure function of the index.
func chunkResult(chunk int) *api.ChunkResult {
	return &api.ChunkResult{
		Version: api.ChunkSchemaVersion,
		Chunk:   chunk,
		Epsilon: &api.EpsilonRowRecord{Type: api.RecordEpsilonRow, N: chunk + 1},
	}
}

// fakeTransport is a scriptable peer: per-call delay, a per-chunk failure
// predicate, and a health switch.
type fakeTransport struct {
	mu       sync.Mutex
	delay    func(chunk int) time.Duration
	failExec func(chunk int, call int) error
	healthy  error // non-nil: probes fail
	calls    int
}

func (f *fakeTransport) Execute(ctx context.Context, req api.ChunkRequest) (*api.ChunkResult, error) {
	f.mu.Lock()
	f.calls++
	call := f.calls
	delay := time.Duration(0)
	if f.delay != nil {
		delay = f.delay(req.Chunk)
	}
	var fail error
	if f.failExec != nil {
		fail = f.failExec(req.Chunk, call)
	}
	f.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if fail != nil {
		return nil, fail
	}
	return chunkResult(req.Chunk), nil
}

func (f *fakeTransport) Healthy(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.healthy
}

// poolWith builds a pool whose dialer hands out the given transports by
// address, with the health loop off (tests drive CheckPeers directly).
func poolWith(t *testing.T, transports map[string]*fakeTransport, local Transport) *Pool {
	t.Helper()
	p := NewPool(Config{
		Dial: func(addr string) Transport {
			ft, ok := transports[addr]
			if !ok {
				t.Fatalf("dialed unknown address %q", addr)
			}
			return ft
		},
		Local:       local,
		HealthEvery: -1,
	})
	t.Cleanup(p.Close)
	for addr := range transports {
		if err := p.Add(addr); err != nil {
			t.Fatalf("Add(%s): %v", addr, err)
		}
	}
	return p
}

// runDispatch drives a full job and returns the folded chunk order.
func runDispatch(t *testing.T, pool *Pool, total int) []int {
	t.Helper()
	d := NewDispatch(pool, api.JobSubmitRequest{Kind: api.JobCensus}, total)
	d.idleWait = time.Millisecond
	var folded []int
	err := d.Run(context.Background(), 0, func(res *api.ChunkResult) error {
		folded = append(folded, res.Chunk)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return folded
}

// TestDispatchFoldsInOrder: random per-chunk delays force completions to
// arrive wildly out of order across three peers; the fold sequence must
// still be exactly 0,1,2,...  This is the property that makes a distributed
// stream byte-identical to a single-node one.
func TestDispatchFoldsInOrder(t *testing.T) {
	// Pseudo-random but data-race-free: the delay is a pure function of the
	// chunk index, scattering completion order across the window.
	delay := func(chunk int) time.Duration { return time.Duration(chunk*7%5) * time.Millisecond }
	transports := map[string]*fakeTransport{
		"w1": {delay: delay}, "w2": {delay: delay}, "w3": {delay: delay},
	}
	pool := poolWith(t, transports, nil)
	const total = 60
	folded := runDispatch(t, pool, total)
	if len(folded) != total {
		t.Fatalf("folded %d chunks, want %d", len(folded), total)
	}
	for i, c := range folded {
		if c != i {
			t.Fatalf("fold order broken at position %d: got chunk %d", i, c)
		}
	}
	st := pool.Stats()
	if st.Folded != total {
		t.Errorf("Stats.Folded = %d, want %d", st.Folded, total)
	}
	if st.Dispatched < total {
		t.Errorf("Stats.Dispatched = %d, want >= %d", st.Dispatched, total)
	}
}

// TestDispatchRequeuesToSurvivor: one peer dies permanently mid-run (every
// execution after its third fails).  Its chunks must requeue to the
// survivor, every index folded exactly once, in order.
func TestDispatchRequeuesToSurvivor(t *testing.T) {
	boom := errors.New("connection reset")
	transports := map[string]*fakeTransport{
		"dying": {failExec: func(chunk, call int) error {
			if call > 3 {
				return boom
			}
			return nil
		}},
		"survivor": {},
	}
	pool := poolWith(t, transports, nil)
	const total = 24
	folded := runDispatch(t, pool, total)
	for i, c := range folded {
		if c != i {
			t.Fatalf("fold order broken at position %d: got chunk %d (len %d)", i, c, len(folded))
		}
	}
	if len(folded) != total {
		t.Fatalf("folded %d chunks, want %d (duplicates or drops)", len(folded), total)
	}
	st := pool.Stats()
	if st.Requeued == 0 {
		t.Error("no chunks recorded as requeued after a peer death")
	}
	if st.Down != 1 || st.Up != 1 {
		t.Errorf("peer states up=%d down=%d, want 1/1", st.Up, st.Down)
	}
}

// TestDispatchLocalFallback: with every remote peer down from the start, the
// local loopback must carry the whole job — a coordinator with no live
// workers still finishes.
func TestDispatchLocalFallback(t *testing.T) {
	dead := &fakeTransport{failExec: func(int, int) error { return errors.New("refused") }}
	var localRuns atomic.Int64
	local := Loopback(func(ctx context.Context, req api.ChunkRequest) (*api.ChunkResult, error) {
		localRuns.Add(1)
		return chunkResult(req.Chunk), nil
	})
	pool := poolWith(t, map[string]*fakeTransport{"dead": dead}, local)
	const total = 8
	folded := runDispatch(t, pool, total)
	if len(folded) != total {
		t.Fatalf("folded %d chunks, want %d", len(folded), total)
	}
	if localRuns.Load() == 0 {
		t.Error("local loopback never ran despite every remote being down")
	}
}

// TestDispatchFatalOnPoisonChunk: a chunk failing on every peer must fail
// the job after maxAttempts executions, not spin forever.
func TestDispatchFatalOnPoisonChunk(t *testing.T) {
	poison := func(chunk, call int) error {
		if chunk == 3 {
			return errors.New("poison")
		}
		return nil
	}
	transports := map[string]*fakeTransport{
		"w1": {failExec: poison}, "w2": {failExec: poison},
	}
	pool := poolWith(t, transports, nil)
	d := NewDispatch(pool, api.JobSubmitRequest{Kind: api.JobCensus}, 8)
	d.idleWait = time.Millisecond
	// Keep the pool alive: revive peers after each failure demotes them, so
	// the poison chunk gets its full attempt budget.
	stopRevive := make(chan struct{})
	defer close(stopRevive)
	go func() {
		for {
			select {
			case <-stopRevive:
				return
			case <-time.After(time.Millisecond):
				pool.mu.Lock()
				for _, pr := range pool.peers {
					pr.state = api.PeerUp
				}
				pool.mu.Unlock()
			}
		}
	}()
	err := d.Run(context.Background(), 0, func(*api.ChunkResult) error { return nil })
	if err == nil {
		t.Fatal("Run succeeded despite a poison chunk")
	}
}

// TestDispatchDeterministicRejectionFatal: an api.Error with a
// deterministic code (bad_request) must fail the job immediately — retrying
// an invalid spec on another peer cannot change the answer.
func TestDispatchDeterministicRejectionFatal(t *testing.T) {
	reject := &api.Error{Code: api.CodeBadRequest, Message: "no such kind"}
	transports := map[string]*fakeTransport{
		"w1": {failExec: func(int, int) error { return reject }},
	}
	pool := poolWith(t, transports, nil)
	d := NewDispatch(pool, api.JobSubmitRequest{Kind: "nonsense"}, 4)
	d.idleWait = time.Millisecond
	err := d.Run(context.Background(), 0, func(*api.ChunkResult) error { return nil })
	if err == nil || !errors.Is(err, reject) {
		t.Fatalf("Run = %v, want the peer's bad_request error", err)
	}
	if st := pool.Stats(); st.Requeued != 0 {
		t.Errorf("deterministic rejection was requeued %d times", st.Requeued)
	}
}

// TestPoolHealthTransitions: CheckPeers demotes an unhealthy peer and
// revives it when probes succeed again; Add re-dials a known address.
func TestPoolHealthTransitions(t *testing.T) {
	ft := &fakeTransport{}
	pool := poolWith(t, map[string]*fakeTransport{"w1": ft}, nil)
	ctx := context.Background()

	if st := pool.Stats(); st.Up != 1 {
		t.Fatalf("fresh peer not up: %+v", st)
	}
	ft.mu.Lock()
	ft.healthy = errors.New("probe timeout")
	ft.mu.Unlock()
	pool.CheckPeers(ctx)
	if st := pool.Stats(); st.Down != 1 || st.Up != 0 {
		t.Fatalf("after failed probe: up=%d down=%d, want 0/1", st.Up, st.Down)
	}
	ft.mu.Lock()
	ft.healthy = nil
	ft.mu.Unlock()
	pool.CheckPeers(ctx)
	if st := pool.Stats(); st.Up != 1 {
		t.Fatalf("peer not revived: %+v", st)
	}

	if err := pool.Add("w1"); err != nil {
		t.Fatalf("re-Add: %v", err)
	}
	if err := pool.Add(""); err == nil {
		t.Error("Add(\"\") accepted")
	}
	if err := pool.Add(LocalAddr); err == nil {
		t.Error("Add(local) accepted")
	}
}

// TestDispatchCancelled: a cancelled context surfaces ctx.Err() and leaves
// no goroutines wedged (Run's defers drain the exec workers).
func TestDispatchCancelled(t *testing.T) {
	slow := &fakeTransport{delay: func(int) time.Duration { return 50 * time.Millisecond }}
	pool := poolWith(t, map[string]*fakeTransport{"slow": slow}, nil)
	d := NewDispatch(pool, api.JobSubmitRequest{Kind: api.JobCensus}, 100)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := d.Run(ctx, 0, func(*api.ChunkResult) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

// TestProgressAndOwners: the status snapshot groups running chunks by the
// peer that owns them.
func TestProgressAndOwners(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan int, 8)
	local := Loopback(func(ctx context.Context, req api.ChunkRequest) (*api.ChunkResult, error) {
		running <- req.Chunk
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return chunkResult(req.Chunk), nil
	})
	pool := NewPool(Config{Local: local, HealthEvery: -1, InFlightPerPeer: 2})
	t.Cleanup(pool.Close)
	d := NewDispatch(pool, api.JobSubmitRequest{Kind: api.JobCensus}, 4)
	done := make(chan error, 1)
	go func() {
		done <- d.Run(context.Background(), 0, func(*api.ChunkResult) error { return nil })
	}()
	<-running // at least one chunk is executing; pick recorded it before Execute
	fp := d.Progress()
	found := false
	for _, p := range fp.Peers {
		if p.Addr == LocalAddr && len(p.InFlight) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("Progress does not show the local peer's in-flight chunks: %+v", fp)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
