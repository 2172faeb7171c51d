package fabric

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/api"
)

// LocalAddr is the pseudo-address of the coordinator's own in-process
// loopback transport in peer listings.
const LocalAddr = "local"

// healthTimeout bounds one liveness probe.
const healthTimeout = 2 * time.Second

// Config configures a Pool.
type Config struct {
	// Dial produces transports for remote peer addresses.  Required when
	// any remote peer is added.
	Dial Dialer
	// Local, when set, is an in-process transport the dispatcher falls back
	// to while no remote peer is up — a coordinator that loses every worker
	// keeps making progress (byte-identically) instead of stalling.
	Local Transport
	// InFlightPerPeer bounds concurrently executing chunks per peer
	// (default 2).
	InFlightPerPeer int
	// HealthEvery is the background health-probe period (default 5s).
	// Negative disables the loop — tests drive CheckPeers directly.
	HealthEvery time.Duration
	Logger      *slog.Logger
}

// peer is one transport plus its dispatch bookkeeping.  All mutable fields
// are guarded by the owning Pool's mu.
type peer struct {
	addr  string
	t     Transport
	local bool

	state      api.PeerState
	inflight   int
	dispatched uint64
	requeued   uint64
	failed     uint64
	lastErr    string
}

// Pool is the coordinator's set of fabric peers: remote workers added via
// -peers / -join, plus an optional local loopback.  It owns peer health
// (background probes revive down peers and detect dead ones) and the
// process-wide fabric counters exported on /metrics.  Safe for concurrent
// use; one Pool serves every distributed job on the server.
type Pool struct {
	cfg Config
	log *slog.Logger

	mu    sync.Mutex
	peers map[string]*peer
	order []string // remote peers, join order

	dispatched atomic.Uint64
	requeued   atomic.Uint64
	folded     atomic.Uint64

	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// Stats is the pool's /metrics snapshot.
type Stats struct {
	// Up / Down count remote peers by health state (the local loopback is
	// excluded — it is always up).
	Up, Down int
	// Dispatched / Requeued / Folded are process-wide chunk counters:
	// executions started, chunks re-dispatched after a peer failure, and
	// chunk results folded into job streams.
	Dispatched, Requeued, Folded uint64
	// Peers is the full per-peer status (including the local loopback).
	Peers []api.PeerStatus
}

// NewPool builds a pool and starts its health loop (unless disabled).
func NewPool(cfg Config) *Pool {
	if cfg.InFlightPerPeer <= 0 {
		cfg.InFlightPerPeer = 2
	}
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	p := &Pool{
		cfg:   cfg,
		log:   cfg.Logger,
		peers: make(map[string]*peer),
		stop:  make(chan struct{}),
	}
	if cfg.Local != nil {
		p.peers[LocalAddr] = &peer{addr: LocalAddr, t: cfg.Local, local: true, state: api.PeerUp}
	}
	if cfg.HealthEvery > 0 {
		p.wg.Add(1)
		go p.healthLoop()
	}
	return p
}

// Add registers (or re-dials) a remote peer address.  A re-added address
// gets a fresh transport and is optimistically marked up — this is how a
// restarted worker rejoins via -join; the health loop demotes it again if
// it is in fact unreachable.
func (p *Pool) Add(addr string) error {
	if addr == "" || addr == LocalAddr {
		return fmt.Errorf("fabric: invalid peer address %q", addr)
	}
	if p.cfg.Dial == nil {
		return fmt.Errorf("fabric: pool has no dialer")
	}
	t := p.cfg.Dial(addr)
	p.mu.Lock()
	defer p.mu.Unlock()
	if pr, ok := p.peers[addr]; ok {
		pr.t = t
		pr.state = api.PeerUp
		pr.lastErr = ""
		p.log.Info("fabric: peer rejoined", "peer", addr)
		return nil
	}
	p.peers[addr] = &peer{addr: addr, t: t, state: api.PeerUp}
	p.order = append(p.order, addr)
	p.log.Info("fabric: peer added", "peer", addr)
	return nil
}

// Close stops the health loop.  In-flight dispatches are unaffected (their
// jobs own their contexts).
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
}

func (p *Pool) healthLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.CheckPeers(context.Background())
		}
	}
}

// CheckPeers probes every remote peer once, demoting unreachable peers and
// reviving recovered ones.  The health loop calls it periodically; tests
// call it directly.
func (p *Pool) CheckPeers(ctx context.Context) {
	p.mu.Lock()
	probes := make([]*peer, 0, len(p.order))
	for _, addr := range p.order {
		probes = append(probes, p.peers[addr])
	}
	p.mu.Unlock()
	for _, pr := range probes {
		pctx, cancel := context.WithTimeout(ctx, healthTimeout)
		err := pr.t.Healthy(pctx)
		cancel()
		p.mu.Lock()
		switch {
		case err != nil && pr.state == api.PeerUp:
			pr.state = api.PeerDown
			pr.lastErr = err.Error()
			p.log.Warn("fabric: peer down", "peer", pr.addr, "err", err)
		case err == nil && pr.state == api.PeerDown:
			pr.state = api.PeerUp
			pr.lastErr = ""
			p.log.Info("fabric: peer recovered", "peer", pr.addr)
		}
		p.mu.Unlock()
	}
}

// Peers snapshots every peer's status: remote peers in join order, then
// the local loopback.
func (p *Pool) Peers() []api.PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]api.PeerStatus, 0, len(p.peers))
	for _, addr := range p.order {
		out = append(out, p.peers[addr].status())
	}
	if lp, ok := p.peers[LocalAddr]; ok {
		out = append(out, lp.status())
	}
	return out
}

func (pr *peer) status() api.PeerStatus {
	return api.PeerStatus{
		Addr:       pr.addr,
		State:      pr.state,
		InFlight:   pr.inflight,
		Dispatched: pr.dispatched,
		Requeued:   pr.requeued,
		Failed:     pr.failed,
		LastError:  pr.lastErr,
	}
}

// Stats snapshots the pool for /metrics.
func (p *Pool) Stats() Stats {
	st := Stats{
		Dispatched: p.dispatched.Load(),
		Requeued:   p.requeued.Load(),
		Folded:     p.folded.Load(),
		Peers:      p.Peers(),
	}
	for _, ps := range st.Peers {
		if ps.Addr == LocalAddr {
			continue
		}
		if ps.State == api.PeerUp {
			st.Up++
		} else {
			st.Down++
		}
	}
	return st
}

// acquire claims an execution slot: the least-loaded up remote peer with a
// free slot, or — only while no remote peer is up at all — the local
// loopback.  Returns nil when nothing is available (the dispatcher waits
// for a completion or a revival).
func (p *Pool) acquire() *peer {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *peer
	anyUp := false
	for _, addr := range p.order {
		pr := p.peers[addr]
		if pr.state != api.PeerUp {
			continue
		}
		anyUp = true
		if pr.inflight < p.cfg.InFlightPerPeer && (best == nil || pr.inflight < best.inflight) {
			best = pr
		}
	}
	if best == nil && !anyUp {
		if lp, ok := p.peers[LocalAddr]; ok && lp.inflight < p.cfg.InFlightPerPeer {
			best = lp
		}
	}
	if best != nil {
		best.inflight++
		best.dispatched++
		p.dispatched.Add(1)
	}
	return best
}

// release returns an execution slot.
func (p *Pool) release(pr *peer) {
	p.mu.Lock()
	pr.inflight--
	p.mu.Unlock()
}

// fail records an execution failure on a peer and, for remote peers, marks
// it down so no further chunks land there until a health probe revives it.
func (p *Pool) fail(pr *peer, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pr.failed++
	pr.lastErr = err.Error()
	if !pr.local && pr.state == api.PeerUp {
		pr.state = api.PeerDown
		p.log.Warn("fabric: peer failed, marking down", "peer", pr.addr, "err", err)
	}
}

// noteRequeue counts a chunk taken back from a failed peer.
func (p *Pool) noteRequeue(pr *peer) {
	p.mu.Lock()
	pr.requeued++
	p.mu.Unlock()
	p.requeued.Add(1)
}

// slots reports the total concurrent execution slots currently live, for
// sizing the dispatch window.
func (p *Pool) slots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.order)
	if _, ok := p.peers[LocalAddr]; ok {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n * p.cfg.InFlightPerPeer
}
