package embed

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"time"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// The fused metrics engine: one traversal of the guest edge set computes
// every edge-derived quantity of Metrics (dilation, average dilation,
// per-axis average dilation, link loads, congestion, average congestion) at
// once, sharded over contiguous guest-node blocks via the internal/sweep
// worker pool.  All tallies are integers and per-worker partial results are
// merged in block order, so every worker count produces bit-identical
// metrics.  The common unpinned-edge case walks the e-cube route bit by bit,
// accumulating cube.LinkIndex directly, and touches no heap at all.

const (
	// parallelEdgeThreshold is the guest edge count below which implicit
	// metric calls run the fused pass on the caller's goroutine: for small
	// meshes worker startup and per-worker load vectors would dominate.
	parallelEdgeThreshold = 1 << 14

	// denseNodeLimit bounds the dense []int32 tables (size 2^N) used by
	// Verify and LoadFactor; larger cubes fall back to maps.
	denseNodeLimit = 1 << 22
)

// edgeStats holds the integer tallies of a fused pass over (a block of) the
// guest edge set.
type edgeStats struct {
	edges   int64
	dilSum  int64 // Σ edge dilation == Σ realized path length == Σ loads
	maxDil  int
	axisSum []int64 // per guest axis, for AxisAvgDilation
	axisCnt []int64
	loads   []int32 // per cube.LinkIndex; nil when loads were not requested
}

func newEdgeStats(axes int, wantLoads bool, numLinks int) edgeStats {
	st := edgeStats{axisSum: make([]int64, axes), axisCnt: make([]int64, axes)}
	if wantLoads {
		st.loads = make([]int32, numLinks)
	}
	return st
}

// merge folds part into st; all tallies are order-independent integers.
func (st *edgeStats) merge(part edgeStats) {
	st.edges += part.edges
	st.dilSum += part.dilSum
	if part.maxDil > st.maxDil {
		st.maxDil = part.maxDil
	}
	for i := range st.axisSum {
		st.axisSum[i] += part.axisSum[i]
		st.axisCnt[i] += part.axisCnt[i]
	}
	for i := range st.loads {
		st.loads[i] += part.loads[i]
	}
}

// autoWorkers picks the worker count for implicit metric calls: serial for
// small edge sets, GOMAXPROCS for large ones.
func (e *Embedding) autoWorkers() int {
	if e.NumGuestEdges() < parallelEdgeThreshold {
		return 1
	}
	return 0
}

// fusedPass runs the fused edge traversal.  workers < 1 selects the
// automatic policy; an explicit count is honored as-is (the result is
// identical either way).  wantLoads controls whether the per-link load
// vector is accumulated — dilation-only callers skip it.
//
// When ctx carries an active obs span the pass runs under a "fused-pass"
// child span with one "shard N" span per node block (nested under the sweep
// worker that processed it).  When it does not — the hot path — the only
// extra cost is one atomic load plus a context lookup, and the traversal
// runs the exact same closure over sweep.Map as before, so allocation
// counts are unchanged.
func (e *Embedding) fusedPass(ctx context.Context, workers int, wantLoads bool) edgeStats {
	if workers < 1 {
		workers = e.autoWorkers()
	}
	w := sweep.Workers(workers)
	nodes := e.Guest.Nodes()
	if w > nodes {
		w = nodes
	}
	axes := e.Guest.Dims()
	numLinks := cube.NumLinks(e.N)
	sctx, span := obs.Start(ctx, "fused-pass")
	if span == nil {
		if w == 1 {
			st := newEdgeStats(axes, wantLoads, numLinks)
			e.scanBlock(0, nodes, &st)
			return st
		}
		// One contiguous node block per worker; block b generates the edges
		// of nodes [b·nodes/w, (b+1)·nodes/w), so the blocks partition the
		// edge set (see mesh.EachEdgeRange).
		parts := sweep.Map(w, w, func(b int) edgeStats {
			st := newEdgeStats(axes, wantLoads, numLinks)
			e.scanBlock(b*nodes/w, (b+1)*nodes/w, &st)
			return st
		})
		acc := parts[0]
		for _, part := range parts[1:] {
			acc.merge(part)
		}
		return acc
	}
	defer span.End()
	span.SetAttr("shards", w)
	span.SetAttr("want_loads", wantLoads)
	if w == 1 {
		st := newEdgeStats(axes, wantLoads, numLinks)
		t0 := time.Now()
		e.scanBlock(0, nodes, &st)
		span.SetAttr("scan_ns", time.Since(t0).Nanoseconds())
		span.SetAttr("edges", st.edges)
		return st
	}
	parts := sweep.MapCtx(sctx, w, w, func(wctx context.Context, b int) edgeStats {
		lo, hi := b*nodes/w, (b+1)*nodes/w
		_, sp := obs.Start(wctx, fmt.Sprintf("shard %d", b))
		sp.SetAttr("nodes_lo", lo)
		sp.SetAttr("nodes_hi", hi)
		st := newEdgeStats(axes, wantLoads, numLinks)
		e.scanBlock(lo, hi, &st)
		sp.SetAttr("edges", st.edges)
		sp.End()
		return st
	})
	acc := parts[0]
	for _, part := range parts[1:] {
		acc.merge(part)
	}
	span.SetAttr("edges", acc.edges)
	return acc
}

// scanBlock tallies the edges generated by guest nodes [lo, hi) into st.
//
// The tally is one closure handed to a statically known enumerator — the
// shared grid enumeration for every grid family, the heap-order walk for
// the tree — so escape analysis keeps it on the stack; an indirect call
// through the registry's EachEdgeRange would move it to the heap.  A family
// that is neither needs its own static arm here.
func (e *Embedding) scanBlock(lo, hi int, st *edgeStats) {
	n := e.N
	visit := func(ed mesh.Edge) {
		var d int
		var pinned cube.Path
		ok := false
		if e.Paths != nil {
			pinned, ok = e.Paths[Key(ed.U, ed.V)]
		}
		if ok {
			d = pinned.Len()
			if st.loads != nil {
				for i := 1; i < len(pinned); i++ {
					st.loads[cube.LinkIndex(cube.LinkBetween(pinned[i-1], pinned[i]), n)]++
				}
			}
		} else {
			cur := uint64(e.Map[ed.U])
			diff := cur ^ uint64(e.Map[ed.V])
			d = mathbits.OnesCount64(diff)
			if st.loads != nil {
				// Walk the e-cube route bit by bit: each differing bit is
				// one link, whose lower endpoint is cur with that bit
				// cleared.  No path or link values are materialized.
				for diff != 0 {
					bit := diff & -diff
					l := cube.Link{Lo: cube.Node(cur &^ bit), Dim: mathbits.TrailingZeros64(bit)}
					st.loads[cube.LinkIndex(l, n)]++
					cur ^= bit
					diff ^= bit
				}
			}
		}
		st.edges++
		st.dilSum += int64(d)
		if d > st.maxDil {
			st.maxDil = d
		}
		st.axisSum[ed.Axis] += int64(d)
		st.axisCnt[ed.Axis]++
	}
	switch d := guest.Get(e.Family); {
	case d.Grid:
		e.Guest.EachEdgeRange(d.Wrap, lo, hi, visit)
	case e.Family == guest.Tree:
		e.Guest.EachTreeEdgeRange(lo, hi, visit)
	default:
		panic("embed: no fused edge enumeration for guest family " + e.Family.String())
	}
}

// MeasureParallel computes all metrics with an explicit worker count
// (< 1 means the automatic policy of Measure).  Because the fused pass
// accumulates integers and merges per-worker partials in block order, the
// result is bit-identical for every worker count.
func (e *Embedding) MeasureParallel(workers int) Metrics {
	return e.MeasureParallelCtx(context.Background(), workers)
}

// MeasureParallelCtx is MeasureParallel with observability: when ctx carries
// an active obs span the whole computation runs under a "measure" child span
// whose subtree records the fused pass, its sweep workers and per-shard
// timings.  Metrics are bit-identical to MeasureParallel's either way.
func (e *Embedding) MeasureParallelCtx(ctx context.Context, workers int) Metrics {
	mctx, span := obs.Start(ctx, "measure")
	st := e.fusedPass(mctx, workers, true)
	m := Metrics{
		Guest:      e.Guest.String(),
		Family:     e.Family.String(),
		Wrap:       e.Family == guest.Torus,
		CubeDim:    e.N,
		Expansion:  e.Expansion(),
		Minimal:    e.Minimal(),
		Dilation:   st.maxDil,
		Wirelength: st.dilSum,
		LoadFactor: e.LoadFactor(),
	}
	if st.edges > 0 {
		m.AvgDilation = float64(st.dilSum) / float64(st.edges)
	}
	for _, c := range st.loads {
		if int(c) > m.Congestion {
			m.Congestion = int(c)
		}
	}
	if len(st.loads) > 0 {
		// Every realized path of length d crosses exactly d links, so the
		// total load is the dilation sum.
		m.AvgCongestion = float64(st.dilSum) / float64(len(st.loads))
	}
	if span != nil {
		span.SetAttr("guest", m.Guest)
		span.SetAttr("cube_dim", m.CubeDim)
		span.SetAttr("edges", st.edges)
		span.End()
	}
	return m
}
