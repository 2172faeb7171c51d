package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/embed"
	"repro/internal/mesh"
)

// CacheStats reports plan-cache counters.  Size counts cached entries,
// including negative entries (shapes no structured strategy can plan).
// Misses counts keys planned, each key once, so it equals Size unless a
// planning panicked; Hits counts every other lookup, including one that
// waited for a concurrent planning of its key.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	Size   uint64
}

// planCache memoizes plans under a string key: a Planner's planDispatch
// results keyed by canonical shape and fold context (each Planner owns its
// cache and its options never change, so the options fingerprint is not
// part of the key), and the process's solver searches (solverPlans).
// Stored plans are never
// handed out directly — every lookup returns a deep copy via permutePlan —
// so entries stay immutable and safe to share across goroutines.
//
// Each key is planned once: a miss registers the key as in flight, a
// concurrent lookup of that key waits for it, and the plan is stored and
// the flight removed in one critical section.  Two rules keep the waits
// sound:
//   - Recursion: planning a key never looks up that same key again,
//     directly or through its sub-shapes, or sequential planning would not
//     terminate.  So no chain of waits can form a cycle.
//   - Panics: a panic while planning is re-raised in every waiter after
//     the flight is removed, and nothing is stored.
type planCache struct {
	mu      sync.RWMutex
	m       map[string]*Plan
	flights map[string]*planFlight
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// planFlight is one key being planned; p and panicked are written before
// done is closed and read only after.
type planFlight struct {
	done     chan struct{}
	p        *Plan
	panicked any
}

func newPlanCache() *planCache {
	return &planCache{m: make(map[string]*Plan), flights: make(map[string]*planFlight)}
}

// getOrPlan returns key's plan: the cached one, the one a concurrent
// planning of key produces, or, on a miss, the one plan makes.
func (c *planCache) getOrPlan(key string, plan func() *Plan) *Plan {
	c.mu.RLock()
	p, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return p
	}
	c.mu.Lock()
	p, ok = c.m[key]
	f := c.flights[key]
	if ok || f != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		if ok {
			return p
		}
		<-f.done
		if f.panicked != nil {
			panic(f.panicked)
		}
		return f.p
	}
	f = &planFlight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.misses.Add(1)
	defer func() {
		f.panicked = recover()
		c.mu.Lock()
		delete(c.flights, key)
		if f.panicked == nil {
			c.m[key] = f.p
		}
		c.mu.Unlock()
		close(f.done)
		if f.panicked != nil {
			panic(f.panicked)
		}
	}()
	f.p = plan()
	return f.p
}

func (c *planCache) stats() CacheStats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Size: uint64(n)}
}

// cacheKey builds the lookup key for a canonical shape.  Fold depth is
// clamped to one bit: strategies only distinguish "may still fold" from
// "fold already spent", so deeper recursion shares entries.
func cacheKey(canon mesh.Shape, foldDepth int) string {
	f := "|f0"
	if foldDepth > 0 {
		f = "|f1"
	}
	return canon.String() + f
}

// permuteShape sends canonical axis j back to original position axmap[j].
// Axes beyond len(axmap) — appended by folding below the canonicalization
// point — keep their positions.
func permuteShape(s mesh.Shape, axmap []int) mesh.Shape {
	out := make(mesh.Shape, len(s))
	for j, l := range s {
		if j < len(axmap) {
			out[axmap[j]] = l
		} else {
			out[j] = l
		}
	}
	return out
}

// permutePlan deep-copies a plan tree, remapping every node's axes from
// canonical back to original order.  It always copies, even for the
// identity map, so cached trees are never aliased by callers.
func permutePlan(p *Plan, axmap []int) *Plan {
	if p == nil {
		return nil
	}
	out := *p
	out.Shape = permuteShape(p.Shape, axmap)
	if p.Super != nil {
		out.Super = permuteShape(p.Super, axmap)
	}
	if p.FoldAxis < len(axmap) {
		out.FoldAxis = axmap[p.FoldAxis]
	}
	if len(p.Factors) > 0 {
		out.Factors = make([]*Plan, len(p.Factors))
		for i, f := range p.Factors {
			out.Factors[i] = permutePlan(f, axmap)
		}
	}
	out.Child = permutePlan(p.Child, axmap)
	if p.solved != nil {
		out.solved = permuteEmbedding(p.solved, axmap)
	}
	return &out
}

// permuteEmbedding rebuilds a solver embedding for the axis-permuted guest:
// node maps transfer through the coordinate relabeling, and route codes
// are re-realized deterministically on the permuted edge order.
func permuteEmbedding(e *embed.Embedding, axmap []int) *embed.Embedding {
	out := e.Relabel(permuteShape(e.Guest, axmap), axmap)
	if e.Routes != nil {
		out.RealizeMinCongestion()
	}
	return out
}

// planCanonical plans via the canonical axis order, through the cache when
// one is attached, and maps the result back to the caller's order.
func (pc *planContext) planCanonical(s mesh.Shape, foldDepth int) *Plan {
	canon, axmap := s.SortCanonical()
	if pc.cache == nil {
		return permutePlan(pc.planDispatch(canon, foldDepth), axmap)
	}
	p := pc.cache.getOrPlan(cacheKey(canon, foldDepth), func() *Plan { return pc.planDispatch(canon, foldDepth) })
	return permutePlan(p, axmap)
}

// Planner runs the strategy pipelines through a canonical-shape plan cache:
// axes are sorted before searching, so all permutations of a shape — and
// every recursive sub-shape the strategies revisit during sweeps — share
// one cache entry.  A Planner is immutable after construction and safe for
// concurrent use.
//
// Unlike PlanShape, a Planner plans in canonical axis order even when the
// cache is bypassed (NewUncachedPlanner), so cached and uncached planning
// agree exactly.
type Planner struct {
	pc *planContext
}

// NewPlanner returns a caching planner with the given options.
func NewPlanner(opts Options) *Planner {
	return &Planner{pc: newPlanContext(opts, newPlanCache(), true)}
}

// NewUncachedPlanner returns a planner with the plan cache disabled but the
// canonicalization identical to NewPlanner — the reference for cache
// equivalence tests and benchmarks.  Its solver searches still go through
// the per-process solver table, as every planner's do.
func NewUncachedPlanner(opts Options) *Planner {
	return &Planner{pc: newPlanContext(opts, nil, true)}
}

// Plan returns a minimal-expansion plan for the shape (see PlanShape).
// The returned tree is exclusively the caller's: cached state is never
// aliased.
func (pl *Planner) Plan(s mesh.Shape) *Plan {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return pl.pc.planTop(s)
}

// TryPlan is Plan returning shape-validation failures as errors instead of
// panicking, for callers planning untrusted input (the HTTP handlers).
func (pl *Planner) TryPlan(s mesh.Shape) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return pl.pc.planTop(s), nil
}

// CacheStats returns the cache counters (zero values when uncached).
func (pl *Planner) CacheStats() CacheStats {
	if pl.pc.cache == nil {
		return CacheStats{}
	}
	return pl.pc.cache.stats()
}

// Fingerprint returns the option fingerprint (solver budget, solver seed,
// preference order) of this planner.  Plan-census artifacts are stamped
// with it so a server can refuse to serve records computed under different
// planner options.
func (pl *Planner) Fingerprint() string { return pl.pc.fp }
