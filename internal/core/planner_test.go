package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/guest"
	"repro/internal/mesh"
)

// permutationsOf enumerates all axis orders of 0..k-1.
func permutationsOf(k int) [][]int {
	var out [][]int
	perm := make([]int, k)
	used := make([]bool, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for j := 0; j < k; j++ {
			if !used[j] {
				used[j] = true
				perm[i] = j
				rec(i + 1)
				used[j] = false
			}
		}
	}
	rec(0)
	return out
}

func allDistinct(s mesh.Shape) bool {
	seen := map[int]bool{}
	for _, l := range s {
		if seen[l] {
			return false
		}
		seen[l] = true
	}
	return true
}

// TestPlannerDeterministic: planning the same shape twice — in the same
// planner and in a fresh one — yields identical plan trees.
func TestPlannerDeterministic(t *testing.T) {
	shapes := []mesh.Shape{{12, 20}, {3, 21}, {5, 6, 7}, {21, 9, 5}, {6, 11, 7},
		{5, 5, 5}, {2, 3, 4, 5}, {13, 17}}
	for _, s := range shapes {
		pl := NewPlanner(DefaultOptions)
		first := pl.Plan(s)
		again := pl.Plan(s)
		fresh := NewPlanner(DefaultOptions).Plan(s)
		for _, p := range []*Plan{again, fresh} {
			if p.String() != first.String() || p.Dilation != first.Dilation ||
				p.Method != first.Method || p.CubeDim != first.CubeDim {
				t.Errorf("%v: replanning diverged: %s (dil %d) vs %s (dil %d)",
					s, first, first.Dilation, p, p.Dilation)
			}
		}
	}
}

// TestPlannerPermutationInvariant: planning under permuted axis order gives
// the axis-permuted plan tree.  For shapes with all-distinct axis lengths
// the permuted tree must match permutePlan of the base plan exactly; for
// any shape, structural invariants and measured metrics must agree.
func TestPlannerPermutationInvariant(t *testing.T) {
	shapes := []mesh.Shape{{12, 20}, {3, 21}, {5, 6, 7}, {21, 9, 5}, {5, 5, 10}, {2, 3, 4}}
	for _, s := range shapes {
		base := NewPlanner(DefaultOptions).Plan(s)
		baseMetrics := base.Build().Measure()
		for _, perm := range permutationsOf(len(s)) {
			ps := make(mesh.Shape, len(s))
			axmap := make([]int, len(s)) // s-axis j sits at ps position axmap[j]
			for i, j := range perm {
				ps[i] = s[j]
				axmap[j] = i
			}
			got := NewPlanner(DefaultOptions).Plan(ps)
			if got.Dilation != base.Dilation || got.CubeDim != base.CubeDim ||
				got.Kind != base.Kind || got.Method != base.Method {
				t.Errorf("%v perm %v: invariants diverged: got %s (dil %d, method %d), base %s (dil %d, method %d)",
					s, perm, got, got.Dilation, got.Method, base, base.Dilation, base.Method)
				continue
			}
			if allDistinct(s) {
				want := permutePlan(base, axmap)
				want.Method = base.Method
				if got.String() != want.String() {
					t.Errorf("%v perm %v: plan tree %s, want permuted %s", s, perm, got, want)
				}
			}
			e := got.Build()
			if err := e.Verify(); err != nil {
				t.Fatalf("%v perm %v: invalid embedding: %v", s, perm, err)
			}
			// Fine-grained path metrics (congestion, average dilation) may
			// legitimately vary with which table axis a guest axis lands
			// on; the construction guarantees are what must be invariant.
			m := e.Measure()
			if m.CubeDim != baseMetrics.CubeDim || m.Minimal != baseMetrics.Minimal {
				t.Errorf("%v perm %v: cube diverged: %+v vs %+v", s, perm, m, baseMetrics)
			}
			if got.Dilation != DilationUnknown && m.Dilation > got.Dilation {
				t.Errorf("%v perm %v: measured dilation %d exceeds promised %d",
					s, perm, m.Dilation, got.Dilation)
			}
		}
	}
}

// TestCachedMatchesUncachedQuick: property test that cached and
// cache-bypassed planning agree on the plan tree and produce
// metric-identical embeddings across random shapes.
func TestCachedMatchesUncachedQuick(t *testing.T) {
	cached := NewPlanner(DefaultOptions)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := r.Intn(4) + 1
		s := make(mesh.Shape, dims)
		nodes := 1
		for i := range s {
			s[i] = r.Intn(12) + 1
			nodes *= s[i]
		}
		if nodes > 1500 {
			return true // keep the property cheap
		}
		pc := cached.Plan(s)
		pu := NewUncachedPlanner(DefaultOptions).Plan(s)
		if pc.String() != pu.String() || pc.Dilation != pu.Dilation || pc.Method != pu.Method {
			t.Logf("%v: cached %s (dil %d) vs uncached %s (dil %d)",
				s, pc, pc.Dilation, pu, pu.Dilation)
			return false
		}
		ec, eu := pc.Build(), pu.Build()
		if ec.Verify() != nil || eu.Verify() != nil {
			return false
		}
		mc, mu := ec.Measure(), eu.Measure()
		if mc != mu {
			t.Logf("%v: metrics %+v vs %+v", s, mc, mu)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPlannerConcurrentShared drives one shared Planner from many
// goroutines over overlapping shape sets (exercised under -race by the
// Makefile's check target) and cross-checks every plan against a serial
// uncached reference.
func TestPlannerConcurrentShared(t *testing.T) {
	shapes := []mesh.Shape{
		{3, 5}, {5, 3}, {5, 6}, {6, 5}, {12, 20}, {20, 12}, {3, 21}, {21, 3},
		{5, 6, 7}, {7, 6, 5}, {3, 3, 7}, {7, 3, 3}, {2, 3, 4, 5}, {5, 4, 3, 2},
	}
	reference := make(map[string]string, len(shapes))
	for _, s := range shapes {
		reference[s.String()] = NewUncachedPlanner(DefaultOptions).Plan(s).String()
	}
	pl := NewPlanner(DefaultOptions)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range shapes {
				s := shapes[(i+g)%len(shapes)]
				p := pl.Plan(s)
				if got, want := p.String(), reference[s.String()]; got != want {
					t.Errorf("goroutine %d: %v planned %s, want %s", g, s, got, want)
				}
				if err := p.Build().Verify(); err != nil {
					t.Errorf("goroutine %d: %v: %v", g, s, err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := pl.CacheStats()
	if st.Size == 0 || st.Hits == 0 {
		t.Errorf("shared planner cache unused: %+v", st)
	}
}

// TestCacheCounters: permuted replans are pure cache hits.
func TestCacheCounters(t *testing.T) {
	pl := NewPlanner(DefaultOptions)
	if st := pl.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("fresh planner has counters: %+v", st)
	}
	pl.Plan(mesh.Shape{5, 6, 7})
	st1 := pl.CacheStats()
	if st1.Misses == 0 || st1.Size == 0 {
		t.Fatalf("first plan should miss and populate: %+v", st1)
	}
	pl.Plan(mesh.Shape{7, 6, 5})
	st2 := pl.CacheStats()
	if st2.Hits == 0 {
		t.Errorf("permuted replan should hit: %+v", st2)
	}
	if st2.Misses != st1.Misses || st2.Size != st1.Size {
		t.Errorf("permuted replan should add no entries: %+v -> %+v", st1, st2)
	}
	if uncached := NewUncachedPlanner(DefaultOptions); uncached.CacheStats() != (CacheStats{}) {
		t.Error("uncached planner reports cache state")
	}
}

// TestCachePlansEachKeyOnce: goroutines that miss one cold key together
// plan it once — one waits for the other — so every key planned is one
// entry.
func TestCachePlansEachKeyOnce(t *testing.T) {
	for _, c := range []struct {
		fam guest.Family
		s   mesh.Shape
	}{
		{guest.Mesh, mesh.Shape{21, 9, 5}},
		{guest.Mesh, mesh.Shape{23, 9, 5}},
		{guest.Mesh, mesh.Shape{5, 6, 7}},
		{guest.Torus, mesh.Shape{6, 10, 12}},
	} {
		pl := NewPlanner(DefaultOptions)
		const goroutines = 8
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := pl.TryPlanGuest(c.fam, c.s); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if st := pl.CacheStats(); st.Misses != st.Size {
			t.Errorf("%s %v: %d keys planned for %d entries", c.fam, c.s, st.Misses, st.Size)
		}
	}
}

// TestPlanCachePanicReachesWaiters: a panic while planning is re-raised in
// the planner and in every waiter, and leaves neither an entry nor a
// flight behind.
func TestPlanCachePanicReachesWaiters(t *testing.T) {
	c := newPlanCache()
	release := make(chan struct{})
	const waiters = 4
	panics := make(chan any, waiters+1)
	var wg sync.WaitGroup
	getOrPlan := func(plan func() *Plan) {
		defer wg.Done()
		defer func() { panics <- recover() }()
		c.getOrPlan("k", plan)
	}
	wg.Add(1)
	go getOrPlan(func() *Plan { <-release; panic("boom") })
	for c.misses.Load() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go getOrPlan(func() *Plan { t.Error("a waiter planned the key"); return nil })
	}
	for c.hits.Load() < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(panics)
	for r := range panics {
		if r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}
	if len(c.m) != 0 || len(c.flights) != 0 {
		t.Fatalf("after a panic: %d entries, %d flights", len(c.m), len(c.flights))
	}
	want := &Plan{}
	if p := c.getOrPlan("k", func() *Plan { return want }); p != want {
		t.Fatal("the key was not planned again after the panic")
	}
}

// TestBetterTotalOrder: better() is a strict total order — antisymmetric
// on distinct plans regardless of argument order.
func TestBetterTotalOrder(t *testing.T) {
	var plans []*Plan
	for _, s := range []mesh.Shape{{12, 20}, {5, 6}, {3, 21}, {7, 9}} {
		plans = append(plans, PlanShape(s, DefaultOptions))
	}
	for _, a := range plans {
		for _, b := range plans {
			ab, ba := better(a, b), better(b, a)
			if a.String() != b.String() && ab != ba {
				t.Errorf("better not antisymmetric on %s vs %s", a, b)
			}
		}
	}
}

// TestPipelinesRunEveryStrategy: every StrategyID has a stage in some
// pipeline, so search's switch has no dead case and every wire name can
// show up in a trace; and every stage of every pipeline is chosen for some
// mesh shape of the digest domain, so no stage only runs and loses.
func TestPipelinesRunEveryStrategy(t *testing.T) {
	pipelines := []struct {
		name   string
		stages []stage
	}{{"2d", pipeline2D}, {"3d", pipeline3D}, {"highd", pipelineHighD}}
	run := map[StrategyID]bool{}
	for _, pipe := range pipelines {
		for _, st := range pipe.stages {
			run[st.id] = true
		}
	}
	for id := range StrategyID(len(strategyNames)) {
		if !run[id] {
			t.Errorf("no pipeline runs strategy %q", id)
		}
	}
	if len(run) != len(strategyNames) {
		t.Errorf("pipelines run %d strategies, want %d", len(run), len(strategyNames))
	}

	chosen := map[string]int{}
	pl := NewUncachedPlanner(DefaultOptions)
	for _, g := range planDigestDomain() {
		if g.f != guest.Mesh {
			continue
		}
		_, pt, err := pl.PlanTraced(context.Background(), g.s)
		if err != nil {
			t.Fatalf("%v: %v", g.s, err)
		}
		pt.Walk(func(n *PlanTrace) {
			for _, a := range n.Attempts {
				if a.Status == "chosen" {
					chosen[n.Pipeline+"/"+a.Strategy]++
				}
			}
		})
	}
	for _, pipe := range pipelines {
		for _, st := range pipe.stages {
			if chosen[pipe.name+"/"+st.id.String()] == 0 {
				t.Errorf("stage %s/%s is never chosen on the digest domain's meshes", pipe.name, st.id)
			}
		}
	}
}

// TestCanonicalShape: the plan cache's key function, mesh.Shape.SortCanonical,
// sorts the axes and its axmap round-trips shapes through permuteShape.
func TestCanonicalShape(t *testing.T) {
	for _, s := range []mesh.Shape{{5, 3}, {7, 9, 2}, {5, 5, 10}, {1, 4, 1, 3}} {
		canon, axmap := s.SortCanonical()
		for j := 1; j < len(canon); j++ {
			if canon[j-1] > canon[j] {
				t.Fatalf("%v: canonical %v not sorted", s, canon)
			}
		}
		if back := permuteShape(canon, axmap); !back.Equal(s) {
			t.Errorf("%v: permuteShape(SortCanonical) = %v", s, back)
		}
	}
}

// freshGuests draws n distinct guests (by family and canonical shape) from
// a fixed seed, as the benchmark's plan-cold workload draws its guests: 3D,
// axes uniform on 2..96, at most 2^18 nodes, the family uniform over fams.
func freshGuests(fams []guest.Family, n int) []digestGuest {
	rng := rand.New(rand.NewSource(31))
	seen := map[string]bool{}
	var out []digestGuest
	for len(out) < n {
		s := mesh.Shape{2 + rng.Intn(95), 2 + rng.Intn(95), 2 + rng.Intn(95)}
		f := fams[rng.Intn(len(fams))]
		if s.Nodes() > 1<<18 {
			continue
		}
		canon, _ := guest.Get(f).Canonical(s)
		if k := f.String() + "|" + canon.String(); !seen[k] {
			seen[k] = true
			out = append(out, digestGuest{f, s})
		}
	}
	return out
}

// BenchmarkPlanFresh plans a fixed list of guests on a fresh
// NewPlanner(DefaultOptions) and an empty solver table per op, as a cold
// server process does, so every op searches its solver forms once each
// and, for rings, plans and builds the ring bases.  mesh draws meshes;
// ring draws tori and cylinders.  The list sizes keep one op between 0.1
// and 1 s.
func BenchmarkPlanFresh(b *testing.B) {
	for _, c := range []struct {
		name string
		fams []guest.Family
		n    int
	}{
		{"mesh", []guest.Family{guest.Mesh}, 300},
		{"ring", []guest.Family{guest.Torus, guest.Cylinder}, 40},
	} {
		guests := freshGuests(c.fams, c.n)
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				solverPlans = newPlanCache()
				pl := NewPlanner(DefaultOptions)
				for _, g := range guests {
					pl.PlanGuest(g.f, g.s)
				}
			}
		})
	}
}
