package embed

import (
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// referenceMeasure recomputes Metrics the way the pre-fusion implementation
// did: paths materialized per edge from their route codes, the edge set
// enumerated through package guest.  It is the oracle the fused engine must
// match bit for bit; the guest edge sets are themselves checked against
// independent product-graph constructions by the guest conformance suite.
func referenceMeasure(e *Embedding) Metrics {
	edges := 0
	dilSum := 0
	maxDil := 0
	loads := make([]int, cube.NumLinks(e.N))
	visit := func(ed mesh.Edge) {
		var code uint8
		if e.Routes != nil {
			code = e.Routes[slot(ed, e.Guest.Dims(), e.Family == guest.Tree)]
		}
		p := routeInto(nil, e.Map[ed.U], e.Map[ed.V], code)
		d := p.Len()
		edges++
		dilSum += d
		if d > maxDil {
			maxDil = d
		}
		for _, l := range p.Links() {
			loads[cube.LinkIndex(l, e.N)]++
		}
	}
	e.eachGuestEdge(visit)
	m := Metrics{
		Guest:      e.Guest.String(),
		Family:     e.Family.String(),
		Wrap:       e.Family == guest.Torus,
		CubeDim:    e.N,
		Expansion:  e.Expansion(),
		Minimal:    e.Minimal(),
		Dilation:   maxDil,
		Wirelength: int64(dilSum),
	}
	if edges > 0 {
		m.AvgDilation = float64(dilSum) / float64(edges)
	}
	sum := 0
	for _, c := range loads {
		if c > m.Congestion {
			m.Congestion = c
		}
		sum += c
	}
	if len(loads) > 0 {
		m.AvgCongestion = float64(sum) / float64(len(loads))
	}
	counts := make(map[cube.Node]int)
	for _, h := range e.Map {
		counts[h]++
		if counts[h] > m.LoadFactor {
			m.LoadFactor = counts[h]
		}
	}
	return m
}

// metricsTestEmbeddings builds a grid of embeddings covering the engine's
// branches: Gray meshes of several arities, wraparound guests, and
// pinned-path embeddings from RealizeMinCongestion.
func metricsTestEmbeddings() map[string]*Embedding {
	out := map[string]*Embedding{
		"gray-17":      Gray(mesh.Shape{17}),
		"gray-3x5":     Gray(mesh.Shape{3, 5}),
		"gray-5x6x7":   Gray(mesh.Shape{5, 6, 7}),
		"gray-2x3x4x5": Gray(mesh.Shape{2, 3, 4, 5}),
		"gray-16x16":   Gray(mesh.Shape{16, 16}),
		"identity":     Identity(),
		"pinned":       benchPinned(),
	}
	torus := Gray(mesh.Shape{6, 10})
	torus.Family = guest.Torus
	out["torus-6x10"] = torus
	ring := GrayRing(8)
	out["ring-8"] = ring
	scrambledTorus := Gray(mesh.Shape{5, 7})
	scrambledTorus.Family = guest.Torus
	scrambledTorus.RealizeMinCongestion()
	out["torus-5x7-pinned"] = scrambledTorus
	cyl := Gray(mesh.Shape{3, 4, 8})
	cyl.Family = guest.Cylinder
	out["cylinder-3x4x8"] = cyl
	out["tree-31"] = TreeInorder(mesh.Shape{31})
	return out
}

func TestFusedMatchesReference(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		want := referenceMeasure(e)
		if got := e.Measure(); got != want {
			t.Errorf("%s: fused %v != reference %v", name, got, want)
		}
	}
}

func TestMeasureParallelEquivalence(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		want := e.MeasureParallel(1)
		for _, w := range []int{2, 4, 8} {
			if got := e.MeasureParallel(w); got != want {
				t.Errorf("%s: workers=%d gives %v, serial gives %v", name, w, got, want)
			}
		}
	}
}

// TestMeasureParallelLargeMesh forces the parallel path (the 24x24x24 Gray
// mesh has ~40k edges, above parallelEdgeThreshold) and checks it against
// the serial reference.
func TestMeasureParallelLargeMesh(t *testing.T) {
	e := Gray(mesh.Shape{24, 24, 24})
	if e.NumGuestEdges() < parallelEdgeThreshold {
		t.Fatal("test mesh too small to exercise the parallel path")
	}
	want := e.MeasureParallel(1)
	for _, w := range []int{2, 4, 8} {
		if got := e.MeasureParallel(w); got != want {
			t.Errorf("workers=%d gives %v, serial gives %v", w, got, want)
		}
	}
	if got := e.Measure(); got != want {
		t.Errorf("auto workers give %v, serial gives %v", got, want)
	}
}

// TestMeasureAllocs is the allocation gate of the untraced fused pass: a
// serial Measure and a two-worker MeasureParallel above
// parallelEdgeThreshold must stay within their allocation budgets, which
// do not grow with the mesh (DESIGN §4d).  testing.AllocsPerRun pins
// GOMAXPROCS to 1, so the parallel case names its worker count.
func TestMeasureAllocs(t *testing.T) {
	serial := Gray(mesh.Shape{16, 16, 16})
	pinned := benchPinned()
	parallel := Gray(mesh.Shape{24, 24, 24})
	if parallel.NumGuestEdges() < parallelEdgeThreshold {
		t.Fatal("parallel case below the parallel threshold")
	}
	for _, c := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"16x16x16 Measure", 8, func() { serial.Measure() }},
		{"3x5x17 pinned Measure", 8, func() { pinned.Measure() }},
		{"24x24x24 MeasureParallel(2)", 17, func() { parallel.MeasureParallel(2) }},
	} {
		if got := testing.AllocsPerRun(20, c.run); got > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, got, c.budget)
		}
	}
}

// TestPerMetricWrappersMatchMeasure pins the thin-wrapper contract: each
// legacy per-metric method must agree with the fused Measure.
func TestPerMetricWrappersMatchMeasure(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		m := e.Measure()
		if d := e.Dilation(); d != m.Dilation {
			t.Errorf("%s: Dilation %d != %d", name, d, m.Dilation)
		}
		if d := e.AvgDilation(); d != m.AvgDilation {
			t.Errorf("%s: AvgDilation %v != %v", name, d, m.AvgDilation)
		}
		if c := e.Congestion(); c != m.Congestion {
			t.Errorf("%s: Congestion %d != %d", name, c, m.Congestion)
		}
		if l := e.LoadFactor(); l != m.LoadFactor {
			t.Errorf("%s: LoadFactor %d != %d", name, l, m.LoadFactor)
		}
	}
}

// TestLinkLoadsMatchesCongestion checks LinkLoads against Congestion and
// the total-load == dilation-sum identity the engine relies on.
func TestLinkLoadsMatchesCongestion(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		loads := e.LinkLoads()
		max, sum := 0, 0
		for _, c := range loads {
			if c > max {
				max = c
			}
			sum += c
		}
		if max != e.Congestion() {
			t.Errorf("%s: max load %d != congestion %d", name, max, e.Congestion())
		}
		if nl := cube.NumLinks(e.N); nl > 0 {
			if avg := float64(sum) / float64(nl); avg != e.Measure().AvgCongestion {
				t.Errorf("%s: avg load %v != avg congestion %v", name, avg, e.Measure().AvgCongestion)
			}
		}
	}
}

// TestAxisAvgDilationFused checks the per-axis tallies against the direct
// per-axis recomputation, including out-of-range axes.
func TestAxisAvgDilationFused(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		for axis := 0; axis < e.Guest.Dims(); axis++ {
			sum, cnt := 0, 0
			e.eachGuestEdge(func(ed mesh.Edge) {
				if ed.Axis == axis {
					sum += cube.Dist(e.Map[ed.U], e.Map[ed.V])
					cnt++
				}
			})
			want := 0.0
			if cnt > 0 {
				want = float64(sum) / float64(cnt)
			}
			if got := e.AxisAvgDilation(axis); got != want {
				t.Errorf("%s axis %d: %v != %v", name, axis, got, want)
			}
		}
		if got := e.AxisAvgDilation(e.Guest.Dims() + 3); got != 0 {
			t.Errorf("%s: out-of-range axis gave %v", name, got)
		}
		if got := e.AxisAvgDilation(-1); got != 0 {
			t.Errorf("%s: negative axis gave %v", name, got)
		}
	}
}

// TestConcurrentMeasureSharedEmbedding hammers one shared Embedding (with
// route codes, so concurrent reads of them are exercised) from many
// goroutines; run under -race via the Makefile race target.
func TestConcurrentMeasureSharedEmbedding(t *testing.T) {
	e := benchPinned()
	want := e.Measure()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := e.MeasureParallel(w%4 + 1); got != want {
					t.Errorf("concurrent measure diverged: %v != %v", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDenseVerifyMatchesMap checks that the dense injectivity check accepts
// and rejects exactly like the map fallback.
func TestDenseVerifyMatchesMap(t *testing.T) {
	e := Gray(mesh.Shape{5, 6, 7})
	if e.HostNodes() > denseNodeLimit {
		t.Fatal("expected dense path")
	}
	if err := e.Verify(); err != nil {
		t.Errorf("valid embedding rejected: %v", err)
	}
	e.Map[17] = e.Map[3] // introduce a collision
	if err := e.Verify(); err == nil {
		t.Error("dense check missed a collision")
	}
}

func TestLoadFactorDenseAndInvalidImages(t *testing.T) {
	e := New(mesh.Shape{3, 3}, 2)
	for i := range e.Map {
		e.Map[i] = cube.Node(i % 3)
	}
	if got := e.LoadFactor(); got != 3 {
		t.Errorf("load = %d, want 3", got)
	}
	// An out-of-cube image must not panic the dense counter.
	e.Map[0] = cube.Node(1 << 30)
	if got := e.LoadFactor(); got != 3 {
		t.Errorf("load with stray image = %d, want 3", got)
	}
}
