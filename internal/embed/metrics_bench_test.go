package embed

import (
	"context"
	"testing"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// benchGray returns the Gray embedding of the shape — the standard large
// unpinned-edge workload (every edge routed e-cube).
func benchGray(s mesh.Shape) *Embedding { return Gray(s) }

// benchFamily is benchGray under another guest family: the same map, with
// the edge set (and therefore the fused traversal) reinterpreted — the
// wraparound families add their wrap edges on top of the mesh edges.
func benchFamily(s mesh.Shape, f guest.Family) *Embedding {
	e := Gray(s)
	e.Family = f
	return e
}

// benchPinned returns a 3x5x17 embedding with a deliberately scrambled map
// (identity reshaping of the dense index into the 8-cube) so that many edges
// land at distance 2..4 and RealizeMinCongestion pins explicit paths — the
// pinned-path side of the metrics hot loop.
func benchPinned() *Embedding {
	s := mesh.Shape{3, 5, 17}
	e := New(s, s.MinCubeDim())
	for i := range e.Map {
		e.Map[i] = cube.Node(i)
	}
	e.RealizeMinCongestion()
	return e
}

func BenchmarkMeasure(b *testing.B) {
	cases := []struct {
		name string
		e    *Embedding
	}{
		{"16x16x16", benchGray(mesh.Shape{16, 16, 16})},
		{"64x64x64", benchGray(mesh.Shape{64, 64, 64})},
		{"3x5x17pinned", benchPinned()},
		{"torus64x64x64", benchFamily(mesh.Shape{64, 64, 64}, guest.Torus)},
		{"cylinder64x64x64", benchFamily(mesh.Shape{64, 64, 64}, guest.Cylinder)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := c.e.Measure()
				if m.Dilation < 1 {
					b.Fatalf("metrics: %s", m)
				}
			}
		})
	}
}

func BenchmarkLinkLoads(b *testing.B) {
	cases := []struct {
		name string
		e    *Embedding
	}{
		{"16x16x16", benchGray(mesh.Shape{16, 16, 16})},
		{"64x64x64", benchGray(mesh.Shape{64, 64, 64})},
		{"3x5x17pinned", benchPinned()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				loads := c.e.LinkLoads()
				if len(loads) == 0 {
					b.Fatal("no links")
				}
			}
		})
	}
}

// BenchmarkMeasureTraced measures the fully-traced Measure path (a root span
// per iteration, so the fused pass, sweep workers and shards all record) for
// the off-vs-on overhead comparison of EXPERIMENTS.md.
func BenchmarkMeasureTraced(b *testing.B) {
	cases := []struct {
		name string
		e    *Embedding
	}{
		{"16x16x16", benchGray(mesh.Shape{16, 16, 16})},
		{"64x64x64", benchGray(mesh.Shape{64, 64, 64})},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx, root := obs.StartRoot(context.Background(), "bench")
				m := c.e.MeasureParallelCtx(ctx, 0)
				root.End()
				if m.Dilation < 1 {
					b.Fatalf("metrics: %s", m)
				}
			}
		})
	}
}
