package embed

import (
	"context"
	"testing"

	"repro/internal/mesh"
	"repro/internal/obs"
)

// grayEmbedding returns the Gray-coded embedding of the shape spec.
func grayEmbedding(t testing.TB, spec string) *Embedding {
	t.Helper()
	s, err := mesh.ParseShape(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Gray(s)
}

func TestMeasureParallelCtxMatchesMeasure(t *testing.T) {

	for _, spec := range []string{"4x4x4", "8x8x8", "16x16x16", "5x6x7"} {
		e := grayEmbedding(t, spec)
		want := e.Measure()

		ctx, root := obs.StartRoot(context.Background(), "test")
		got := e.MeasureParallelCtx(ctx, 4)
		root.End()

		if got != want {
			t.Errorf("%s: traced metrics %+v != untraced %+v", spec, got, want)
		}
		snap := root.Snapshot()
		measure := snap.Find("measure")
		if measure == nil {
			t.Fatalf("%s: no measure span", spec)
		}
		if measure.Find("fused-pass") == nil {
			t.Fatalf("%s: no fused-pass span under measure", spec)
		}
	}
}

func TestFusedPassShardSpans(t *testing.T) {

	e := grayEmbedding(t, "16x16x16")
	ctx, root := obs.StartRoot(context.Background(), "test")
	e.MeasureParallelCtx(ctx, 4)
	root.End()

	snap := root.Snapshot()
	fp := snap.Find("fused-pass")
	if fp == nil {
		t.Fatal("no fused-pass span")
	}
	// Each shard span records its edge tally; the tallies must sum to the
	// guest edge count, proving the shards partition the edge set.
	var edges int64
	shards := 0
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		if len(s.Name) >= 5 && s.Name[:5] == "shard" {
			shards++
			for _, a := range s.Attrs {
				if a.Key == "edges" {
					edges += a.Value.(int64)
				}
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(fp)
	if shards != 4 {
		t.Fatalf("shard spans = %d, want 4", shards)
	}
	if want := int64(e.NumGuestEdges()); edges != want {
		t.Fatalf("shard edge tallies sum to %d, want %d", edges, want)
	}
}
