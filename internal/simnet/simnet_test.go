package simnet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
)

func TestRunSingleMessage(t *testing.T) {
	nw := New(3)
	stats := nw.Run([]Message{{Src: 0, Dst: 7}})
	if stats.Messages != 1 || stats.TotalHops != 3 || stats.MaxHops != 3 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Makespan != 3 {
		t.Errorf("makespan = %d, want 3", stats.Makespan)
	}
	if stats.MaxLink != 1 {
		t.Errorf("max link = %d", stats.MaxLink)
	}
}

func TestRunZeroHopMessages(t *testing.T) {
	nw := New(2)
	stats := nw.Run([]Message{{Src: 1, Dst: 1}, {Src: 2, Dst: 2}})
	if stats.Makespan != 0 || stats.TotalHops != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRunContention(t *testing.T) {
	// Two messages over the same directed link must serialize.
	nw := New(2)
	msgs := []Message{
		{Src: 0, Dst: 1, Path: cube.Path{0, 1}},
		{Src: 0, Dst: 3, Path: cube.Path{0, 1, 3}},
	}
	stats := nw.Run(msgs)
	if stats.MaxLink != 2 {
		t.Errorf("max link = %d, want 2", stats.MaxLink)
	}
	// First message takes the link at step 0; second waits one step then
	// needs two more hops: makespan 3.
	if stats.Makespan != 3 {
		t.Errorf("makespan = %d, want 3", stats.Makespan)
	}
}

func TestRunOppositeDirectionsDontContend(t *testing.T) {
	nw := New(1)
	stats := nw.Run([]Message{
		{Src: 0, Dst: 1},
		{Src: 1, Dst: 0},
	})
	if stats.Makespan != 1 {
		t.Errorf("makespan = %d, want 1 (full duplex)", stats.Makespan)
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// makespan ≥ max(MaxHops, MaxLink) always.
	e := embed.Gray(mesh.Shape{4, 8})
	nw := New(e.N)
	stats := nw.Run(StencilExchange(e))
	lower := stats.MaxHops
	if stats.MaxLink > lower {
		lower = stats.MaxLink
	}
	if stats.Makespan < lower {
		t.Errorf("makespan %d below bound %d", stats.Makespan, lower)
	}
}

func TestStencilGrayOptimal(t *testing.T) {
	// A power-of-two mesh under Gray embedding: all hops are 1, and each
	// directed link carries at most one message, so the sweep finishes in
	// one step.
	e := embed.Gray(mesh.Shape{8, 8})
	nw := New(e.N)
	stats := nw.Run(StencilExchange(e))
	if stats.MaxHops != 1 || stats.Makespan != 1 || stats.MaxLink != 1 {
		t.Errorf("Gray stencil: %+v", stats)
	}
	if stats.Messages != 2*(mesh.Shape{8, 8}).Edges(mesh.NoWrap) {
		t.Errorf("message count %d", stats.Messages)
	}
}

func TestStencilDecompositionBeatsGrayPadding(t *testing.T) {
	// The experiment of EXP-S1: on a 12x20 mesh the decomposition
	// embedding uses a 8-cube (minimal) while Gray needs a 9-cube.
	// Decomposition needs half the machine at a modest makespan increase.
	s := mesh.Shape{12, 20}
	dec := core.PlanShape(s, core.DefaultOptions).Build()
	gray := embed.Gray(s)
	if dec.N >= gray.N {
		t.Fatalf("decomposition should use fewer dimensions: %d vs %d", dec.N, gray.N)
	}
	res := CompareEmbeddings(map[string]*embed.Embedding{
		"decomposition": dec,
		"gray":          gray,
	})
	d, g := res["decomposition"], res["gray"]
	if g.Makespan != 1 {
		t.Errorf("gray makespan %d, want 1", g.Makespan)
	}
	if d.Makespan > 6 {
		t.Errorf("decomposition makespan %d unexpectedly high", d.Makespan)
	}
	if d.MaxHops > 2 {
		t.Errorf("decomposition max hops %d, want ≤ 2", d.MaxHops)
	}
	t.Logf("12x20 stencil: decomposition (8-cube): %+v; gray (9-cube): %+v", d, g)
}

func TestStencilTorus(t *testing.T) {
	e := embed.Gray(mesh.Shape{8})
	e.Family = guest.Torus
	msgs := StencilExchange(e)
	if len(msgs) != 16 { // 8 ring edges, both directions
		t.Errorf("messages = %d, want 16", len(msgs))
	}
}

func TestRunPanicsOnBadPath(t *testing.T) {
	nw := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	nw.Run([]Message{{Src: 0, Dst: 3, Path: cube.Path{0, 1}}})
}

func BenchmarkStencilSweep(b *testing.B) {
	e := embed.Gray(mesh.Shape{16, 16})
	nw := New(e.N)
	msgs := StencilExchange(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nw.Run(msgs)
	}
}

func TestCompareEmbeddingsParallelEqualsSerial(t *testing.T) {
	s := mesh.Shape{5, 6, 7}
	es := map[string]*embed.Embedding{
		"gray":          embed.Gray(s),
		"decomposition": core.PlanShape(s, core.DefaultOptions).Build(),
		"snake":         core.Snake(s),
	}
	serial := CompareEmbeddingsParallel(es, 1)
	for _, workers := range []int{2, 4, 8} {
		par := CompareEmbeddingsParallel(es, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d entries, want %d", workers, len(par), len(serial))
		}
		for name, want := range serial {
			if got := par[name]; got != want {
				t.Errorf("workers=%d: %s: %+v, want %+v", workers, name, got, want)
			}
		}
	}
}
