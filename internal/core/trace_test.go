package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// stripDurations zeroes every timing so runs can be compared structurally.
func stripDurations(pt *PlanTrace) {
	pt.Walk(func(n *PlanTrace) {
		n.DurationNS = 0
		for i := range n.Attempts {
			n.Attempts[i].DurationNS = 0
		}
	})
}

func tracesEqual(t *testing.T, a, b *PlanTrace) bool {
	t.Helper()
	stripDurations(a)
	stripDurations(b)
	var fa, fb strings.Builder
	flattenTrace(&fa, a)
	flattenTrace(&fb, b)
	if fa.String() != fb.String() {
		t.Logf("trace A:\n%s\ntrace B:\n%s", fa.String(), fb.String())
		return false
	}
	return true
}

func flattenTrace(b *strings.Builder, pt *PlanTrace) {
	pt.Walk(func(n *PlanTrace) {
		b.WriteString(n.Shape + "|" + n.Canonical + "|" + n.Pipeline + "|" + n.Chosen + "|" + n.Plan + "\n")
		for _, a := range n.Attempts {
			b.WriteString("  " + a.Strategy + "|" + a.Status + "|" + a.Reason + "|" + a.Plan + "\n")
		}
	})
}

func TestPlanTracedMatchesPlan(t *testing.T) {
	pl := NewPlanner(DefaultOptions)
	var shapes []mesh.Shape
	for _, spec := range []string{"5x6x7", "6x11x7", "3x3x23", "12x20", "3x5x17", "64x64x64", "7x1x1"} {
		s, err := mesh.ParseShape(spec)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, s)
	}
	for _, g := range planDigestDomain() {
		if g.f == guest.Mesh {
			shapes = append(shapes, g.s)
		}
	}
	for _, s := range shapes {
		spec := s.String()
		want := pl.Plan(s)
		got, pt, err := pl.PlanTraced(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: traced plan %s != plan %s", spec, got, want)
		}
		if pt == nil {
			t.Fatalf("%s: nil PlanTrace", spec)
		}
		if pt.Plan != got.String() {
			t.Errorf("%s: provenance plan %q != plan %q", spec, pt.Plan, got)
		}
	}
}

func TestPlanTracedDeterministic(t *testing.T) {
	pl := NewPlanner(DefaultOptions)
	for _, spec := range []string{"5x6x7", "6x11x7", "12x20", "5x10x11"} {
		s, _ := mesh.ParseShape(spec)
		_, a, err := pl.PlanTraced(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := pl.PlanTraced(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !tracesEqual(t, a, b) {
			t.Errorf("%s: strategy attempt order is not deterministic", spec)
		}
	}
}

func TestPlanTraceStatuses(t *testing.T) {
	pl := NewPlanner(DefaultOptions)
	s, _ := mesh.ParseShape("5x6x7")
	p, pt, err := pl.PlanTraced(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Pipeline != "3d" {
		t.Errorf("pipeline = %q, want 3d", pt.Pipeline)
	}
	if len(pt.Attempts) == 0 {
		t.Fatal("no attempts recorded for a three-axis shape")
	}
	chosen := 0
	valid := map[string]bool{"tried": true, "skipped": true, "chosen": true}
	for _, a := range pt.Attempts {
		if !valid[a.Status] {
			t.Errorf("attempt %s: bad status %q", a.Strategy, a.Status)
		}
		if a.Status == "skipped" && a.Reason == "" {
			t.Errorf("attempt %s: skipped without a reason", a.Strategy)
		}
		if a.Status == "chosen" {
			chosen++
			if a.Strategy != pt.Chosen {
				t.Errorf("chosen attempt %s != node chosen %s", a.Strategy, pt.Chosen)
			}
		}
	}
	if chosen != 1 {
		t.Errorf("chosen attempts = %d, want exactly 1 (plan %s)", chosen, p)
	}
	// The three-axis pipeline always opens with pair+gray.
	if pt.Attempts[0].Strategy != "pair+gray" {
		t.Errorf("first attempt = %s, want pair+gray", pt.Attempts[0].Strategy)
	}
}

func TestPlanTracedGrayMinimalShortcut(t *testing.T) {
	pl := NewPlanner(DefaultOptions)
	s, _ := mesh.ParseShape("16x16x16")
	_, pt, err := pl.PlanTraced(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Pipeline != "gray-minimal" || pt.Chosen != "gray" {
		t.Errorf("shortcut node = pipeline %q chosen %q, want gray-minimal/gray", pt.Pipeline, pt.Chosen)
	}
	if len(pt.Attempts) != 0 {
		t.Errorf("shortcut node recorded %d attempts, want 0", len(pt.Attempts))
	}
}

func TestPlanTracedSpans(t *testing.T) {

	pl := NewPlanner(DefaultOptions)
	s, _ := mesh.ParseShape("5x6x7")
	ctx, root := obs.StartRoot(context.Background(), "test")
	_, pt, err := pl.PlanTraced(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	snap := root.Snapshot()
	planner := snap.Find("planner")
	if planner == nil {
		t.Fatal("no planner span")
	}
	// Every recorded attempt must have a matching strategy span.
	for _, a := range pt.Attempts {
		if planner.Find("strategy:"+a.Strategy) == nil {
			t.Errorf("no span for strategy %s", a.Strategy)
		}
	}
	// Sub-shape plans nest under the attempt that searched them.
	if len(pt.Sub) > 0 {
		found := false
		for _, sub := range pt.Sub {
			if planner.Find("plan "+sub.Canonical) != nil {
				found = true
			}
		}
		if !found {
			t.Error("no nested plan span for any sub-shape")
		}
	}
}

func TestPlanTracedSnakeFallback(t *testing.T) {
	// With the solver disabled and a hostile shape the planner falls back
	// to snake; provenance must say so rather than come back empty.
	pl := NewPlanner(Options{})
	s, _ := mesh.ParseShape("7x11")
	p, pt, err := pl.PlanTraced(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind == KindSnake {
		if pt.Chosen != "snake" || pt.Plan != p.String() {
			t.Errorf("snake fallback not recorded: chosen=%q plan=%q", pt.Chosen, pt.Plan)
		}
	}
}
