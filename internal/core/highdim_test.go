package core

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/guest"
	"repro/internal/mesh"
)

// highDimLine plans the shape in one of the golden's modes and renders the
// result as a golden line.
func highDimLine(t *testing.T, mode string, s mesh.Shape) string {
	t.Helper()
	var p *Plan
	switch mode {
	case "plan":
		p = NewPlanner(DefaultOptions).Plan(s)
	case "shape":
		p = PlanShape(s, DefaultOptions)
	case "torus":
		p = NewPlanner(DefaultOptions).PlanGuest(guest.Torus, s)
	case "cylinder":
		p = NewPlanner(DefaultOptions).PlanGuest(guest.Cylinder, s)
	case "traced":
		var err error
		if p, _, err = NewPlanner(DefaultOptions).PlanTraced(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	return fmt.Sprintf("%s %s %s|%d|%d|%d|%d", mode, s, p, p.Method, p.Dilation, p.CubeDim, p.CongestionBound())
}

// TestHighDimGolden pins the plans of shapes with 4–12 axes (all-odd and
// mixed) through the cached planner, PlanShape, the torus and cylinder
// ring bases and a traced run.  The golden was captured from the planner
// whose direct-table match and pairing search still backtracked in full.
func TestHighDimGolden(t *testing.T) {
	f, err := os.Open("testdata/highdim_plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		s, err := mesh.ParseShape(fields[1])
		if err != nil {
			t.Fatal(err)
		}
		if got := highDimLine(t, fields[0], s); got != line {
			t.Errorf("plan drifted:\n got %s\nwant %s", got, line)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Fatalf("golden holds %d plans, want at least 100", n)
	}
}

// TestHighDimPlansWithinDeadline: all-odd shapes with many axes plan in
// well under a request timeout, including a cylinder whose ring base goes
// through the uncached PlanShape.
func TestHighDimPlansWithinDeadline(t *testing.T) {
	for _, c := range []struct {
		f    guest.Family
		spec string
	}{
		{guest.Mesh, "3x3x3x3x3x3x3x3x3x3x3x3x3"},
		{guest.Cylinder, "3x3x3x3x3x3x3x3x3x3x3x3"},
	} {
		s, err := mesh.ParseShape(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *Plan, 1)
		go func() { done <- NewPlanner(DefaultOptions).PlanGuest(c.f, s) }()
		select {
		case p := <-done:
			if !p.Minimal() {
				t.Errorf("%s %s: plan %s is not minimal", c.f, c.spec, p)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s %s: no plan within 10 s", c.f, c.spec)
		}
	}
}
