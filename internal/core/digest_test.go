package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/bits"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// Plan digest: SHA-256 over every plan the planner produces on a fixed
// domain covering all four guest families, through both planning modes
// (the canonical Planner and the package-level PlanGuest), plus the
// provenance trees of the mesh shapes.  A refactor of the planner must
// leave both digests unchanged; a change that moves them changes plans or
// plan_trace bytes and has to say so.
const (
	planDigestWant  = "df77201f28443f3c5379568d0b4645e0c0c34e84cf4f79227774264008c75dfa"
	traceDigestWant = "2b87b8c005f45e193bc73f3c9c71c235f9a0471a082df23a9c67ea39d897ece3"
)

// digestGuest is one (family, shape) point of the digest domain.
type digestGuest struct {
	f guest.Family
	s mesh.Shape
}

// planDigestDomain lists the digest domain: 2D meshes with axes ≤ 24 and
// 3D meshes with axes ≤ 12 in every axis order, 2D and 3D tori and
// cylinders with axes 2–10 (third axis 2–7), trees up to 1,023 nodes, and
// a few shapes the docs and goldens name.
func planDigestDomain() []digestGuest {
	var out []digestGuest
	for a := 1; a <= 24; a++ {
		for b := 1; b <= 24; b++ {
			out = append(out, digestGuest{guest.Mesh, mesh.Shape{a, b}})
		}
	}
	for a := 1; a <= 12; a++ {
		for b := 1; b <= 12; b++ {
			for c := 1; c <= 12; c++ {
				out = append(out, digestGuest{guest.Mesh, mesh.Shape{a, b, c}})
			}
		}
	}
	for _, f := range []guest.Family{guest.Torus, guest.Cylinder} {
		for a := 2; a <= 10; a++ {
			for b := 2; b <= 10; b++ {
				out = append(out, digestGuest{f, mesh.Shape{a, b}})
				for c := 2; c <= 7; c++ {
					out = append(out, digestGuest{f, mesh.Shape{a, b, c}})
				}
			}
		}
	}
	for n := 1; n <= 1023; n = 2*n + 1 {
		out = append(out, digestGuest{guest.Tree, mesh.Shape{n}})
	}
	for _, spec := range []string{"21x9x5", "10x25", "25x10", "3x21", "13x17", "48x48x48", "3x5x7x9"} {
		s, err := mesh.ParseShape(spec)
		if err != nil {
			panic(err)
		}
		out = append(out, digestGuest{guest.Mesh, s})
	}
	return out
}

// oddAxes counts the axes of length > 1 that are not powers of two.
func oddAxes(s mesh.Shape) int {
	n := 0
	for _, l := range s {
		if l > 1 && !bits.IsPow2(uint64(l)) {
			n++
		}
	}
	return n
}

func digestPlan(h io.Writer, p *Plan, err error) {
	if err != nil {
		fmt.Fprintf(h, "err %v\n", err)
		return
	}
	fmt.Fprintf(h, "%s|%d|%d|%d|%d\n", p, p.Method, p.Dilation, p.CubeDim, p.CongestionBound())
}

// planDigests returns the hex SHA-256 of the plans and of the traces over
// the digest domain.
func planDigests(t *testing.T) (plans, traces string) {
	t.Helper()
	pl := NewPlanner(DefaultOptions)
	ph, th := sha256.New(), sha256.New()
	fmt.Fprintln(ph, pl.Fingerprint())
	for _, g := range planDigestDomain() {
		fmt.Fprintf(ph, "%s %s\n", g.f, g.s)
		p, err := pl.TryPlanGuest(g.f, g.s)
		digestPlan(ph, p, err)
		p, err = PlanGuest(g.f, g.s, DefaultOptions)
		digestPlan(ph, p, err)
		if g.f == guest.Mesh && oddAxes(g.s) <= 4 {
			digestTrace(t, th, pl, g.s)
		}
	}
	return hex.EncodeToString(ph.Sum(nil)), hex.EncodeToString(th.Sum(nil))
}

func digestTrace(t *testing.T, h io.Writer, pl *Planner, s mesh.Shape) {
	t.Helper()
	_, pt, err := pl.PlanTraced(context.Background(), s)
	if err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	stripDurations(pt)
	buf, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(append(buf, '\n'))
}

// TestPlanDigest pins every plan and every plan_trace over the digest
// domain.  It is the byte-identity gate for planner refactors.
func TestPlanDigest(t *testing.T) {
	plans, traces := planDigests(t)
	if plans != planDigestWant {
		t.Errorf("plan digest %s, want %s", plans, planDigestWant)
	}
	if traces != traceDigestWant {
		t.Errorf("trace digest %s, want %s", traces, traceDigestWant)
	}
}

// raceEnabled is set under the race detector (race_test.go), where
// allocation counts are not reproducible.
var raceEnabled bool

// TestPlanAllocs pins the allocations of untraced planning at their
// measured counts, so the provenance hooks stay free when no trace is
// recorded.
func TestPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	s567, s2195 := mesh.Shape{5, 6, 7}, mesh.Shape{21, 9, 5}
	cached := NewPlanner(DefaultOptions)
	cached.Plan(s567)
	for _, c := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"cached 5x6x7", 17, func() { cached.Plan(s567) }},
		{"uncached 5x6x7", 125, func() { NewUncachedPlanner(DefaultOptions).Plan(s567) }},
		{"uncached 21x9x5", 206, func() { NewUncachedPlanner(DefaultOptions).Plan(s2195) }},
	} {
		if got := testing.AllocsPerRun(20, c.run); got > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, got, c.budget)
		}
	}
}
