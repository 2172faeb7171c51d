package core

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/mesh"
)

// The pinned values below were captured from the pre-refactor planner and
// fused metrics engine (PR 5 tree) with:
//
//	plan   := PlanShape(s, DefaultOptions)   // resp. wrap.Embed for tori
//	metric := plan.Build().Measure().String()
//
// The guest-family refactor must keep mesh and torus results byte-identical:
// same plan tree, same method, same dilation bound, and the same fused
// metrics line character for character.

// TestGoldenMeshPlansUnchanged pins the mesh planner + metrics output.
func TestGoldenMeshPlansUnchanged(t *testing.T) {
	cases := []struct {
		shape   string
		plan    string
		method  int
		metrics string
	}{
		{"64x64x64", "64x64x64[gray]", 1,
			"64x64x64 -> 18-cube: exp=1.0000 minimal=true dil=1 avgdil=1.0000 wl=774144 cong=1 avgcong=0.3281 load=1"},
		{"5x6x7", "(5x3x1[direct] ⊗ 1x2x7[gray])", 2,
			"5x6x7 -> 8-cube: exp=1.2190 minimal=true dil=2 avgdil=1.0803 wl=565 cong=2 avgcong=0.5518 load=1"},
		{"3x5x17", "3x5x17[snake]", 5,
			"3x5x17 -> 8-cube: exp=1.0039 minimal=true dil=5 avgdil=2.0619 wl=1266 cong=5 avgcong=1.2363 load=1"},
		{"6x10", "(3x5[direct] ⊗ 2x2[gray])", 5,
			"6x10 -> 6-cube: exp=1.0667 minimal=true dil=2 avgdil=1.1154 wl=116 cong=2 avgcong=0.6042 load=1"},
		{"12x20", "(3x5[direct] ⊗ 4x4[gray])", 5,
			"12x20 -> 8-cube: exp=1.0667 minimal=true dil=2 avgdil=1.1071 wl=496 cong=2 avgcong=0.4844 load=1"},
	}
	for _, tc := range cases {
		s, err := mesh.ParseShape(tc.shape)
		if err != nil {
			t.Fatal(err)
		}
		p := PlanShape(s, DefaultOptions)
		if got := p.String(); got != tc.plan {
			t.Errorf("%s: plan drifted: %s, want %s", tc.shape, got, tc.plan)
		}
		if p.Method != tc.method {
			t.Errorf("%s: method drifted: %d, want %d", tc.shape, p.Method, tc.method)
		}
		if got := p.Build().Measure().String(); got != tc.metrics {
			t.Errorf("%s: metrics drifted:\n got %s\nwant %s", tc.shape, got, tc.metrics)
		}
		// The family entry point must produce the identical plan for meshes.
		pg, err := PlanGuest(guest.Mesh, s, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		if pg.String() != tc.plan || pg.Method != tc.method {
			t.Errorf("%s: PlanGuest(mesh) diverges from PlanShape: %s method %d", tc.shape, pg, pg.Method)
		}
	}
}

// TestGoldenTorusMetricsUnchanged pins the torus construction choice and
// fused metrics against the pre-refactor wrap.Embed output, except 5x6x7:
// its snake base has an even inner axis, and it is pinned to the snake
// order that is a mesh path.
func TestGoldenTorusMetricsUnchanged(t *testing.T) {
	cases := []struct {
		shape   string
		metrics string
	}{
		{"6x10", "6x10 (wraparound) -> 6-cube: exp=1.0667 minimal=true dil=2 avgdil=1.1000 wl=132 cong=2 avgcong=0.6875 load=1"},
		{"5x6x7", "5x6x7 (wraparound) -> 8-cube: exp=1.2190 minimal=true dil=6 avgdil=2.4127 wl=1520 cong=8 avgcong=1.4844 load=1"},
		{"16x16", "16x16 (wraparound) -> 8-cube: exp=1.0000 minimal=true dil=1 avgdil=1.0000 wl=512 cong=1 avgcong=0.5000 load=1"},
	}
	for _, tc := range cases {
		s, err := mesh.ParseShape(tc.shape)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PlanGuest(guest.Torus, s, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Build().Measure().String(); got != tc.metrics {
			t.Errorf("torus %s: metrics drifted:\n got %s\nwant %s", tc.shape, got, tc.metrics)
		}
	}
}
