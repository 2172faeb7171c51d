package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/jobs"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// buildArtifact builds a mesh plan-census artifact for the given domain
// under the default planner options and returns it loaded.
func buildArtifact(t *testing.T, dims, maxAxis int) *artifact.Artifact {
	t.Helper()
	a, err := writeArtifact(filepath.Join(t.TempDir(), "plans.art"), dims, maxAxis)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// writeArtifact builds buildArtifact's artifact at path and opens it.
func writeArtifact(path string, dims, maxAxis int) (*artifact.Artifact, error) {
	pl := core.NewPlanner(core.DefaultOptions)
	b, err := artifact.NewBuilder(path, "mesh", dims, maxAxis, pl.Fingerprint())
	if err != nil {
		return nil, err
	}
	for c := 1; c <= maxAxis; c++ {
		artifact.EachShapeWithMax(dims, c, func(s mesh.Shape) {
			if err == nil {
				err = b.Add(s, pl.Plan(s).Entry())
			}
		})
	}
	if err == nil {
		_, err = b.Finalize()
	}
	if err != nil {
		_ = b.Abort() // the build error is the one to report
		return nil, err
	}
	return artifact.Open(path)
}

// benchArtifact is BenchmarkPlanTierArtifact's artifact, built once per
// test binary: building it plans all 45,760 shapes of its domain, which
// would otherwise repeat for every b.N calibration run and -cpu value.
// TestMain removes its directory.
var benchArtifact struct {
	once sync.Once
	dir  string
	a    *artifact.Artifact
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchArtifact.a != nil {
		benchArtifact.a.Close()
	}
	if benchArtifact.dir != "" {
		os.RemoveAll(benchArtifact.dir)
	}
	os.Exit(code)
}

func planResponse(t *testing.T, h http.Handler, body string) (int, api.PlanResponse) {
	t.Helper()
	rec, _ := post(t, h, "/v1/plan", body)
	var resp api.PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return rec.Code, resp
}

// TestPlanTierClosedForm: shapes the classifier proves are served with
// source "closed_form", identically to the planner, and land in L0 like any
// other result.
func TestPlanTierClosedForm(t *testing.T) {
	h := New(Config{}).Handler()
	pl := core.NewPlanner(core.DefaultOptions)
	cases := []struct {
		body   string
		family guest.Family
		shape  mesh.Shape
	}{
		{`{"shape":"4x8x16"}`, guest.Mesh, mesh.Shape{4, 8, 16}},
		{`{"shape":"2x3x11"}`, guest.Mesh, mesh.Shape{2, 3, 11}}, // 66 of 2·4·16=128=⌈66⌉₂: Gray-minimal, not pow2
		{`{"shape":"4x4x8","family":"torus"}`, guest.Torus, mesh.Shape{4, 4, 8}},
		{`{"shape":"15","family":"tree"}`, guest.Tree, mesh.Shape{15}},
	}
	for _, tc := range cases {
		code, resp := planResponse(t, h, tc.body)
		if code != http.StatusOK || resp.Source != "closed_form" {
			t.Fatalf("%s: code %d source %q", tc.body, code, resp.Source)
		}
		p, err := pl.TryPlanGuest(tc.family, tc.shape)
		if err != nil {
			t.Fatal(err)
		}
		dil := p.Dilation
		if dil == core.DilationUnknown {
			dil = -1
		}
		if resp.Plan != p.String() || resp.Method != p.Method || resp.CubeDim != p.CubeDim || resp.DilationBound != dil {
			t.Fatalf("%s: served %+v, planner says %v (method %d cube %d dil %d)",
				tc.body, resp, p, p.Method, p.CubeDim, dil)
		}
		code, resp = planResponse(t, h, tc.body)
		if code != http.StatusOK || resp.Source != "cache" {
			t.Fatalf("%s repeat: code %d source %q, want cache", tc.body, code, resp.Source)
		}
	}
}

// TestPlanTierArtifact: an attached artifact answers canonical in-domain
// shapes the classifier declines, with a response identical (modulo the
// source field) to the computed one; permuted and out-of-domain shapes fall
// through to the planner.
func TestPlanTierArtifact(t *testing.T) {
	const dims, maxAxis = 3, 12
	s := New(Config{})
	if err := s.AttachArtifact(buildArtifact(t, dims, maxAxis)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	plain := New(Config{}).Handler() // no artifact: the computed baseline

	// 5x6x7 is in-domain and not Gray-minimal (210 of 512), so it must be
	// served by the artifact tier, byte-identical to the computed plan.
	code, got := planResponse(t, h, `{"shape":"5x6x7"}`)
	if code != http.StatusOK || got.Source != "artifact" {
		t.Fatalf("artifact plan: code %d source %q", code, got.Source)
	}
	code, want := planResponse(t, plain, `{"shape":"5x6x7"}`)
	if code != http.StatusOK || want.Source != "computed" {
		t.Fatalf("computed plan: code %d source %q", code, want.Source)
	}
	got.Source, want.Source = "", ""
	if got.Certificate == nil || want.Certificate == nil || *got.Certificate != *want.Certificate {
		t.Fatalf("artifact-served certificate differs from computed:\n got %+v\nwant %+v", got.Certificate, want.Certificate)
	}
	got.Certificate, want.Certificate = nil, nil
	if got != want {
		t.Fatalf("artifact-served response differs from computed:\n got %+v\nwant %+v", got, want)
	}

	// Non-canonical axis order misses the artifact (plan strings are
	// axis-order-specific) and is computed instead — same plan modulo order.
	code, perm := planResponse(t, h, `{"shape":"7x5x6"}`)
	if code != http.StatusOK || perm.Source != "computed" {
		t.Fatalf("permuted plan: code %d source %q, want computed", code, perm.Source)
	}
	// Out-of-domain shapes fall through to the planner.
	code, out := planResponse(t, h, `{"shape":"5x6x13"}`)
	if code != http.StatusOK || out.Source != "computed" {
		t.Fatalf("out-of-domain plan: code %d source %q, want computed", code, out.Source)
	}
	// A family the artifact does not cover bypasses it (4x5x6 cylinder:
	// wrapped axis 6 is not a power of two, so the classifier declines too).
	code, fam := planResponse(t, h, `{"shape":"4x5x6","family":"cylinder"}`)
	if code != http.StatusOK || fam.Source != "computed" {
		t.Fatalf("cylinder plan: code %d source %q, want computed", code, fam.Source)
	}

	// The tier counters must have moved: one artifact hit, the misses
	// computed, and a repeat request counting L0.
	planResponse(t, h, `{"shape":"5x6x7"}`)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	for _, line := range []string{
		"embedserver_plan_tier_l0_total 1",
		"embedserver_plan_tier_artifact_total 1",
		"embedserver_plan_tier_compute_total 3",
		"embedserver_plan_artifact_records " + fmt.Sprint(artifact.TotalRecords(dims, maxAxis)),
	} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Errorf("metrics: missing %q", line)
		}
	}
}

// TestAttachArtifactFingerprintMismatch: an artifact built under different
// planner options is refused at attach time.
func TestAttachArtifactFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.art")
	pl := core.NewPlanner(core.DefaultOptions)
	b, err := artifact.NewBuilder(path, "mesh", 2, 4, "b999.s7.other-cost")
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 4; c++ {
		artifact.EachShapeWithMax(2, c, func(s mesh.Shape) {
			if err := b.Add(s, pl.Plan(s).Entry()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	a, err := artifact.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := New(Config{}).AttachArtifact(a); err == nil {
		t.Fatal("AttachArtifact accepted a fingerprint-mismatched artifact")
	}
}

// TestJobArtifactEndpoint: the artifact download route serves a finished
// plancensus job's file bit-for-bit, and maps the manager's sentinel errors
// (unknown job, wrong kind) onto the envelope.
func TestJobArtifactEndpoint(t *testing.T) {
	s := New(Config{})
	m, err := jobs.Open(jobs.Config{DataDir: t.TempDir(), Planner: s.Planner()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	}()
	s.AttachJobs(m)
	h := s.Handler()

	rec, _ := post(t, h, "/v1/jobs", `{"kind":"plancensus","plancensus":{"dims":3,"max_axis":6}}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var st api.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, st.ID)

	get := func(path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	dl := get("/v1/jobs/" + st.ID + "/artifact")
	if dl.Code != http.StatusOK {
		t.Fatalf("artifact download: %d %s", dl.Code, dl.Body.String())
	}
	path, err := m.ArtifactPath(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dl.Body.Bytes(), want) {
		t.Fatalf("downloaded artifact differs from disk (%d vs %d bytes)", dl.Body.Len(), len(want))
	}
	// The downloaded bytes must themselves be a loadable artifact.
	tmp := filepath.Join(t.TempDir(), "dl.art")
	if err := os.WriteFile(tmp, dl.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := artifact.Open(tmp)
	if err != nil {
		t.Fatalf("downloaded artifact does not load: %v", err)
	}
	a.Close()

	if rec := get("/v1/jobs/no-such-job/artifact"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", rec.Code)
	}
	rec, _ = post(t, h, "/v1/jobs", `{"kind":"census","census":{"max_n":2}}`)
	var ct api.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, ct.ID)
	if rec := get("/v1/jobs/" + ct.ID + "/artifact"); rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong-kind job: %d %s", rec.Code, rec.Body.String())
	}
}

// TestJobsErrorNotReady pins the ErrNotReady → 409 not_ready mapping.
func TestJobsErrorNotReady(t *testing.T) {
	ae := jobsError(fmt.Errorf("wrapped: %w", jobs.ErrNotReady))
	if ae.status != http.StatusConflict || ae.code != api.CodeNotReady || ae.retryAfter <= 0 {
		t.Fatalf("jobsError(ErrNotReady) = %+v", ae)
	}
}

// waitDone polls the status endpoint until the job is done.
func waitDone(t *testing.T, h http.Handler, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var st api.JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State == api.JobDone {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for job %s", id)
}

// The EXP-P7 latency benchmarks: one /v1/plan resolution per tier at the
// paper's 64³ scale.  HTTP and JSON overhead would mask the ns-level tiers,
// so these measure resolvePlan — the exact code the L0-miss path runs.
var benchSink *cachedResult

// BenchmarkPlanTierClosedForm: 64x64x64 is claimed by the classifier.
func BenchmarkPlanTierClosedForm(b *testing.B) {
	s := New(Config{})
	sh := mesh.Shape{64, 64, 64}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, src, err := s.resolvePlan(ctx, guest.Mesh, sh)
		if err != nil || src != "closed_form" {
			b.Fatalf("%q %v", src, err)
		}
		benchSink = res
	}
}

// BenchmarkPlanTierArtifact: 34x41x64 (89k of 256Ki nodes) is declined by
// the classifier and served from the mmap'd artifact.
func BenchmarkPlanTierArtifact(b *testing.B) {
	ba := &benchArtifact
	ba.once.Do(func() {
		if ba.dir, ba.err = os.MkdirTemp("", "plantier"); ba.err == nil {
			ba.a, ba.err = writeArtifact(filepath.Join(ba.dir, "plans.art"), 3, 64)
		}
	})
	if ba.err != nil {
		b.Fatal(ba.err)
	}
	s := New(Config{})
	if err := s.AttachArtifact(ba.a); err != nil {
		b.Fatal(err)
	}
	sh := mesh.Shape{34, 41, 64}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, src, err := s.resolvePlan(ctx, guest.Mesh, sh)
		if err != nil || src != "artifact" {
			b.Fatalf("%q %v", src, err)
		}
		benchSink = res
	}
}

// BenchmarkPlanTierCompute: the same shape through the full planner with no
// cache (core.PlanShape), i.e. what every L2 miss costs.
func BenchmarkPlanTierCompute(b *testing.B) {
	sh := mesh.Shape{34, 41, 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.PlanShape(sh, core.DefaultOptions)
		benchSink = &cachedResult{plan: p.Entry()}
	}
}
