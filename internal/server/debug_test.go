package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func debugBody(t *testing.T, srv *Server, target, body string, hdr map[string]string) map[string]any {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, rr.Code, rr.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatalf("%s: bad JSON: %v", target, err)
	}
	return m
}

// spanNames flattens a decoded span-tree JSON object into a name set.
func spanNames(tree map[string]any, into map[string]bool) {
	if tree == nil {
		return
	}
	if n, _ := tree["name"].(string); n != "" {
		into[n] = true
	}
	kids, _ := tree["children"].([]any)
	for _, k := range kids {
		if km, ok := k.(map[string]any); ok {
			spanNames(km, into)
		}
	}
}

func TestPlanDebugTrace(t *testing.T) {
	srv := New(Config{})
	m := debugBody(t, srv, "/v1/plan?debug=trace", `{"shape":"5x6x7"}`, nil)
	dbg, ok := m["debug"].(map[string]any)
	if !ok {
		t.Fatalf("no debug block in response: %v", m)
	}
	if id, _ := dbg["request_id"].(string); id == "" {
		t.Error("debug block has no request_id")
	}
	pt, ok := dbg["plan_trace"].(map[string]any)
	if !ok {
		t.Fatal("no plan_trace in debug block")
	}
	attempts, _ := pt["attempts"].([]any)
	if len(attempts) == 0 {
		t.Fatal("plan_trace has no strategy attempts")
	}
	chosen := 0
	for _, a := range attempts {
		am := a.(map[string]any)
		switch am["status"] {
		case "chosen":
			chosen++
		case "tried", "skipped":
		default:
			t.Errorf("attempt %v: bad status %v", am["strategy"], am["status"])
		}
	}
	if chosen != 1 {
		t.Errorf("chosen attempts = %d, want 1", chosen)
	}

	tree, ok := dbg["trace"].(map[string]any)
	if !ok {
		t.Fatal("no span tree in debug block")
	}
	names := map[string]bool{}
	spanNames(tree, names)
	for _, want := range []string{"request", "queue-wait", "cache-lookup", "planner", "encode"} {
		if !names[want] {
			t.Errorf("span %q missing from trace (have %v)", want, names)
		}
	}
	// The planner provenance must surface every attempt as a strategy span.
	for _, a := range attempts {
		am := a.(map[string]any)
		if n, _ := am["strategy"].(string); n != "" && !names["strategy:"+n] {
			t.Errorf("no strategy:%s span in trace", n)
		}
	}
}

func TestDebugHeaderVariant(t *testing.T) {
	srv := New(Config{})
	m := debugBody(t, srv, "/v1/plan", `{"shape":"3x5x17"}`, map[string]string{"X-Debug-Trace": "1"})
	if _, ok := m["debug"].(map[string]any); !ok {
		t.Fatal("X-Debug-Trace: 1 did not produce a debug block")
	}
}

func TestEmbedDebugCacheHitKeepsProvenance(t *testing.T) {
	srv := New(Config{})
	// Warm the cache, then ask for a debug trace: the serving path must
	// report the hit while provenance still lists genuine attempts.
	_ = debugBody(t, srv, "/v1/embed", `{"shape":"5x6x7"}`, nil)
	m := debugBody(t, srv, "/v1/embed?debug=trace", `{"shape":"5x6x7"}`, nil)
	if src, _ := m["source"].(string); src != "cache" {
		t.Fatalf("source = %q, want cache", src)
	}
	dbg := m["debug"].(map[string]any)
	pt, ok := dbg["plan_trace"].(map[string]any)
	if !ok {
		t.Fatal("cache-hit debug response lost its plan_trace")
	}
	if attempts, _ := pt["attempts"].([]any); len(attempts) == 0 {
		t.Fatal("cache-hit provenance has no attempts — it degenerated to the cache")
	}
	names := map[string]bool{}
	spanNames(dbg["trace"].(map[string]any), names)
	if names["compute"] {
		t.Error("cache hit must not have a compute span")
	}
	if !names["cache-lookup"] {
		t.Error("no cache-lookup span")
	}
}

func TestNonDebugResponseHasNoDebugBlock(t *testing.T) {
	srv := New(Config{})
	m := debugBody(t, srv, "/v1/embed", `{"shape":"4x4x4"}`, nil)
	if _, ok := m["debug"]; ok {
		t.Fatal("non-debug response carries a debug block")
	}
}

func TestEmbedDebugComputePhases(t *testing.T) {
	srv := New(Config{})
	m := debugBody(t, srv, "/v1/embed?debug=trace", `{"shape":"6x11x7"}`, nil)
	if src, _ := m["source"].(string); src != "computed" {
		t.Fatalf("source = %q, want computed", src)
	}
	names := map[string]bool{}
	spanNames(m["debug"].(map[string]any)["trace"].(map[string]any), names)
	for _, want := range []string{"compute", "plan", "build", "verify", "measure", "fused-pass"} {
		if !names[want] {
			t.Errorf("compute phase span %q missing (have %v)", want, names)
		}
	}
}

func TestCompareDebugTrace(t *testing.T) {
	srv := New(Config{})
	m := debugBody(t, srv, "/v1/compare?debug=trace", `{"shape":"3x5"}`, nil)
	dbg := m["debug"].(map[string]any)
	if _, ok := dbg["plan_trace"].(map[string]any); !ok {
		t.Fatal("compare debug block has no plan_trace")
	}
	names := map[string]bool{}
	spanNames(dbg["trace"].(map[string]any), names)
	if !names["technique:gray"] || !names["technique:decomposition"] {
		t.Errorf("per-technique spans missing (have %v)", names)
	}
}

// TestDebugProvenanceMatchesServedPlan: a plan_trace must describe the
// plan the response served.  Planner.PlanTraced plans meshes only, so a
// torus, cylinder or tree response must omit the field rather than carry a
// mesh trace of the same axes.
func TestDebugProvenanceMatchesServedPlan(t *testing.T) {
	srv := New(Config{})
	for _, tc := range []struct{ family, shape string }{
		{"mesh", "5x6x7"},
		{"mesh", "7x6x5"},
		{"torus", "6x10"},
		{"cylinder", "5x6x7"},
		{"tree", "15"},
	} {
		body := fmt.Sprintf(`{"shape":%q,"family":%q}`, tc.shape, tc.family)
		embed := debugBody(t, srv, "/v1/embed?debug=trace", body, nil)
		for _, ep := range []string{"/v1/plan", "/v1/embed", "/v1/compare"} {
			m := embed
			if ep != "/v1/embed" {
				m = debugBody(t, srv, ep+"?debug=trace", body, nil)
			}
			// Compare serves no plan field; its decomposition row is the
			// embed plan of the same guest.
			want := embed["plan"]
			if ep == "/v1/plan" {
				want = m["plan"]
			}
			pt, ok := m["debug"].(map[string]any)["plan_trace"].(map[string]any)
			switch {
			case !ok && tc.family == "mesh":
				t.Errorf("%s %s %s: mesh debug block has no plan_trace", ep, tc.family, tc.shape)
			case ok && pt["plan"] != want:
				t.Errorf("%s %s %s: plan_trace root plan %v, served %v", ep, tc.family, tc.shape, pt["plan"], want)
			}
		}
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv := New(Config{Logger: logger})
	_ = debugBody(t, srv, "/v1/plan", `{"shape":"5x6x7"}`, nil)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("access log is not one JSON record: %v (%q)", err, buf.String())
	}
	for _, k := range []string{"request_id", "endpoint", "shape", "source", "status", "duration"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("access log missing %q: %v", k, rec)
		}
	}
	if rec["shape"] != "5x6x7" || rec["endpoint"] != "plan" {
		t.Errorf("access log fields wrong: %v", rec)
	}
	if rec["source"] != "computed" {
		t.Errorf("source = %v, want computed", rec["source"])
	}
}

func TestRequestIDHeader(t *testing.T) {
	srv := New(Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/plan?debug=trace", strings.NewReader(`{"shape":"4x4"}`))
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	id := rr.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("debug request has no X-Request-Id header")
	}
	var m map[string]any
	_ = json.Unmarshal(rr.Body.Bytes(), &m)
	if dbg, ok := m["debug"].(map[string]any); !ok || dbg["request_id"] != id {
		t.Fatalf("header id %q != body id %v", id, m["debug"])
	}
}
