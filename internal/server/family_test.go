package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/embed"
	"repro/pkg/api"
)

// TestEmbedFamilyCacheIsolation is the regression test for the family-less
// cache key: a 4x4x4 torus request must never be served a 4x4x4 mesh cache
// entry (or vice versa).  Both requests are computed, metrics differ on the
// wrap flag, and repeating each family hits its own entry.
func TestEmbedFamilyCacheIsolation(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"4x4x4"}`)
	var meshResp api.EmbedResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &meshResp)
	if meshResp.Source != "computed" || meshResp.Metrics.Wrap {
		t.Fatalf("mesh embed: %+v", meshResp)
	}

	rec, _ = post(t, h, "/v1/embed", `{"shape":"4x4x4","family":"torus"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("torus embed: %d %s", rec.Code, rec.Body.String())
	}
	var torusResp api.EmbedResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &torusResp)
	if torusResp.Source != "computed" {
		t.Fatalf("torus embed served from the mesh cache entry: %+v", torusResp)
	}
	if !torusResp.Metrics.Wrap || torusResp.Family != "torus" || torusResp.Metrics.Family != "torus" {
		t.Fatalf("torus embed response: %+v", torusResp)
	}

	// Each family now hits its own entry.
	rec, _ = post(t, h, "/v1/embed", `{"shape":"4x4x4"}`)
	var meshAgain api.EmbedResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &meshAgain)
	if meshAgain.Source != "cache" || meshAgain.Metrics.Wrap {
		t.Fatalf("mesh re-embed: %+v", meshAgain)
	}
	rec, _ = post(t, h, "/v1/embed", `{"shape":"4x4x4","family":"torus"}`)
	var torusAgain api.EmbedResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &torusAgain)
	if torusAgain.Source != "cache" || !torusAgain.Metrics.Wrap {
		t.Fatalf("torus re-embed: %+v", torusAgain)
	}
}

// TestEmbedModeTorusSharesFamilyEntry: mode "torus" is the deprecated
// spelling of family torus; both spellings must resolve to the same cache
// entry and metrics, with the response normalized to family torus, mode
// decomposition, plus a deprecation note.
func TestEmbedModeTorusSharesFamilyEntry(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"6x10","family":"torus"}`)
	var byFamily api.EmbedResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &byFamily)
	if byFamily.Source != "computed" || !byFamily.Metrics.Wrap || byFamily.Deprecation != "" {
		t.Fatalf("family torus: %+v", byFamily)
	}
	rec, _ = post(t, h, "/v1/embed", `{"shape":"6x10","mode":"torus"}`)
	var byMode api.EmbedResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &byMode)
	if byMode.Source != "cache" {
		t.Fatalf("mode torus recomputed instead of sharing the family entry: %+v", byMode)
	}
	if byMode.Mode != "decomposition" || byMode.Family != "torus" || byMode.Deprecation == "" {
		t.Fatalf("mode torus not normalized: %+v", byMode)
	}
	if byMode.Metrics != byFamily.Metrics {
		t.Fatalf("mode torus response: %+v vs %+v", byMode, byFamily)
	}
	// Conflicting spellings are a 400.
	rec, _ = post(t, h, "/v1/embed", `{"shape":"6x10","mode":"torus","family":"cylinder"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("conflicting mode/family accepted: %d %s", rec.Code, rec.Body.String())
	}
}

// TestCompareFamilyEcho: /v1/compare keys and echoes the family, and the
// decomposition row for a torus carries wrap metrics.
func TestCompareFamilyEcho(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/compare", `{"shape":"6x10"}`)
	var meshResp api.CompareResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &meshResp)
	if meshResp.Family != "mesh" || meshResp.Source != "computed" {
		t.Fatalf("mesh compare: family %q source %q", meshResp.Family, meshResp.Source)
	}

	rec, _ = post(t, h, "/v1/compare", `{"shape":"6x10","family":"torus"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("torus compare: %d %s", rec.Code, rec.Body.String())
	}
	var torusResp api.CompareResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &torusResp)
	if torusResp.Family != "torus" {
		t.Fatalf("torus compare echo: %+v", torusResp)
	}
	if torusResp.Source != "computed" {
		t.Fatal("torus compare served from the mesh cache entry")
	}
	for _, row := range torusResp.Rows {
		if row.Technique == "decomposition" && !row.Metrics.Wrap {
			t.Fatalf("torus decomposition row lost the wrap flag: %+v", row)
		}
	}
}

// TestEmbedCylinderAndTreeEndToEnd: the two new families are served with
// full fused metrics and verifiable maps.
func TestEmbedCylinderAndTreeEndToEnd(t *testing.T) {
	h := New(Config{}).Handler()
	for _, tc := range []struct {
		body    string
		family  string
		guest   string
		cubeDim int
	}{
		{`{"shape":"3x4x6","family":"cylinder","include_map":true}`, "cylinder", "3x4x6", 7},
		{`{"shape":"31","family":"tree","include_map":true}`, "tree", "31", 5},
	} {
		rec, _ := post(t, h, "/v1/embed", tc.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.family, rec.Code, rec.Body.String())
		}
		var resp api.EmbedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Family != tc.family || resp.Metrics.Family != tc.family {
			t.Fatalf("%s: family echo %q / %q", tc.family, resp.Family, resp.Metrics.Family)
		}
		if resp.Metrics.Guest != tc.guest || resp.Metrics.CubeDim != tc.cubeDim || !resp.Metrics.Minimal {
			t.Fatalf("%s metrics: %+v", tc.family, resp.Metrics)
		}
		e, err := embed.FromSerial(resp.Embedding)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("%s: served map invalid: %v", tc.family, err)
		}
		if got := e.Measure(); got != resp.Metrics {
			t.Fatalf("%s: served metrics %+v != remeasured %+v", tc.family, resp.Metrics, got)
		}
	}
}

// TestPlanFamilyValidation: bad family names and invalid family shapes are
// 400s, and /v1/plan echoes the family.
func TestPlanFamilyValidation(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/plan", `{"shape":"3x4x6","family":"cylinder"}`)
	var resp api.PlanResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if rec.Code != http.StatusOK || resp.Family != "cylinder" || resp.Plan == "" {
		t.Fatalf("cylinder plan: %d %+v", rec.Code, resp)
	}
	rec, _ = post(t, h, "/v1/plan", `{"shape":"4x4","family":"klein-bottle"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown family: %d", rec.Code)
	}
	rec, _ = post(t, h, "/v1/plan", `{"shape":"4x4","family":"foo"}`)
	env := decodeEnvelope(t, rec, http.StatusBadRequest, api.CodeBadRequest)
	if want := `unknown Family "foo" (want one of [mesh torus cylinder tree])`; env.Error.Message != want {
		t.Fatalf("unknown family message %q, want %q", env.Error.Message, want)
	}
	rec, _ = post(t, h, "/v1/plan", `{"shape":"6","family":"tree"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid tree shape: %d", rec.Code)
	}
	rec, _ = post(t, h, "/v1/embed", `{"shape":"4x4","family":"cylinder","mode":"gray"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("gray mode with non-mesh family: %d", rec.Code)
	}
}

// TestPermutedRingBound: the library plans torus 49x9 and 46x22 in the
// caller's axis order to ring plans that build above their bounds (7 over
// 4 and over 5), because a permuted [snake] node builds another snake.
// What is served stays consistent: /v1/plan serves one bound for both axis
// orders, and /v1/embed, which builds the canonical plan and relabels it,
// measures within that bound.
func TestPermutedRingBound(t *testing.T) {
	h := New(Config{}).Handler()
	for _, orders := range [][2]string{{"49x9", "9x49"}, {"46x22", "22x46"}} {
		var bounds [2]int
		for i, shape := range orders {
			body := `{"shape":"` + shape + `","family":"torus"}`
			rec, _ := post(t, h, "/v1/plan", body)
			var plan api.PlanResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &plan); err != nil || rec.Code != http.StatusOK || plan.DilationBound < 1 {
				t.Fatalf("plan %s: %d %s", shape, rec.Code, rec.Body)
			}
			rec, _ = post(t, h, "/v1/embed", body)
			var emb api.EmbedResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &emb); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("embed %s: %d %s", shape, rec.Code, rec.Body)
			}
			if emb.Metrics.Dilation > plan.DilationBound {
				t.Errorf("torus %s: embed measures dilation %d, plan serves bound %d", shape, emb.Metrics.Dilation, plan.DilationBound)
			}
			bounds[i] = plan.DilationBound
		}
		if bounds[0] != bounds[1] {
			t.Errorf("torus %s serves bound %d, %s bound %d", orders[0], bounds[0], orders[1], bounds[1])
		}
	}
}
