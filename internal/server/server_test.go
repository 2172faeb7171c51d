package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/jobs"
	"repro/internal/mesh"
	"repro/pkg/api"
)

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &fields); err != nil {
		t.Fatalf("%s: non-JSON response %q: %v", path, rec.Body.String(), err)
	}
	return rec, fields
}

func TestHealthz(t *testing.T) {
	h := New(Config{}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestPlanEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/plan", `{"shape":"5x6x7"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
	}
	var resp api.PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != api.Version || resp.CubeDim != 8 || resp.Plan == "" || resp.Source != "computed" {
		t.Fatalf("plan response: %+v", resp)
	}
	rec, _ = post(t, h, "/v1/plan", `{"shape":"5x6x7"}`)
	var again api.PlanResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &again)
	if again.Source != "cache" || again.Plan != resp.Plan {
		t.Fatalf("second plan not cached: %+v", again)
	}
}

func TestEmbedEndpointWithMap(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"5x6x7","include_map":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("embed: %d %s", rec.Code, rec.Body.String())
	}
	var resp api.EmbedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metrics.Guest != "5x6x7" || resp.Metrics.CubeDim != 8 {
		t.Fatalf("metrics: %+v", resp.Metrics)
	}
	if resp.Embedding == nil {
		t.Fatal("include_map: no embedding in response")
	}
	e, err := embed.FromSerial(resp.Embedding)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := e.Measure(); got != resp.Metrics {
		t.Fatalf("served metrics %+v != remeasured %+v", resp.Metrics, got)
	}
}

// TestEmbedPermutedHit exercises the canonical-shape result cache: a
// permuted request must be a cache hit and still receive a valid embedding
// of ITS axis order with identical metric values.
func TestEmbedPermutedHit(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"5x6x7","include_map":true}`)
	var first api.EmbedResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &first)

	rec, _ = post(t, h, "/v1/embed", `{"shape":"7x6x5","include_map":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("permuted embed: %d %s", rec.Code, rec.Body.String())
	}
	var resp api.EmbedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "cache" {
		t.Fatalf("permuted request source = %q, want cache", resp.Source)
	}
	if resp.Metrics.Guest != "7x6x5" || resp.Embedding.Guest != "7x6x5" {
		t.Fatalf("guest not relabeled: %+v", resp.Metrics)
	}
	e, err := embed.FromSerial(resp.Embedding)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatalf("relabeled map invalid: %v", err)
	}
	got := e.Measure()
	want := first.Metrics
	want.Guest = "7x6x5"
	if got != want {
		t.Fatalf("relabeled metrics %+v, want %+v", got, want)
	}
	if st := s.CacheStats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (permutations share one entry)", st.Misses)
	}
}

func TestEmbedModes(t *testing.T) {
	h := New(Config{}).Handler()
	// The response mode is normalized: the deprecated alias "torus" is
	// served as family torus, mode decomposition, with a deprecation note.
	wantMode := map[string]string{"gray": "gray", "torus": "decomposition"}
	for mode, wantDil := range map[string]int{"gray": 1, "torus": 0} {
		rec, _ := post(t, h, "/v1/embed", fmt.Sprintf(`{"shape":"6x10","mode":%q}`, mode))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", mode, rec.Code, rec.Body.String())
		}
		var resp api.EmbedResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &resp)
		if resp.Mode != wantMode[mode] {
			t.Fatalf("mode = %q", resp.Mode)
		}
		if (mode == "torus") != (resp.Deprecation != "") {
			t.Fatalf("mode %s: deprecation = %q", mode, resp.Deprecation)
		}
		if mode == "gray" && resp.Metrics.Dilation != wantDil {
			t.Fatalf("gray dilation = %d", resp.Metrics.Dilation)
		}
		if mode == "torus" && !resp.Metrics.Wrap {
			t.Fatal("torus metrics not marked wraparound")
		}
	}
}

func TestCompareEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/compare", `{"shape":"12x20","simnet":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("compare: %d %s", rec.Code, rec.Body.String())
	}
	var resp api.CompareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	techniques := make(map[string]bool)
	for _, row := range resp.Rows {
		techniques[row.Technique] = true
	}
	for _, want := range []string{"gray", "snake", "rowmajor", "decomposition"} {
		if !techniques[want] {
			t.Fatalf("missing technique %q in %v", want, resp.Rows)
		}
	}
	if len(resp.Simnet) != len(resp.Rows) {
		t.Fatalf("simnet stats for %d of %d techniques", len(resp.Simnet), len(resp.Rows))
	}
	for name, st := range resp.Simnet {
		if st.Messages == 0 || st.Makespan == 0 {
			t.Fatalf("%s: empty round stats %+v", name, st)
		}
	}
}

func TestBadRequests(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/plan", `{"shape":"5xx7"}`, http.StatusBadRequest},
		{"/v1/plan", `not json`, http.StatusBadRequest},
		{"/v1/plan", `{"shape":"5x6x7"} trailing`, http.StatusBadRequest},
		{"/v1/plan", `{"shap":"5x6x7"}`, http.StatusBadRequest}, // unknown field
		{"/v1/embed", `{"shape":"5x6x7","mode":"quantum"}`, http.StatusBadRequest},
		{"/v1/embed", `{"shape":""}`, http.StatusBadRequest},
		{"/v1/compare", `{"shape":"0x4"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, fields := post(t, h, c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("%s %q: code %d, want %d", c.path, c.body, rec.Code, c.want)
		}
		if _, ok := fields["error"]; !ok {
			t.Errorf("%s %q: no error field in %s", c.path, c.body, rec.Body.String())
		}
	}
}

func TestOversizedShape422(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"257x256x256"}`) // 2^24 + 2^16 nodes
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized: %d %s", rec.Code, rec.Body.String())
	}
	// Absurd axes must 422 without overflowing the node count.
	rec, _ = post(t, h, "/v1/plan", `{"shape":"1000000000x1000000000x1000000000"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("overflow shape: %d %s", rec.Code, rec.Body.String())
	}
}

// TestLongShape422: length-1 axes cost no nodes, so only maxAxes bounds a
// shape of them.  A body of such axes just under the 1 MiB cap is a 422 on
// every guest route, whose message names the axis count, not the shape;
// maxAxes of them still answer 200.
func TestLongShape422(t *testing.T) {
	h := New(Config{}).Handler()
	const prefix, suffix = `{"shape":"1`, `"}`
	extra := (maxBodyBytes-len(prefix)-len(suffix))/2 - 1 // "x1" per axis after the first
	long := prefix + strings.Repeat("x1", extra) + suffix
	ones := `{"shape":"1` + strings.Repeat("x1", maxAxes-1) + `"}`
	for _, path := range []string{"/v1/plan", "/v1/embed", "/v1/compare"} {
		rec, fields := post(t, h, path, long)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s, %d axes: %d", path, extra+1, rec.Code)
		}
		msg := string(fields["error"])
		if !strings.Contains(msg, fmt.Sprintf("shape has %d axes, above the %d-axis limit", extra+1, maxAxes)) || len(msg) > 512 {
			t.Errorf("%s, %d axes: error %.512s", path, extra+1, msg)
		}
		if rec, _ := post(t, h, path, ones); rec.Code != http.StatusOK {
			t.Errorf("%s, %d axes of 1: %d %s", path, maxAxes, rec.Code, rec.Body)
		}
	}
}

// FuzzParseGuest: parseGuest, the one prelude of /v1/plan, /v1/embed and
// /v1/compare, never panics and refuses with a 4xx; every guest it accepts
// passes guest.Validate, has at most maxAxes axes and maxNodes nodes, and
// parses back to itself from its own family and shape strings.  The corpus
// (testdata/fuzz/FuzzParseGuest) holds the guests of the bad-request tests
// above, a valid guest of each family and a shape one axis over maxAxes.
func FuzzParseGuest(f *testing.F) {
	f.Fuzz(func(t *testing.T, family, shape string) {
		fam, sh, err := parseGuest(family, shape, maxNodes)
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) || ae.status/100 != 4 {
				t.Fatalf("%q %q: refused with %v, want a 4xx", family, shape, err)
			}
			return
		}
		if err := guest.Validate(fam, sh); err != nil {
			t.Fatalf("%q %q: accepted %s %s: %v", family, shape, fam, sh, err)
		}
		if sh.Dims() > maxAxes {
			t.Fatalf("%q %q: accepted %d axes, above %d", family, shape, sh.Dims(), maxAxes)
		}
		if _, ok := sh.NodesWithin(maxNodes); !ok {
			t.Fatalf("%q %q: accepted %s above %d nodes", family, shape, sh, maxNodes)
		}
		if fam2, sh2, err := parseGuest(fam.String(), sh.String(), maxNodes); err != nil || fam2 != fam || !slices.Equal(sh2, sh) {
			t.Fatalf("%q %q: accepted %s %s, which parses back to %s %s, %v", family, shape, fam, sh, fam2, sh2, err)
		}
	})
}

// FuzzRequestBody posts each fuzzed body to /v1/plan, /v1/embed,
// /v1/compare and /v1/jobs on a server with a job manager attached: every
// answer is a 2xx or a 4xx, never a 5xx or a panic.  To keep a run short
// it leaves out a route whose request the body decodes to when that
// request asks for more than a little work: a guest of more than 4,096
// nodes, or a job beyond a tiny domain (census or epsilon max_n above 2,
// plansweep or plancensus dims above 3 or max_axis above 8).  A body the
// route cannot decode is never left out.  The corpus
// (testdata/fuzz/FuzzRequestBody) holds the bodies of the bad-request
// tests, a valid request of each route and a shape one axis over maxAxes.
func FuzzRequestBody(f *testing.F) {
	_, h := newJobServer(f, jobs.Config{})
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/plan", "/v1/embed", "/v1/compare", "/v1/jobs"} {
			if costly(path, body) {
				continue
			}
			if rec := doReq(t, h, http.MethodPost, path, body, nil); rec.Code/100 != 2 && rec.Code/100 != 4 {
				t.Fatalf("%s %q: answered %d %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}

// costly reports whether body decodes, as the route at path decodes it, to
// a request FuzzRequestBody leaves out: a guest of more than 4,096 nodes or
// a job beyond a tiny domain.
func costly(path, body string) bool {
	decodes := func(v any) bool {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v) == nil && !dec.More()
	}
	bigGuest := func(shape string) bool {
		sh, err := mesh.ParseShape(shape)
		if err != nil {
			return false
		}
		_, ok := sh.NodesWithin(1 << 12)
		return !ok
	}
	switch path {
	case "/v1/plan":
		var req api.PlanRequest
		return decodes(&req) && bigGuest(req.Shape)
	case "/v1/embed":
		var req api.EmbedRequest
		return decodes(&req) && bigGuest(req.Shape)
	case "/v1/compare":
		var req api.CompareRequest
		return decodes(&req) && bigGuest(req.Shape)
	}
	var req api.JobSubmitRequest
	if !decodes(&req) {
		return false
	}
	return req.Census != nil && req.Census.MaxN > 2 ||
		req.Epsilon != nil && req.Epsilon.MaxN > 2 ||
		req.PlanSweep != nil && (req.PlanSweep.Dims > 3 || req.PlanSweep.MaxAxis > 8) ||
		req.PlanCensus != nil && (req.PlanCensus.Dims > 3 || req.PlanCensus.MaxAxis > 8)
}

func TestTimeout504(t *testing.T) {
	h := New(Config{Timeout: time.Nanosecond}).Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"32x32x32"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout: %d %s", rec.Code, rec.Body.String())
	}
}

// TestTimeoutStillCaches: the detached computation outlives the timed-out
// request and serves the retry from cache.
func TestTimeoutStillCaches(t *testing.T) {
	s := New(Config{Timeout: time.Nanosecond})
	h := s.Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"23x29x31"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("first: %d", rec.Code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.CacheStats().Size == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detached computation never landed in the cache")
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.CacheStats(); st.Misses != 1 {
		t.Fatalf("misses = %d", st.Misses)
	}
}

func TestShed429(t *testing.T) {
	s := New(Config{MaxInflight: 1})
	h := s.Handler()
	body, release := io.Pipe()
	done := make(chan int)
	go func() {
		// Occupy the single slot with a request whose body does not arrive
		// until released: instrument holds the slot while the handler reads
		// the body.
		req := httptest.NewRequest(http.MethodPost, "/v1/embed", body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		done <- rec.Code
	}()
	for s.m.inflight.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	rec, _ := post(t, h, "/v1/plan", `{"shape":"3x3"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("no Retry-After header")
	}
	if _, err := io.WriteString(release, `{"shape":"3x5x7"}`); err != nil {
		t.Fatal(err)
	}
	release.Close()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocked request finished with %d", code)
	}
	if got := s.m.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d", got)
	}
}

// TestCoalescing hammers one shape from 32 goroutines and asserts the
// computation ran exactly once (one result-cache miss); run under -race via
// the Makefile race target.
func TestCoalescing(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	const clients = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make([]int, clients)
	bodies := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req := httptest.NewRequest(http.MethodPost, "/v1/embed", strings.NewReader(`{"shape":"23x9x5"}`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
			bodies[i] = rec.Body.String()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d: %d %s", i, code, bodies[i])
		}
	}
	st := s.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("result-cache misses = %d, want exactly 1", st.Misses)
	}
	if got := st.Hits + st.Coalesced; got != clients-1 {
		t.Fatalf("hits(%d)+coalesced(%d) = %d, want %d", st.Hits, st.Coalesced, got, clients-1)
	}
	// All clients saw the same metrics, modulo the source field.
	var want api.EmbedResponse
	_ = json.Unmarshal([]byte(bodies[0]), &want)
	for i := 1; i < clients; i++ {
		var got api.EmbedResponse
		_ = json.Unmarshal([]byte(bodies[i]), &got)
		if got.Metrics != want.Metrics || got.Plan != want.Plan {
			t.Fatalf("client %d diverged: %+v vs %+v", i, got.Metrics, want.Metrics)
		}
	}
}

// TestGracefulShutdown starts a real listener, parks a slow request on it,
// and asserts http.Server.Shutdown lets the request complete.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{})
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()

	type result struct {
		code int
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/embed", "application/json",
			strings.NewReader(`{"shape":"37x41x43"}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- result{code: resp.StatusCode, body: string(body)}
	}()
	for s.m.inflight.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: %d %s", r.code, r.body)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post(t, h, "/v1/embed", `{"shape":"5x6x7"}`)
	post(t, h, "/v1/embed", `{"shape":"5x6x7"}`)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		`embedserver_requests_total{endpoint="embed",code="200"} 2`,
		`embedserver_request_seconds_count{endpoint="embed"} 2`,
		`embedserver_request_seconds_bucket{endpoint="embed",le="+Inf"} 2`,
		"embedserver_result_cache_hits_total 1",
		"embedserver_result_cache_misses_total 1",
		"embedserver_plan_cache_entries",
		"embedserver_inflight 0",
		"embedserver_shed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q\n%s", want, body)
		}
	}
}
