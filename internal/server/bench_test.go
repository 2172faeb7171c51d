package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The server-path benchmarks drive the /v1/embed handler through httptest
// for the repo's perf trajectory (BENCH_PR3.json): the cached-vs-uncached
// gap is the service's whole reason to exist.

func benchEmbedRequest(tb testing.TB, h http.Handler, shape string) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/embed", strings.NewReader(`{"shape":"`+shape+`"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: %d %s", shape, rec.Code, rec.Body.String())
	}
}

// raceEnabled is set under the race detector (race_test.go), where
// allocation counts vary.
var raceEnabled bool

// TestEmbedHandlerCachedAllocs holds the cached /v1/embed path — the primed
// requests of BenchmarkEmbedHandlerCached64 and Cached16 — to its
// allocation budget: the count measured when the budget was set, inside
// the 60 that EXP-P4 and DESIGN §4f require.
func TestEmbedHandlerCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const budget = 59
	for _, shape := range []string{"64x64x64", "16x16x16"} {
		h := New(Config{}).Handler()
		benchEmbedRequest(t, h, shape) // prime the cache
		if got := testing.AllocsPerRun(50, func() { benchEmbedRequest(t, h, shape) }); got > budget {
			t.Errorf("cached /v1/embed %s: %v allocs/op, budget %d", shape, got, budget)
		}
	}
}

func BenchmarkEmbedHandlerCached64(b *testing.B) {
	h := New(Config{}).Handler()
	benchEmbedRequest(b, h, "64x64x64") // prime the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEmbedRequest(b, h, "64x64x64")
	}
}

func BenchmarkEmbedHandlerUncached64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchEmbedRequest(b, New(Config{}).Handler(), "64x64x64")
	}
}

func BenchmarkEmbedHandlerCached16(b *testing.B) {
	h := New(Config{}).Handler()
	benchEmbedRequest(b, h, "16x16x16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEmbedRequest(b, h, "16x16x16")
	}
}

func BenchmarkEmbedHandlerUncached16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchEmbedRequest(b, New(Config{}).Handler(), "16x16x16")
	}
}

// BenchmarkEmbedHandlerDebugTrace64 is the cached handler with ?debug=trace:
// the full per-request span tree, the cache-bypassed provenance run and the
// doubled encode.  Its gap to BenchmarkEmbedHandlerCached64 is the price of
// asking for a trace — paid only by requests that ask.
func BenchmarkEmbedHandlerDebugTrace64(b *testing.B) {
	h := New(Config{}).Handler()
	benchEmbedRequest(b, h, "64x64x64")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/embed?debug=trace", strings.NewReader(`{"shape":"64x64x64"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
	}
}
