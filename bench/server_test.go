package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/server"
	"repro/pkg/api"
	"repro/pkg/client"
)

// The delta parser must count exactly the requests a live server saw.
func TestPromDeltaCountsRequests(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL, client.WithRetries(0))
	before, err := scrape(ctx, http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []string{"3x4x5", "5x4x3", "3x4x5", "6x7x5", "2x9x3", "4x4x4", "3x4x5"}
	for _, s := range shapes {
		if _, err := c.Plan(ctx, api.PlanRequest{Shape: s}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range shapes[:3] {
		if _, err := c.Embed(ctx, api.EmbedRequest{Shape: s}); err != nil {
			t.Fatal(err)
		}
	}
	after, err := scrape(ctx, http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta(before, after)
	for key, want := range map[string]float64{
		`embedserver_requests_total{endpoint="plan",code="200"}`:  7,
		`embedserver_request_seconds_count{endpoint="plan"}`:      7,
		`embedserver_requests_total{endpoint="embed",code="200"}`: 3,
		`embedserver_request_seconds_count{endpoint="embed"}`:     3,
		// Plans are cached by exact shape, embeds by canonical shape.
		"embedserver_result_cache_hits_total":   2 + 2,
		"embedserver_result_cache_misses_total": 5 + 1,
		"embedserver_certificates_total":        10,
	} {
		if d[key] != want {
			t.Errorf("delta %s = %v, want %v", key, d[key], want)
		}
	}
	if d[`embedserver_request_seconds_sum{endpoint="plan"}`] <= 0 {
		t.Error("plan latency sum did not grow")
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := parseProm("# HELP x y\nx_total 3\n"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"novalue\n", "x_total three\n"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted garbage", bad)
		}
	}
}

func TestProcReaders(t *testing.T) {
	stat := "4242 (embed server) (x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 317 42 0 0 20 0 9 0 1000 0 0"
	if got, err := parseStatTicks(stat); err != nil || got != 317+42 {
		t.Errorf("parseStatTicks = %d, %v; want 359", got, err)
	}
	if _, err := parseStatTicks("4242 (truncated"); err == nil {
		t.Error("parseStatTicks accepted a line without fields")
	}
	status := "Name:\tembedserver\nVmPeak:\t  900 kB\nVmHWM:\t   2000 kB\nVmRSS:\t 1500 kB\n"
	if got, err := parseVmHWM(status); err != nil || got != 2.048 {
		t.Errorf("parseVmHWM = %v, %v; want 2.048", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}

	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for x, t0 := 0, time.Now(); time.Since(t0) < 100*time.Millisecond; x++ {
		sink = x
	}
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if cpu1 <= cpu0 {
		t.Errorf("CPU time did not grow over 100ms of spinning: %v → %v", cpu0, cpu1)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS = %v, %v", rss, err)
	}
}
