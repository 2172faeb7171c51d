package server

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Hand-rolled Prometheus text exposition (version 0.0.4).  The server's
// metric set is small and fixed, so instead of a client library it keeps
// typed counters/gauges/histograms with atomic hot paths and renders them on
// demand; the output is stable-sorted so scrapes are diffable.

// latencyBuckets are the histogram upper bounds in seconds, spanning the
// cached sub-millisecond hits through multi-second cold plans.
var latencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// endpointStats is one route's request accounting: responses by status
// code and a fixed-bucket latency histogram (plain per-bucket counts,
// cumulative on render), under one mutex.  instrument fetches a route's
// stats once, when Handler registers the route, so a request never looks
// its counters up by name.
type endpointStats struct {
	mu     sync.Mutex
	codes  map[int]uint64
	counts [len(latencyBuckets) + 1]uint64 // last is the +Inf overflow
	sum    float64
	n      uint64
}

func (e *endpointStats) observe(code int, seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets[:], seconds)
	e.mu.Lock()
	e.codes[code]++
	e.counts[i]++
	e.sum += seconds
	e.n++
	e.mu.Unlock()
}

// render writes the route's request counts (codes ascending) to reqs and
// its histogram to hist, from one reading.  A route that has served no
// request writes nothing.
func (e *endpointStats) render(reqs, hist *strings.Builder, endpoint string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		return
	}
	codes := make([]int, 0, len(e.codes))
	for code := range e.codes {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(reqs, "embedserver_requests_total{endpoint=%q,code=\"%d\"} %d\n", endpoint, code, e.codes[code])
	}
	cum := uint64(0)
	for j, ub := range latencyBuckets {
		cum += e.counts[j]
		fmt.Fprintf(hist, "embedserver_request_seconds_bucket{endpoint=%q,le=%q} %d\n", endpoint, fmtFloat(ub), cum)
	}
	cum += e.counts[len(latencyBuckets)]
	fmt.Fprintf(hist, "embedserver_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", endpoint, cum)
	fmt.Fprintf(hist, "embedserver_request_seconds_sum{endpoint=%q} %s\n", endpoint, fmtFloat(e.sum))
	fmt.Fprintf(hist, "embedserver_request_seconds_count{endpoint=%q} %d\n", endpoint, e.n)
}

// metrics is the server's metric registry.
type metrics struct {
	mu     sync.Mutex
	routes map[string]*endpointStats // by endpoint name

	inflight atomic.Int64
	shed     atomic.Uint64
	// Plan-resolution tier counters (see tiers.go): L0 result-cache hits,
	// closed-form classifier claims, artifact lookups served, and full
	// planner runs.
	tierL0         atomic.Uint64
	tierClosedForm atomic.Uint64
	tierArtifact   atomic.Uint64
	tierCompute    atomic.Uint64
	// Optimality-certificate counters (see certify.go): certificates
	// served on plan/embed/compare responses, and the subset whose
	// achieved metrics provably meet the lower bounds.
	certTotal   atomic.Uint64
	certOptimal atomic.Uint64
	// Live job-event streams (see sse.go): open subscribers, and events
	// written to them.
	sseSubscribers atomic.Int64
	sseEvents      atomic.Uint64
}

func newMetrics() *metrics { return &metrics{routes: make(map[string]*endpointStats)} }

// route returns endpoint's stats, creating them on first use, so every
// Handler built on one server counts a route in one place.
func (m *metrics) route(endpoint string) *endpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.routes[endpoint]
	if !ok {
		e = &endpointStats{codes: make(map[int]uint64)}
		m.routes[endpoint] = e
	}
	return e
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// render writes the exposition: the per-route families, routes sorted by
// name, then the caller's gauges (cache, planner, jobs, fabric, runtime),
// so the registry stays independent of them.
func (m *metrics) render(b *strings.Builder, gauges []gauge) {
	var hist strings.Builder
	b.WriteString("# HELP embedserver_requests_total Requests served, by endpoint and status code.\n")
	b.WriteString("# TYPE embedserver_requests_total counter\n")
	hist.WriteString("# HELP embedserver_request_seconds Request latency, by endpoint.\n")
	hist.WriteString("# TYPE embedserver_request_seconds histogram\n")
	m.mu.Lock() // held only here and at route registration, never per request
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.routes[name].render(b, &hist, name)
	}
	m.mu.Unlock()
	b.WriteString(hist.String())

	for i, g := range gauges {
		// Consecutive gauges sharing a name are one metric family with
		// several label sets; HELP/TYPE are emitted once per family.
		if i == 0 || gauges[i-1].name != g.name {
			fmt.Fprintf(b, "# HELP %s %s\n", g.name, g.help)
			fmt.Fprintf(b, "# TYPE %s %s\n", g.name, g.kind)
		}
		if g.labels != "" {
			fmt.Fprintf(b, "%s{%s} %s\n", g.name, g.labels, fmtFloat(g.value))
		} else {
			fmt.Fprintf(b, "%s %s\n", g.name, fmtFloat(g.value))
		}
	}
}

// metricFamilyNames is the canonical, sorted list of every metric family
// this server can expose on /metrics.  It is the contract three consumers
// check against: cmd/dashgen refuses to emit a dashboard panel whose PromQL
// references a family not listed here, the promtext conformance test
// requires a traffic-exercised scrape to expose exactly this set, and code
// review gets one place to look when a gauge is added.  Adding a metric to
// handleMetrics / runtimeGauges without extending this list is a test
// failure, not a silent drift.
var metricFamilyNames = []string{
	"embedserver_build_info",
	"embedserver_certificates_optimal_total",
	"embedserver_certificates_total",
	"embedserver_coalesced_total",
	"embedserver_fabric_chunks_dispatched_total",
	"embedserver_fabric_chunks_folded_total",
	"embedserver_fabric_chunks_requeued_total",
	"embedserver_fabric_peer_inflight",
	"embedserver_fabric_peers",
	"embedserver_inflight",
	"embedserver_jobs_cancelled",
	"embedserver_jobs_chunks_done_total",
	"embedserver_jobs_done",
	"embedserver_jobs_failed",
	"embedserver_jobs_queue_capacity",
	"embedserver_jobs_queued",
	"embedserver_jobs_result_bytes_total",
	"embedserver_jobs_retries_total",
	"embedserver_jobs_running",
	"embedserver_jobs_shapes_total",
	"embedserver_plan_artifact_records",
	"embedserver_plan_cache_entries",
	"embedserver_plan_cache_hits_total",
	"embedserver_plan_cache_misses_total",
	"embedserver_plan_tier_artifact_total",
	"embedserver_plan_tier_closed_form_total",
	"embedserver_plan_tier_compute_total",
	"embedserver_plan_tier_l0_total",
	"embedserver_request_seconds",
	"embedserver_requests_total",
	"embedserver_result_cache_entries",
	"embedserver_result_cache_evictions_total",
	"embedserver_result_cache_hits_total",
	"embedserver_result_cache_misses_total",
	"embedserver_shed_total",
	"embedserver_sse_events_total",
	"embedserver_sse_subscribers",
	"go_gc_pause_total_seconds",
	"go_gomaxprocs",
	"go_goroutines",
	"go_heap_alloc_bytes",
	"obs_span_overhead_seconds_total",
	"obs_spans_started_total",
	"obs_traces_started_total",
}

// MetricFamilies returns the canonical family-name list (a copy, sorted).
func MetricFamilies() []string {
	return append([]string(nil), metricFamilyNames...)
}

// gauge is one single-valued exposition line.  labels, when non-empty, is a
// pre-rendered label set ("k=\"v\",...") emitted inside braces.
type gauge struct {
	name, help, kind string
	value            float64
	labels           string
}

// runtimeGauges samples the Go runtime and the obs tracer for /metrics.
// ReadMemStats costs a stop-the-world on the order of tens of microseconds —
// fine at scrape frequency.
func runtimeGauges() []gauge {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := obs.ReadStats()
	return []gauge{
		{name: "go_goroutines", help: "Number of goroutines that currently exist.",
			kind: "gauge", value: float64(runtime.NumGoroutine())},
		{name: "go_heap_alloc_bytes", help: "Bytes of allocated heap objects.",
			kind: "gauge", value: float64(ms.HeapAlloc)},
		{name: "go_gc_pause_total_seconds", help: "Cumulative GC stop-the-world pause time.",
			kind: "counter", value: float64(ms.PauseTotalNs) / 1e9},
		{name: "go_gomaxprocs", help: "Value of GOMAXPROCS.",
			kind: "gauge", value: float64(runtime.GOMAXPROCS(0))},
		{name: "obs_spans_started_total", help: "Tracing spans started since process start.",
			kind: "counter", value: float64(st.Spans)},
		{name: "obs_traces_started_total", help: "Root traces started since process start.",
			kind: "counter", value: float64(st.Traces)},
		{name: "obs_span_overhead_seconds_total", help: "Cumulative time spent creating tracing spans.",
			kind: "counter", value: float64(st.OverheadNS) / 1e9},
	}
}

// buildInfoGauge is the conventional constant-1 info metric carrying build
// metadata as labels.
func buildInfoGauge() gauge {
	path, version := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Path != "" {
			path = bi.Path
		}
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
	}
	return gauge{
		name:   "embedserver_build_info",
		help:   "Build metadata; the value is always 1.",
		kind:   "gauge",
		value:  1,
		labels: fmt.Sprintf("go_version=%q,path=%q,version=%q", runtime.Version(), path, version),
	}
}
