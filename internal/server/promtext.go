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

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/jobs"
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
// name, then the family table read from r.
func (m *metrics) render(b *strings.Builder, r *reading) {
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

	for _, f := range families {
		samples := f.read(r)
		if len(samples) == 0 {
			continue
		}
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range samples {
			fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, fmtFloat(s.value))
		}
	}
}

// reading is one scrape's view of the server and the Go runtime, taken once
// by handleMetrics.  artifact, jobs and fabric are nil while that subsystem
// is detached, so their families read no samples.
type reading struct {
	m        *metrics
	cache    ResultCacheStats
	plan     core.CacheStats
	obs      obs.Stats
	mem      runtime.MemStats // ReadMemStats stops the world for tens of µs: fine per scrape
	artifact *artifact.Header
	jobs     *jobs.Stats
	fabric   *fabric.Stats
}

// sample is one exposition line of a family.  labels is empty or a
// pre-rendered label set in braces ({k="v",...}).
type sample struct {
	labels string
	value  float64
}

// family is one gauge or counter family: HELP and TYPE are written once,
// then the samples read returns from one scrape's reading.  A family that
// reads no samples is omitted.
type family struct {
	name, help, kind string
	read             func(r *reading) []sample
}

type number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// one is a family's single unlabelled sample.
func one[T number](v T) []sample { return []sample{{value: float64(v)}} }

// of is one sample of field(x), or none when x, the stats of a detached
// subsystem, is nil.
func of[S any, T number](x *S, field func(*S) T) []sample {
	if x == nil {
		return nil
	}
	return one(field(x))
}

// families declares every gauge and counter family of /metrics, in
// exposition order after the two per-route families.  It is the one
// declaration: handleMetrics renders it and MetricFamilies lists it for
// cmd/dashgen and the conformance test.
var families = [...]family{
	{"embedserver_inflight", "API requests currently being served.", "gauge",
		func(r *reading) []sample { return one(r.m.inflight.Load()) }},
	{"embedserver_shed_total", "Requests shed with 429 at the concurrency limit.", "counter",
		func(r *reading) []sample { return one(r.m.shed.Load()) }},
	{"embedserver_coalesced_total", "Requests that joined an in-flight computation.", "counter",
		func(r *reading) []sample { return one(r.cache.Coalesced) }},
	{"embedserver_result_cache_hits_total", "Result-cache (LRU) hits.", "counter",
		func(r *reading) []sample { return one(r.cache.Hits) }},
	{"embedserver_result_cache_misses_total", "Computations performed (thundering herds count once).", "counter",
		func(r *reading) []sample { return one(r.cache.Misses) }},
	{"embedserver_result_cache_evictions_total", "Result-cache LRU evictions.", "counter",
		func(r *reading) []sample { return one(r.cache.Evictions) }},
	{"embedserver_result_cache_entries", "Result-cache current size.", "gauge",
		func(r *reading) []sample { return one(r.cache.Size) }},
	{"embedserver_plan_cache_hits_total", "Planner plan-cache hits.", "counter",
		func(r *reading) []sample { return one(r.plan.Hits) }},
	{"embedserver_plan_cache_misses_total", "Planner plan-cache misses.", "counter",
		func(r *reading) []sample { return one(r.plan.Misses) }},
	{"embedserver_plan_cache_entries", "Planner plan-cache current size.", "gauge",
		func(r *reading) []sample { return one(r.plan.Size) }},
	{"embedserver_plan_tier_l0_total", "Plan requests served from the in-memory result cache (L0).", "counter",
		func(r *reading) []sample { return one(r.m.tierL0.Load()) }},
	{"embedserver_plan_tier_closed_form_total", "Plan resolutions answered by the O(1) closed-form classifier.", "counter",
		func(r *reading) []sample { return one(r.m.tierClosedForm.Load()) }},
	{"embedserver_plan_tier_artifact_total", "Plan resolutions answered by the mmap'd plan-census artifact (L1).", "counter",
		func(r *reading) []sample { return one(r.m.tierArtifact.Load()) }},
	{"embedserver_plan_tier_compute_total", "Plan resolutions that ran the full decomposition planner (L2).", "counter",
		func(r *reading) []sample { return one(r.m.tierCompute.Load()) }},
	{"embedserver_certificates_total", "Optimality certificates served on plan/embed/compare responses.", "counter",
		func(r *reading) []sample { return one(r.m.certTotal.Load()) }},
	{"embedserver_certificates_optimal_total", "Served certificates whose achieved metrics provably meet the lower bounds.", "counter",
		func(r *reading) []sample { return one(r.m.certOptimal.Load()) }},
	{"embedserver_plan_artifact_records", "Records in the attached plan-census artifact.", "gauge",
		func(r *reading) []sample {
			return of(r.artifact, func(h *artifact.Header) uint64 { return h.RecordCount })
		}},
	{"embedserver_jobs_queued", "Batch jobs waiting for a runner.", "gauge",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) int { return s.Queued }) }},
	{"embedserver_jobs_running", "Batch jobs currently executing.", "gauge",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) int { return s.Running }) }},
	{"embedserver_jobs_done", "Batch jobs that finished successfully.", "gauge",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) int { return s.Done }) }},
	{"embedserver_jobs_failed", "Batch jobs that ended in failure.", "gauge",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) int { return s.Failed }) }},
	{"embedserver_jobs_cancelled", "Batch jobs cancelled by the caller.", "gauge",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) int { return s.Cancelled }) }},
	{"embedserver_jobs_queue_capacity", "Slots in the job submission queue.", "gauge",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) int { return s.QueueCap }) }},
	{"embedserver_jobs_chunks_done_total", "Job chunks completed (including resumed runs).", "counter",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) uint64 { return s.ChunksDone }) }},
	{"embedserver_jobs_shapes_total", "Shapes processed by batch jobs.", "counter",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) uint64 { return s.Shapes }) }},
	{"embedserver_jobs_retries_total", "Job chunk attempts retried after a panic or error.", "counter",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) uint64 { return s.Retries }) }},
	{"embedserver_jobs_result_bytes_total", "Bytes of NDJSON results committed to disk.", "counter",
		func(r *reading) []sample { return of(r.jobs, func(s *jobs.Stats) int64 { return s.ResultBytes }) }},
	{"embedserver_fabric_peers", "Remote fabric peers by health state.", "gauge",
		func(r *reading) []sample {
			if r.fabric == nil {
				return nil
			}
			return []sample{{`{state="up"}`, float64(r.fabric.Up)}, {`{state="down"}`, float64(r.fabric.Down)}}
		}},
	{"embedserver_fabric_chunks_dispatched_total", "Chunk executions dispatched to fabric peers.", "counter",
		func(r *reading) []sample { return of(r.fabric, func(s *fabric.Stats) uint64 { return s.Dispatched }) }},
	{"embedserver_fabric_chunks_requeued_total", "Chunks re-dispatched after a fabric peer failure.", "counter",
		func(r *reading) []sample { return of(r.fabric, func(s *fabric.Stats) uint64 { return s.Requeued }) }},
	{"embedserver_fabric_chunks_folded_total", "Distributed chunk results folded into job streams.", "counter",
		func(r *reading) []sample { return of(r.fabric, func(s *fabric.Stats) uint64 { return s.Folded }) }},
	{"embedserver_fabric_peer_inflight", "Chunks currently executing, by fabric peer.", "gauge",
		func(r *reading) (out []sample) {
			if r.fabric != nil {
				for _, p := range r.fabric.Peers {
					out = append(out, sample{fmt.Sprintf("{peer=%q}", p.Addr), float64(p.InFlight)})
				}
			}
			return out
		}},
	{"embedserver_sse_subscribers", "Live SSE job-event subscribers.", "gauge",
		func(r *reading) []sample { return one(r.m.sseSubscribers.Load()) }},
	{"embedserver_sse_events_total", "SSE events written to subscribers.", "counter",
		func(r *reading) []sample { return one(r.m.sseEvents.Load()) }},
	{"go_goroutines", "Number of goroutines that currently exist.", "gauge",
		func(*reading) []sample { return one(runtime.NumGoroutine()) }},
	{"go_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge",
		func(r *reading) []sample { return one(r.mem.HeapAlloc) }},
	{"go_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.", "counter",
		func(r *reading) []sample { return one(float64(r.mem.PauseTotalNs) / 1e9) }},
	{"go_gomaxprocs", "Value of GOMAXPROCS.", "gauge",
		func(*reading) []sample { return one(runtime.GOMAXPROCS(0)) }},
	{"obs_spans_started_total", "Tracing spans started since process start.", "counter",
		func(r *reading) []sample { return one(r.obs.Spans) }},
	{"obs_traces_started_total", "Root traces started since process start.", "counter",
		func(r *reading) []sample { return one(r.obs.Traces) }},
	{"obs_span_overhead_seconds_total", "Cumulative time spent creating tracing spans.", "counter",
		func(r *reading) []sample { return one(float64(r.obs.OverheadNS) / 1e9) }},
	// The conventional constant-1 info metric, carrying build metadata as
	// labels.
	{"embedserver_build_info", "Build metadata; the value is always 1.", "gauge",
		func(*reading) []sample {
			path, version := "unknown", "unknown"
			if bi, ok := debug.ReadBuildInfo(); ok {
				if bi.Path != "" {
					path = bi.Path
				}
				if bi.Main.Version != "" {
					version = bi.Main.Version
				}
			}
			return []sample{{fmt.Sprintf("{go_version=%q,path=%q,version=%q}", runtime.Version(), path, version), 1}}
		}},
}

// MetricFamilies returns the name of every family /metrics can expose,
// sorted: the two per-route families and the family table's.
func MetricFamilies() []string {
	names := []string{"embedserver_requests_total", "embedserver_request_seconds"}
	for _, f := range families {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}
