package main

import (
	"slices"
	"time"
)

// metricSpec is a metric as BENCHMARK.json lists it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees that repeat closely
// enough to carry a regression bound, printed by every run with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},                    // median exec → first 200 on /healthz over the setup boots
	{"dil2_minimal_share", "fraction", "higher"}, // answers with dilation ≤ 2 in the minimal cube
}

// observed are the client-observed throughput, latency and server memory.
// On a shared two-core machine they move by 10 to 30% between runs of the
// same inputs, more than a regression bound may allow, so they are listed
// with the layer metrics; the other layer metrics' predictions name them.
var observed = []metricSpec{
	{"client.shapes_per_s", "shapes/s", "higher"}, // median over rounds of shapes answered per timed second
	{"client.latency_p50_ms", "ms", "lower"},      // send until the reply is decoded
	{"client.latency_p99_ms", "ms", "lower"},      // nearest rank
	{"server.rss_peak_mb", "MB", "lower"},         // median over rounds of the server's VmHWM
}

// perLayer are the observed metrics and the single-layer metrics, printed
// by every run with --trace 1.  Counts named without a rate are per round,
// that is per server lifetime.
var perLayer = append(slices.Clone(observed), []metricSpec{
	{"server.result_cache_hit_ratio", "fraction", "higher"},
	{"server.result_cache_evictions", "count", "lower"},
	{"server.plan_mean_ms", "ms", "lower"},
	{"server.embed_mean_ms", "ms", "lower"},
	{"server.compare_mean_ms", "ms", "lower"},
	{"server.cpu_ms_per_op", "ms", "lower"},
	{"server.gc_pause_ms", "ms", "lower"},
	{"server.shed", "count", "lower"},
	{"server.coalesced", "count", "lower"},
	{"client.overhead_share", "fraction", "lower"},
	{"core.closed_form_share", "fraction", "higher"},
	{"core.planner_hit_ratio", "fraction", "higher"},
	{"core.planner_entries", "count", "lower"},
	{"bounds.optimal_share", "fraction", "higher"},
	{"jobs.chunks", "count", "lower"},
	{"jobs.retries", "count", "lower"},
	{"jobs.result_mb", "MB", "lower"},
	{"api.decode_us", "us", "lower"},
	{"mesh.parse_us", "us", "lower"},
	{"guest.canonical_us", "us", "lower"},
	{"core.classify_us", "us", "lower"},
	{"core.plan_ms", "ms", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"embed.verify_ms", "ms", "lower"},
	{"embed.measure_ms", "ms", "lower"},
	{"bounds.certify_us", "us", "lower"},
	{"embed.serial_us", "us", "lower"},
	{"api.encode_us", "us", "lower"},
	{"jobs.chunk_ms", "ms", "lower"},
	{"jobs.unattributed_share", "fraction", "lower"},
	{"trace.unattributed_share", "fraction", "lower"},
	{"trace.overhead_share", "fraction", "lower"},
}...)

// move is a prediction written down before measuring: a change to the
// layer metric should move this end-to-end or observed metric on this
// workload.
type move struct{ metric, workload string }

const (
	obsRate = "client.shapes_per_s"
	obsP50  = "client.latency_p50_ms"
	obsP99  = "client.latency_p99_ms"
	obsRSS  = "server.rss_peak_mb"
)

var layerMoves = map[string][]move{
	"server.result_cache_hit_ratio": {{obsRate, serveHot}},
	"server.result_cache_evictions": {{obsRSS, planCold}},
	"server.plan_mean_ms":           {{obsP50, planCold}},
	"server.embed_mean_ms":          {{obsP50, embedCold}},
	"server.compare_mean_ms":        {{obsP50, serveHot}},
	"server.cpu_ms_per_op":          {{obsRate, serveHot}},
	"server.gc_pause_ms":            {{obsP99, embedCold}},
	"server.shed":                   {{obsRate, serveHot}},
	"server.coalesced":              {{obsRate, serveHot}},
	"client.overhead_share":         {{obsP50, serveHot}},
	"core.closed_form_share":        {{obsP50, planCold}, {obsRate, sweepJob}},
	"core.planner_hit_ratio":        {{obsP50, planCold}, {obsRate, sweepJob}},
	"core.planner_entries":          {{obsRSS, planCold}},
	"bounds.optimal_share":          {{"dil2_minimal_share", planCold}, {"dil2_minimal_share", sweepJob}},
	"jobs.chunks":                   {{obsRate, sweepJob}},
	"jobs.retries":                  {{obsRate, sweepJob}},
	"jobs.result_mb":                {{obsRate, sweepJob}},
	"api.decode_us":                 {{obsRate, serveHot}},
	"mesh.parse_us":                 {{obsRate, serveHot}},
	"guest.canonical_us":            {{obsRate, serveHot}},
	"core.classify_us":              {{obsP50, planCold}},
	"core.plan_ms":                  {{obsP50, planCold}, {obsRate, sweepJob}},
	"core.build_ms":                 {{obsP50, embedCold}},
	"embed.verify_ms":               {{obsP50, embedCold}},
	"embed.measure_ms":              {{obsP50, embedCold}},
	"bounds.certify_us":             {{obsRate, serveHot}},
	"embed.serial_us":               {{obsRate, serveHot}},
	"api.encode_us":                 {{obsRate, serveHot}},
	"jobs.chunk_ms":                 {{obsRate, sweepJob}},
	"jobs.unattributed_share":       {{obsRate, sweepJob}},
	"trace.unattributed_share":      {{obsP50, serveHot}},
	"trace.overhead_share":          {{obsP50, serveHot}},
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndValues computes the end-to-end metrics of a run;
// dil2_minimal_share comes from the fixed rounds.
func endToEndValues(rs *runStats) map[string]float64 {
	f := &rs.fixed
	return map[string]float64{
		"setup_s":            median(rs.boots).Seconds(),
		"dil2_minimal_share": ratio(float64(f.good), float64(f.answers)),
	}
}

// layerValues computes the observed and per-layer metrics: client timings,
// /metrics deltas over the timed phases and /proc readings, plus the
// replay's stage times when tr is non-nil.  Times come from every round,
// counts from the fixed rounds.
func layerValues(workload string, rs *runStats, tr *traceResult) map[string]float64 {
	a, f := &rs.all, &rs.fixed
	lat := slices.Clone(a.lat)
	slices.Sort(lat)
	p, c := a.prom, f.prom
	rounds := float64(a.rounds)
	fixed := float64(f.rounds)
	hits, misses := c["embedserver_result_cache_hits_total"], c["embedserver_result_cache_misses_total"]
	cf := c["embedserver_plan_tier_closed_form_total"]
	tiers := cf + c["embedserver_plan_tier_compute_total"] + c["embedserver_plan_tier_artifact_total"]
	phits := c["embedserver_plan_cache_hits_total"]
	meanMS := func(ep string) float64 {
		return 1000 * ratio(p[`embedserver_request_seconds_sum{endpoint="`+ep+`"}`], p[`embedserver_request_seconds_count{endpoint="`+ep+`"}`])
	}
	serverT := a.serverT
	optimal := ratio(c["embedserver_certificates_optimal_total"], c["embedserver_certificates_total"])
	if workload == sweepJob {
		// Job rows carry their own certificates; the server's request
		// histogram does not cover the job run.
		serverT = a.jobWall
		optimal = ratio(float64(f.jobOpt), float64(f.jobRows))
	}
	v := map[string]float64{
		obsRate:                         median(a.rates),
		obsP50:                          ms(percentile(lat, 50)),
		obsP99:                          ms(percentile(lat, 99)),
		obsRSS:                          median(a.rssMB),
		"server.result_cache_hit_ratio": ratio(hits, hits+misses),
		"server.result_cache_evictions": c["embedserver_result_cache_evictions_total"] / fixed,
		"server.plan_mean_ms":           meanMS("plan"),
		"server.embed_mean_ms":          meanMS("embed"),
		"server.compare_mean_ms":        meanMS("compare"),
		"server.cpu_ms_per_op":          ratio(ms(a.cpu), float64(a.attempted)),
		"server.gc_pause_ms":            1000 * p["go_gc_pause_total_seconds"] / rounds,
		"server.shed":                   c["embedserver_shed_total"] / fixed,
		"server.coalesced":              c["embedserver_coalesced_total"] / fixed,
		"client.overhead_share":         1 - ratio(serverT.Seconds(), a.clientT.Seconds()),
		"core.closed_form_share":        ratio(cf, tiers),
		"core.planner_hit_ratio":        ratio(phits, phits+c["embedserver_plan_cache_misses_total"]),
		"core.planner_entries":          f.entries / fixed,
		"bounds.optimal_share":          optimal,
		"jobs.chunks":                   c["embedserver_jobs_chunks_done_total"] / fixed,
		"jobs.retries":                  c["embedserver_jobs_retries_total"] / fixed,
		"jobs.result_mb":                c["embedserver_jobs_result_bytes_total"] / 1e6 / fixed,
	}
	if tr == nil {
		return v
	}
	perOp := func(stage string, unit time.Duration) float64 {
		return ratio(float64(tr.self[stage])/float64(unit), float64(tr.ops))
	}
	for _, s := range []struct {
		metric, stage string
		unit          time.Duration
	}{
		{"api.decode_us", stDecode, time.Microsecond},
		{"mesh.parse_us", stParse, time.Microsecond},
		{"guest.canonical_us", stCanonical, time.Microsecond},
		{"core.classify_us", stClassify, time.Microsecond},
		{"core.plan_ms", stPlan, time.Millisecond},
		{"core.build_ms", stBuild, time.Millisecond},
		{"embed.verify_ms", stVerify, time.Millisecond},
		{"embed.measure_ms", stMeasure, time.Millisecond},
		{"bounds.certify_us", stCertify, time.Microsecond},
		{"embed.serial_us", stSerial, time.Microsecond},
		{"api.encode_us", stEncode, time.Microsecond},
	} {
		v[s.metric] = perOp(s.stage, s.unit)
	}
	v["jobs.chunk_ms"] = ratio(ms(tr.self[stChunk]), float64(tr.calls[stChunk]))
	v["trace.overhead_share"] = tr.overhead
	if workload == sweepJob {
		// The replayed job's chunks against the mean server-side job time.
		un := 1 - ratio(tr.self[stChunk].Seconds()/float64(tr.jobOps), a.jobWall.Seconds()/rounds)
		v["jobs.unattributed_share"], v["trace.unattributed_share"] = un, un
		return v
	}
	// The replayed stages per op against the mean server-side request time.
	var staged time.Duration
	for _, s := range workloadStages[workload] {
		staged += tr.self[s]
	}
	reqs := 0.0
	for _, ep := range []string{"plan", "embed", "compare"} {
		reqs += p[`embedserver_request_seconds_count{endpoint="`+ep+`"}`]
	}
	v["jobs.unattributed_share"] = 0
	v["trace.unattributed_share"] = 1 - ratio(staged.Seconds()/float64(tr.ops), ratio(a.serverT.Seconds(), reqs))
	return v
}
