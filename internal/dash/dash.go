// Package dash defines the Grafana dashboard pack as code.  The dashboards
// deploy/grafana ships are rendered from these definitions by cmd/dashgen;
// every panel query is validated against server.MetricFamilies() — the
// canonical family list of the /metrics exposition — so a dashboard can
// never reference a metric the server does not register.
package dash

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"repro/internal/server"
)

// Target is one PromQL query on a panel.
type Target struct {
	Expr   string `json:"expr"`
	Legend string `json:"legendFormat,omitempty"`
	RefID  string `json:"refId"`
}

// GridPos is a panel's position on Grafana's 24-column grid.
type GridPos struct {
	H int `json:"h"`
	W int `json:"w"`
	X int `json:"x"`
	Y int `json:"y"`
}

// Panel is one dashboard panel in the (small) subset of Grafana's panel
// model this pack needs.
type Panel struct {
	ID          int      `json:"id"`
	Title       string   `json:"title"`
	Type        string   `json:"type"` // timeseries | stat
	Description string   `json:"description,omitempty"`
	GridPos     GridPos  `json:"gridPos"`
	Targets     []Target `json:"targets"`
	Datasource  string   `json:"datasource"`
	Unit        string   `json:"-"` // folded into fieldConfig on marshal
}

// panelJSON is the marshalled form: Unit moves into Grafana's fieldConfig.
type panelJSON struct {
	Panel
	FieldConfig map[string]any `json:"fieldConfig,omitempty"`
}

// Dashboard is the top-level document.
type Dashboard struct {
	UID           string   `json:"uid"`
	Title         string   `json:"title"`
	Tags          []string `json:"tags"`
	Timezone      string   `json:"timezone"`
	Refresh       string   `json:"refresh"`
	SchemaVersion int      `json:"schemaVersion"`
	Version       int      `json:"version"`
	Time          struct {
		From string `json:"from"`
		To   string `json:"to"`
	} `json:"time"`
	Panels []Panel `json:"panels"`
}

// row lays panels out two-across (12 columns each, 8 rows tall); stat
// panels are half height.
func layout(panels []Panel) []Panel {
	y := 0
	for i := range panels {
		h := 8
		if panels[i].Type == "stat" {
			h = 4
		}
		panels[i].ID = i + 1
		panels[i].GridPos = GridPos{H: h, W: 12, X: (i % 2) * 12, Y: y}
		panels[i].Datasource = "${DS_PROMETHEUS}"
		if i%2 == 1 {
			y += h
		}
	}
	return panels
}

func ts(title, desc, unit string, targets ...Target) Panel {
	for i := range targets {
		targets[i].RefID = string(rune('A' + i))
	}
	return Panel{Title: title, Type: "timeseries", Description: desc, Unit: unit, Targets: targets}
}

func stat(title, desc, unit string, targets ...Target) Panel {
	for i := range targets {
		targets[i].RefID = string(rune('A' + i))
	}
	return Panel{Title: title, Type: "stat", Description: desc, Unit: unit, Targets: targets}
}

func q(expr, legend string) Target { return Target{Expr: expr, Legend: legend} }

// Definitions returns the dashboard pack, laid out and numbered.
func Definitions() []Dashboard {
	serving := Dashboard{
		UID:   "embedserver-serving",
		Title: "Embedserver · Serving",
		Tags:  []string{"embedserver"},
		Panels: layout([]Panel{
			ts("Request rate", "Requests per second by endpoint.", "reqps",
				q(`sum by (endpoint) (rate(embedserver_requests_total[5m]))`, "{{endpoint}}")),
			ts("Non-2xx rate", "Error responses per second by endpoint and code.", "reqps",
				q(`sum by (endpoint, code) (rate(embedserver_requests_total{code!~"2.."}[5m]))`, "{{endpoint}} {{code}}")),
			ts("Latency percentiles", "Request latency p50/p95/p99 across endpoints.", "s",
				q(`histogram_quantile(0.50, sum by (le) (rate(embedserver_request_seconds_bucket[5m])))`, "p50"),
				q(`histogram_quantile(0.95, sum by (le) (rate(embedserver_request_seconds_bucket[5m])))`, "p95"),
				q(`histogram_quantile(0.99, sum by (le) (rate(embedserver_request_seconds_bucket[5m])))`, "p99")),
			ts("Shed and coalesce", "Load shedding (429s at the concurrency limit) and requests merged into in-flight duplicates.", "reqps",
				q(`rate(embedserver_shed_total[5m])`, "shed"),
				q(`rate(embedserver_coalesced_total[5m])`, "coalesced"),
				q(`embedserver_inflight`, "inflight")),
			ts("Plan tier hit split", "Where plan requests are answered: L0 result cache, closed-form classifier, mmap artifact, or full compute.", "reqps",
				q(`rate(embedserver_plan_tier_l0_total[5m])`, "L0 cache"),
				q(`rate(embedserver_plan_tier_closed_form_total[5m])`, "closed form"),
				q(`rate(embedserver_plan_tier_artifact_total[5m])`, "artifact"),
				q(`rate(embedserver_plan_tier_compute_total[5m])`, "compute")),
			ts("Cache hit ratios", "Result- and plan-cache hit fractions (1.0 = every lookup hit).", "percentunit",
				q(`rate(embedserver_result_cache_hits_total[5m]) / (rate(embedserver_result_cache_hits_total[5m]) + rate(embedserver_result_cache_misses_total[5m]))`, "result cache"),
				q(`rate(embedserver_plan_cache_hits_total[5m]) / (rate(embedserver_plan_cache_hits_total[5m]) + rate(embedserver_plan_cache_misses_total[5m]))`, "plan cache")),
			ts("Cache occupancy", "Entries held by the result and plan caches, and LRU evictions.", "short",
				q(`embedserver_result_cache_entries`, "result entries"),
				q(`embedserver_plan_cache_entries`, "plan entries"),
				q(`rate(embedserver_result_cache_evictions_total[5m])`, "evictions/s")),
			stat("Plan artifact", "Records in the attached plan-census artifact (absent when no artifact is attached).", "short",
				q(`embedserver_plan_artifact_records`, "records")),
			ts("Optimality certificates", "Certificates served on plan/embed/compare responses, and the provably-optimal fraction (achieved metrics meeting the internal/bounds floors).", "reqps",
				q(`rate(embedserver_certificates_total[5m])`, "served"),
				q(`rate(embedserver_certificates_optimal_total[5m])`, "optimal"),
				q(`rate(embedserver_certificates_optimal_total[5m]) / rate(embedserver_certificates_total[5m])`, "optimal fraction")),
		}),
	}

	jobs := Dashboard{
		UID:   "embedserver-jobs",
		Title: "Embedserver · Jobs & Streaming",
		Tags:  []string{"embedserver"},
		Panels: layout([]Panel{
			stat("Job states", "Jobs by lifecycle state.", "short",
				q(`embedserver_jobs_queued`, "queued"),
				q(`embedserver_jobs_running`, "running"),
				q(`embedserver_jobs_done`, "done"),
				q(`embedserver_jobs_failed`, "failed"),
				q(`embedserver_jobs_cancelled`, "cancelled")),
			stat("Queue headroom", "Free slots in the submission queue.", "short",
				q(`embedserver_jobs_queue_capacity - embedserver_jobs_queued`, "free slots")),
			ts("Chunk and shape throughput", "Progress velocity: chunks and shapes completed per second, with chunk retries.", "ops",
				q(`rate(embedserver_jobs_chunks_done_total[5m])`, "chunks/s"),
				q(`rate(embedserver_jobs_shapes_total[5m])`, "shapes/s"),
				q(`rate(embedserver_jobs_retries_total[5m])`, "retries/s")),
			ts("Result stream volume", "NDJSON result bytes committed to disk per second.", "Bps",
				q(`rate(embedserver_jobs_result_bytes_total[5m])`, "committed")),
			ts("SSE subscribers", "Live /v1/jobs/{id}/events subscribers.", "short",
				q(`embedserver_sse_subscribers`, "subscribers")),
			ts("SSE delivery", "Events written to subscribers per second.", "ops",
				q(`rate(embedserver_sse_events_total[5m])`, "events/s")),
		}),
	}

	fabric := Dashboard{
		UID:   "embedserver-fabric",
		Title: "Embedserver · Fabric & Runtime",
		Tags:  []string{"embedserver"},
		Panels: layout([]Panel{
			stat("Peer health", "Fabric peers by health state.", "short",
				q(`embedserver_fabric_peers{state="up"}`, "up"),
				q(`embedserver_fabric_peers{state="down"}`, "down")),
			ts("Per-peer inflight", "Chunks currently executing on each peer — skew here means a slow or oversized peer.", "short",
				q(`embedserver_fabric_peer_inflight`, "{{peer}}")),
			ts("Chunk flow", "Dispatched vs folded chunk rates; requeues are chunks re-dispatched after a peer failure.", "ops",
				q(`rate(embedserver_fabric_chunks_dispatched_total[5m])`, "dispatched/s"),
				q(`rate(embedserver_fabric_chunks_folded_total[5m])`, "folded/s"),
				q(`rate(embedserver_fabric_chunks_requeued_total[5m])`, "requeued/s")),
			ts("Tracer activity", "Spans and root traces started per second, and the tracer's own overhead.", "ops",
				q(`rate(obs_spans_started_total[5m])`, "spans/s"),
				q(`rate(obs_traces_started_total[5m])`, "traces/s"),
				q(`rate(obs_span_overhead_seconds_total[5m])`, "overhead s/s")),
			ts("Go runtime", "Goroutines and GC pause accumulation.", "short",
				q(`go_goroutines`, "goroutines"),
				q(`rate(go_gc_pause_total_seconds[5m])`, "gc pause s/s")),
			ts("Heap", "Allocated heap bytes.", "bytes",
				q(`go_heap_alloc_bytes`, "heap")),
		}),
	}

	out := []Dashboard{serving, jobs, fabric}
	for i := range out {
		out[i].Timezone = "browser"
		out[i].Refresh = "10s"
		out[i].SchemaVersion = 39
		out[i].Version = 1
		out[i].Time.From = "now-1h"
		out[i].Time.To = "now"
	}
	return out
}

// metricToken matches candidate metric names inside a PromQL expression.
var metricToken = regexp.MustCompile(`[a-zA-Z_:][a-zA-Z0-9_:]*`)

// promqlKeywords are tokens the extractor must not mistake for metrics.
var promqlKeywords = map[string]bool{
	"rate": true, "sum": true, "by": true, "le": true, "avg": true,
	"max": true, "min": true, "histogram_quantile": true, "increase": true,
	"irate": true, "on": true, "ignoring": true, "group_left": true,
	"group_right": true, "without": true, "count": true,
	"endpoint": true, "code": true, "peer": true, "state": true,
}

// Validate checks that every metric a dashboard references is a family the
// server registers.  Histogram sample suffixes (_bucket/_sum/_count) resolve
// to their base family.
func Validate(dashboards []Dashboard) error {
	known := make(map[string]bool)
	for _, f := range server.MetricFamilies() {
		known[f] = true
	}
	var bad []string
	for _, d := range dashboards {
		for _, p := range d.Panels {
			for _, t := range p.Targets {
				for _, tok := range metricToken.FindAllString(t.Expr, -1) {
					if promqlKeywords[tok] || !strings.Contains(tok, "_") {
						continue
					}
					base := tok
					for _, suffix := range []string{"_bucket", "_sum", "_count"} {
						if b, ok := strings.CutSuffix(tok, suffix); ok && known[b] {
							base = b
						}
					}
					if !known[base] {
						bad = append(bad, fmt.Sprintf("%s / %q references unregistered metric %q", d.UID, p.Title, tok))
					}
				}
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("dashboard queries reference metrics the server does not expose:\n  %s",
			strings.Join(bad, "\n  "))
	}
	return nil
}

// Render validates the definitions and returns filename → JSON bytes.  The
// output is deterministic (struct field order, trailing newline) so the
// drift gate can byte-compare.
func Render() (map[string][]byte, error) {
	dashboards := Definitions()
	if err := Validate(dashboards); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(dashboards))
	for _, d := range dashboards {
		wrapped := struct {
			UID           string      `json:"uid"`
			Title         string      `json:"title"`
			Tags          []string    `json:"tags"`
			Timezone      string      `json:"timezone"`
			Refresh       string      `json:"refresh"`
			SchemaVersion int         `json:"schemaVersion"`
			Version       int         `json:"version"`
			Time          any         `json:"time"`
			Panels        []panelJSON `json:"panels"`
		}{d.UID, d.Title, d.Tags, d.Timezone, d.Refresh, d.SchemaVersion, d.Version, d.Time, nil}
		for _, p := range d.Panels {
			pj := panelJSON{Panel: p}
			if p.Unit != "" {
				pj.FieldConfig = map[string]any{
					"defaults": map[string]any{"unit": p.Unit},
				}
			}
			wrapped.Panels = append(wrapped.Panels, pj)
		}
		data, err := json.MarshalIndent(wrapped, "", "  ")
		if err != nil {
			return nil, err
		}
		out[strings.TrimPrefix(d.UID, "embedserver-")+".json"] = append(data, '\n')
	}
	return out, nil
}
