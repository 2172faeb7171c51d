package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mesh"
	"repro/pkg/api"
	"repro/pkg/client"
)

// cmdBench is the load-generator mode: it drives a running embedserver's
// POST /v1/embed with a fixed shape set and reports client-side latency
// percentiles, separating the cold (first-request, cache-filling) cost from
// the warm cached-hit steady state.
func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "embedserver base URL")
	qps := fs.Float64("qps", 0, "request rate limit across all workers (0: unthrottled)")
	shapes := fs.String("shapes", "64x64x64", "comma-separated shapes to query round-robin")
	family := fs.String("family", "", "guest family: mesh (default), torus, cylinder or tree")
	mode := fs.String("mode", "", "embed mode: decomposition (default) or gray; \"torus\" is a deprecated alias for -family torus")
	conc := fs.Int("c", 8, "concurrent client workers")
	duration := fs.Duration("duration", 5*time.Second, "warm-phase length")
	jsonOut := fs.Bool("json", false, "emit a machine-readable summary on stdout (schema family of cmd/benchjson); human output moves to stderr")
	_ = fs.Parse(args)

	// With -json, stdout carries exactly one JSON document; progress lines
	// move to stderr so pipelines stay parseable.
	human := io.Writer(os.Stdout)
	if *jsonOut {
		human = os.Stderr
	}

	var shapeList []string
	for _, s := range strings.Split(*shapes, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if _, err := mesh.ParseShape(s); err != nil {
			fmt.Fprintln(os.Stderr, "embedctl:", err)
			os.Exit(2)
		}
		shapeList = append(shapeList, s)
	}
	if len(shapeList) == 0 {
		fmt.Fprintln(os.Stderr, "embedctl: no shapes")
		os.Exit(2)
	}

	// Retries are disabled: a load generator must report the failure, not
	// smooth it into a longer latency sample.
	c := client.New(*addr,
		client.WithHTTPClient(&http.Client{Timeout: 2 * time.Minute}),
		client.WithRetries(0))
	var certTotal, certOptimal atomic.Uint64
	request := func(shape string) (time.Duration, error) {
		start := time.Now()
		resp, err := c.Embed(context.Background(), api.EmbedRequest{Shape: shape, Family: *family, Mode: *mode})
		if err != nil {
			return 0, err
		}
		if resp.Certificate != nil {
			certTotal.Add(1)
			if resp.Certificate.Optimal {
				certOptimal.Add(1)
			}
		}
		return time.Since(start), nil
	}

	// Tier counters before the run; deltas are reported at the end so the
	// server-side split (L0 / closed-form / artifact / compute) is visible
	// next to the client-side latencies.
	tiersBefore := fetchTierCounters(c)

	// Cold phase: one serial request per shape, before any caching.
	var cold []time.Duration
	for _, s := range shapeList {
		d, err := request(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "embedctl: cold %s: %v\n", s, err)
			os.Exit(1)
		}
		fmt.Fprintf(human, "cold  %-16s %s\n", s, round(d))
		cold = append(cold, d)
	}

	// Warm phase: concurrent workers, optional shared rate limit.
	var tokens chan struct{}
	stop := make(chan struct{})
	if *qps > 0 {
		tokens = make(chan struct{})
		interval := time.Duration(float64(time.Second) / *qps)
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					select {
					case tokens <- struct{}{}:
					case <-stop:
						return
					}
				case <-stop:
					return
				}
			}
		}()
	}
	var (
		mu        sync.Mutex
		warm      []time.Duration
		errsCount int
	)
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				if tokens != nil {
					select {
					case <-tokens:
					case <-stop:
						return
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				d, err := request(shapeList[i%len(shapeList)])
				mu.Lock()
				if err != nil {
					errsCount++
				} else {
					warm = append(warm, d)
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(begin)

	if len(warm) == 0 {
		fmt.Fprintln(os.Stderr, "embedctl: no successful warm requests")
		os.Exit(1)
	}
	sort.Slice(warm, func(a, b int) bool { return warm[a] < warm[b] })
	sort.Slice(cold, func(a, b int) bool { return cold[a] < cold[b] })
	fmt.Fprintf(human, "warm  %d requests in %s (%.1f req/s), %d errors\n",
		len(warm), round(elapsed), float64(len(warm))/elapsed.Seconds(), errsCount)
	fmt.Fprintf(human, "cold  p50=%s\n", round(percentile(cold, 50)))
	fmt.Fprintf(human, "warm  p50=%s p95=%s p99=%s min=%s max=%s\n",
		round(percentile(warm, 50)), round(percentile(warm, 95)), round(percentile(warm, 99)),
		round(warm[0]), round(warm[len(warm)-1]))
	ratio := float64(percentile(cold, 50)) / float64(percentile(warm, 50))
	fmt.Fprintf(human, "cold p50 / warm p50 = %.1fx\n", ratio)
	if ct := certTotal.Load(); ct > 0 {
		co := certOptimal.Load()
		fmt.Fprintf(human, "certificates: %d served, %d optimal (%.1f%% optimal-hit rate)\n",
			ct, co, 100*float64(co)/float64(ct))
	}
	if tiersBefore != nil {
		if after := fetchTierCounters(c); after != nil {
			var parts []string
			for _, t := range tierNames {
				parts = append(parts, fmt.Sprintf("%s=%d", t, after[t]-tiersBefore[t]))
			}
			fmt.Fprintf(human, "plan tiers (server-side deltas): %s\n", strings.Join(parts, " "))
		}
	}
	if *jsonOut {
		writeBenchJSON(cold, warm, elapsed, errsCount, *family, *mode, shapeList,
			certTotal.Load(), certOptimal.Load())
	}
}

// tierNames are the plan-tier counters of the server's /metrics, in
// hierarchy order.
var tierNames = []string{"l0", "closed_form", "artifact", "compute"}

// fetchTierCounters scrapes the embedserver_plan_tier_*_total counters.
// Any failure returns nil — the bench must not fail because a proxy strips
// /metrics.
func fetchTierCounters(c *client.Client) map[string]uint64 {
	text, err := c.RawMetrics(context.Background())
	if err != nil {
		return nil
	}
	out := make(map[string]uint64, len(tierNames))
	for _, line := range strings.Split(text, "\n") {
		for _, t := range tierNames {
			if v, ok := strings.CutPrefix(line, "embedserver_plan_tier_"+t+"_total "); ok {
				var f float64
				if _, err := fmt.Sscanf(v, "%g", &f); err == nil {
					out[t] = uint64(f)
				}
			}
		}
	}
	return out
}

// benchResult is one summary statistic in the record shape of cmd/benchjson,
// so downstream tooling can treat client-side latencies and go-test
// benchmarks uniformly.
type benchResult struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

// benchSummary is the -json document.
type benchSummary struct {
	Family     string   `json:"family,omitempty"`
	Mode       string   `json:"mode,omitempty"`
	Shapes     []string `json:"shapes"`
	Requests   int      `json:"requests"`
	Errors     int      `json:"errors"`
	ElapsedSec float64  `json:"elapsed_seconds"`
	ReqPerSec  float64  `json:"req_per_sec"`
	// Certificate hit rates across every response of the run (cold +
	// warm): how many carried a certificate and how many of those were
	// provably optimal on all three measures.
	CertServed  uint64        `json:"certificates_served"`
	CertOptimal uint64        `json:"certificates_optimal"`
	OptimalRate float64       `json:"optimal_rate"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

func writeBenchJSON(cold, warm []time.Duration, elapsed time.Duration, errsCount int, family, mode string, shapes []string, certServed, certOptimal uint64) {
	stat := func(name string, iters int, d time.Duration) benchResult {
		return benchResult{Name: name, Iterations: int64(iters), NsPerOp: float64(d.Nanoseconds())}
	}
	var rate float64
	if certServed > 0 {
		rate = float64(certOptimal) / float64(certServed)
	}
	sum := benchSummary{
		Family:      family,
		Mode:        mode,
		Shapes:      shapes,
		Requests:    len(warm),
		Errors:      errsCount,
		ElapsedSec:  elapsed.Seconds(),
		ReqPerSec:   float64(len(warm)) / elapsed.Seconds(),
		CertServed:  certServed,
		CertOptimal: certOptimal,
		OptimalRate: rate,
		Benchmarks: []benchResult{
			stat("cold/p50", len(cold), percentile(cold, 50)),
			stat("warm/p50", len(warm), percentile(warm, 50)),
			stat("warm/p95", len(warm), percentile(warm, 95)),
			stat("warm/p99", len(warm), percentile(warm, 99)),
			stat("warm/min", len(warm), warm[0]),
			stat("warm/max", len(warm), warm[len(warm)-1]),
		},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "embedctl:", err)
		os.Exit(1)
	}
}

// percentile returns the p-th percentile of sorted durations
// (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
