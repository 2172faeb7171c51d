// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON summary on stdout, one record per benchmark.  Multi-package
// runs are supported: each record carries the package whose `pkg:` header
// preceded it.  Repeated lines of one benchmark in one package, as
// `-count N` prints them, fold into one record of N samples: the median,
// minimum and interquartile range of ns/op, and the medians of B/op,
// allocs/op and any custom units.  benchjson backs the Makefile bench-json
// target, which records the repo's perf trajectory (BENCH_PRn.json).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/embed ./internal/server | go run ./cmd/benchjson
//
// Every run is stamped with a bench_id — unique per invocation unless -id
// pins it — so runs of the same suite remain distinguishable after their
// documents are merged or archived together.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's record, folded over its samples (one sample
// per output line).  A one-sample record carries that line's values, with
// NsMin equal to NsPerOp and NsIQR zero.  Extra carries any units beyond
// the standard three — custom b.ReportMetric values such as the census
// job's shapes/sec pass through under their reported unit.
type Result struct {
	Name    string `json:"name"`
	Pkg     string `json:"pkg,omitempty"`
	Samples int    `json:"samples"`
	// Iterations is the total over all samples.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the median ns/op; NsMin and NsIQR are its minimum and
	// interquartile range.
	NsPerOp float64 `json:"ns_per_op"`
	NsMin   float64 `json:"ns_min"`
	NsIQR   float64 `json:"ns_iqr"`
	// BytesPerOp, AllocsPerOp and Extra are medians.
	BytesPerOp  float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Summary is the emitted document.  Pkg is kept for single-package runs
// (and holds the last package seen on multi-package input); the per-record
// Pkg field is authoritative.
type Summary struct {
	// BenchID identifies this run: the -id flag when given, else
	// host-pid-unixms, unique per invocation.
	BenchID    string   `json:"bench_id"`
	UnixMS     int64    `json:"unix_ms"`
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// sample is one parsed benchmark line.
type sample struct {
	name   string
	iters  int64
	ns     float64
	bytes  float64
	allocs float64
	extra  map[string]float64
}

func main() {
	id := flag.String("id", "", "bench_id to stamp on the summary (default: host-pid-unixms)")
	flag.Parse()
	sum, err := summarize(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	now := time.Now()
	sum.BenchID, sum.UnixMS = *id, now.UnixMilli()
	if sum.BenchID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "unknown"
		}
		sum.BenchID = fmt.Sprintf("%s-%d-%d", host, os.Getpid(), now.UnixMilli())
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// summarize reads `go test -bench` output and folds the samples of each
// (package, benchmark) into one record, in order of first appearance.
func summarize(r io.Reader) (Summary, error) {
	sum := Summary{Benchmarks: []Result{}}
	type key struct{ pkg, name string }
	var order []key
	samples := make(map[key][]sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			sum.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			sum.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			sum.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			sum.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if s, ok := parseBench(line); ok {
				k := key{sum.Pkg, s.name}
				if _, seen := samples[k]; !seen {
					order = append(order, k)
				}
				samples[k] = append(samples[k], s)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Summary{}, err
	}
	for _, k := range order {
		sum.Benchmarks = append(sum.Benchmarks, fold(k.pkg, k.name, samples[k]))
	}
	return sum, nil
}

// fold summarizes the samples of one benchmark.
func fold(pkg, name string, ss []sample) Result {
	r := Result{Name: name, Pkg: pkg, Samples: len(ss)}
	var ns, bytes, allocs []float64
	extra := make(map[string][]float64)
	for _, s := range ss {
		r.Iterations += s.iters
		ns = append(ns, s.ns)
		bytes = append(bytes, s.bytes)
		allocs = append(allocs, s.allocs)
		for unit, v := range s.extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	r.NsPerOp = quantile(ns, 0.5)
	r.NsMin = quantile(ns, 0)
	r.NsIQR = quantile(ns, 0.75) - quantile(ns, 0.25)
	r.BytesPerOp = quantile(bytes, 0.5)
	r.AllocsPerOp = quantile(allocs, 0.5)
	for unit, vs := range extra {
		if r.Extra == nil {
			r.Extra = make(map[string]float64)
		}
		r.Extra[unit] = quantile(vs, 0.5)
	}
	return r
}

// quantile returns the p-quantile of xs with linear interpolation between
// order statistics, the convention scripts/bench_ab.sh uses.  It sorts xs
// in place.
func quantile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	h := float64(len(xs)-1) * p
	i := int(math.Floor(h))
	if i+1 >= len(xs) {
		return xs[i]
	}
	return xs[i] + (h-float64(i))*(xs[i+1]-xs[i])
}

// parseBench parses a line of the form
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   10 allocs/op
//
// Unknown value/unit pairs land in extra so custom ReportMetric units are
// preserved.
func parseBench(line string) (sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return sample{}, false
	}
	s := sample{name: fields[0]}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return sample{}, false
	}
	s.iters = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			s.ns = v
		case "B/op":
			s.bytes = v
		case "allocs/op":
			s.allocs = v
		default:
			if s.extra == nil {
				s.extra = make(map[string]float64)
			}
			s.extra[unit] = v
		}
	}
	return s, true
}
