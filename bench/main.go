// Command bench is the repository benchmark.  It boots fresh embedserver
// processes with production defaults, drives one seeded workload against
// them through pkg/client in a closed loop, checks every answer, and prints
// the metrics BENCHMARK.json names.  bench/run.sh builds the server and
// this program and passes -server and -out:
//
//	bash bench/run.sh --workload embed-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last stdout line holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, for which the run also replays
// its first round in-process under spans and writes a Chrome trace to the
// -out directory.  A table of everything measured goes to stderr.  The exit
// status is non-zero when any answer is wrong.  See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: serve-hot, plan-cold, embed-cold or sweep-job")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	secs := flag.Int("seconds", 15, "timed seconds to accumulate over the rounds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics, adding a traced in-process replay")
	server := flag.String("server", "", "embedserver binary")
	out := flag.String("out", ".bench_build", "directory for job data and the Chrome trace")
	flag.Parse()
	if *server == "" || *secs < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := measure(context.Background(), config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*secs) * time.Second,
		trace:    *trace == 1,
		replay:   time.Duration(*secs) * time.Second / 2,
		server:   *server,
		outDir:   *out,
		scale:    1,
	}, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs the workload (and the traced replay when asked), writes the
// table to report and returns the result line.
func measure(ctx context.Context, cfg config, report io.Writer) (*result, error) {
	rs, err := run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var tr *traceResult
	if cfg.trace {
		if tr, err = traceRun(cfg, rs); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	e2e := endToEndValues(rs)
	layer := layerValues(cfg.workload, rs, tr)

	a := &rs.all
	fmt.Fprintf(report, "bench: %s seed %d: %d rounds (%d fixed), %d ops attempted, %d failed, %.2f s timed\n",
		cfg.workload, cfg.seed, a.rounds, rs.fixed.rounds, a.attempted, a.failed, a.timed.Seconds())
	fmt.Fprintf(report, "bench: %d latency samples; p99 supported by ≥10 samples beyond it: %v; %d setup boots\n",
		len(a.lat), tailSupported(len(a.lat), 99), len(rs.boots))
	for _, f := range a.failures {
		fmt.Fprintln(report, "bench: FAIL", f)
	}
	if tr != nil {
		fmt.Fprintf(report, "bench: replayed %d ops (%d jobs), Chrome trace %s\n", tr.ops, tr.jobOps, tr.traceFile)
	}
	for _, s := range endToEnd {
		fmt.Fprintf(report, "  %-32s %14.6g %s\n", s.name, e2e[s.name], s.unit)
	}
	for _, s := range perLayer {
		if v, ok := layer[s.name]; ok { // the replay's stage metrics need --trace 1
			fmt.Fprintf(report, "  %-32s %14.6g %s\n", s.name, v, s.unit)
		}
	}

	res := &result{Correct: a.failed == 0, Attempted: a.attempted, Failed: a.failed, Metrics: map[string]metricValue{}}
	if cfg.trace {
		for _, s := range perLayer {
			res.Metrics[s.name] = metricValue{layer[s.name], s.unit}
		}
	} else {
		for _, s := range endToEnd {
			res.Metrics[s.name] = metricValue{e2e[s.name], s.unit}
		}
	}
	return res, nil
}
