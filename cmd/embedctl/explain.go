package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/pkg/client"
)

// cmdExplain prints the planner's strategy provenance for a shape: which
// pipeline ran, which strategies were tried, skipped (and why) or chosen,
// and the same recursively for every sub-shape the decomposition visited.
// This is the CLI face of Planner.PlanTraced / /v1/plan?debug=trace.
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	build := fs.Bool("build", false, "also build, verify and measure the planned embedding")
	_ = fs.Parse(args)
	s := parseShape(fs.Args())

	pl := core.NewPlanner(core.DefaultOptions)
	p, pt, err := pl.PlanTraced(context.Background(), s)
	check(err)
	fmt.Printf("shape:  %s (%d nodes)\n", s, s.Nodes())
	fmt.Printf("plan:   %s\n", p)
	fmt.Printf("method: %d\n\n", p.Method)
	printPlanTrace(os.Stdout, pt, "")
	if *build {
		e := p.Build()
		if err := e.Verify(); err != nil {
			fmt.Fprintln(os.Stderr, "embedctl: INVALID EMBEDDING:", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s\n", e.Measure())
	}
}

// printPlanTrace renders one provenance node and recurses into sub-shapes.
func printPlanTrace(w io.Writer, pt *core.PlanTrace, indent string) {
	if pt == nil {
		return
	}
	fmt.Fprintf(w, "%splan %s", indent, pt.Shape)
	if pt.Canonical != pt.Shape {
		fmt.Fprintf(w, " (canonical %s)", pt.Canonical)
	}
	fmt.Fprintf(w, ": pipeline=%s chosen=%s (%.3f ms)\n",
		pt.Pipeline, pt.Chosen, float64(pt.DurationNS)/1e6)
	for _, a := range pt.Attempts {
		marker := "-"
		switch a.Status {
		case "chosen":
			marker = "*"
		case "skipped":
			marker = "~"
		}
		fmt.Fprintf(w, "%s  %s %-11s %-8s", indent, marker, a.Strategy, a.Status)
		if a.Plan != "" {
			fmt.Fprintf(w, " plan=%s dil=%d", a.Plan, a.Dilation)
		}
		if a.Reason != "" {
			fmt.Fprintf(w, "  (%s)", a.Reason)
		}
		fmt.Fprintln(w)
	}
	for _, sub := range pt.Sub {
		printPlanTrace(w, sub, indent+"    ")
	}
}

// cmdTrace plans, builds, verifies and measures a shape under a span trace
// and writes the result as Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev.  With -job it instead fetches
// a finished job's stitched span tree from a running embedserver — for a
// distributed run, one trace covering coordinator dispatch/fold and every
// worker's chunk execution — and exports that.
func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "trace.json", "output file for the Chrome trace-event JSON")
	workers := fs.Int("workers", 0, "metrics-engine workers (<1: GOMAXPROCS)")
	job := fs.String("job", "", "export a finished job's trace from a server instead of tracing a local run")
	addr := fs.String("addr", "http://127.0.0.1:8080", "embedserver base URL (with -job)")
	_ = fs.Parse(args)
	if *job != "" {
		if fs.NArg() != 0 {
			usage()
		}
		traceJob(*addr, *job, *out)
		return
	}
	s := parseShape(fs.Args())

	ctx, root := obs.StartRoot(context.Background(), "embedctl "+s.String())
	pl := core.NewPlanner(core.DefaultOptions)
	p, _, err := pl.PlanTraced(ctx, s)
	check(err)
	_, bspan := obs.Start(ctx, "build")
	e := p.Build()
	bspan.End()
	_, vspan := obs.Start(ctx, "verify")
	verr := e.Verify()
	vspan.End()
	if verr != nil {
		fmt.Fprintln(os.Stderr, "embedctl: INVALID EMBEDDING:", verr)
		os.Exit(1)
	}
	m := e.MeasureParallelCtx(ctx, *workers)
	root.End()

	f, err := os.Create(*out)
	check(err)
	check(obs.WriteChromeTrace(f, root.Snapshot()))
	check(f.Close())
	fmt.Printf("plan: %s\n%s\n", p, m)
	fmt.Printf("trace written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *out)
}

// traceJob fetches a job's stitched span tree over HTTP and exports it as
// Chrome trace-event JSON.
func traceJob(addr, id, out string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	raw, err := client.New(addr).JobTrace(ctx, id)
	check(err)
	var root obs.SpanJSON
	if err := json.Unmarshal(raw, &root); err != nil {
		fmt.Fprintln(os.Stderr, "embedctl: decode trace:", err)
		os.Exit(1)
	}
	f, err := os.Create(out)
	check(err)
	check(obs.WriteChromeTrace(f, &root))
	check(f.Close())
	fmt.Printf("job %s: %d spans (trace %s)\n", id, root.Count(), root.TraceID)
	fmt.Printf("trace written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", out)
}
