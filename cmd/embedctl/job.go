package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
)

// cmdJob drives the batch-job endpoints of a running embedserver through
// the pkg/client SDK:
//
//	embedctl job submit -kind census -max-n 9
//	embedctl job status <id>
//	embedctl job watch <id>            # polled progress until terminal
//	embedctl job results <id>          # stream NDJSON to stdout (resumable)
//	embedctl job events <id>           # live SSE rows to stdout (resumable)
//	embedctl job cancel <id>
//	embedctl job list
func cmdJob(args []string) {
	if len(args) < 1 {
		jobUsage()
	}
	sub, rest := args[0], args[1:]
	// Ctrl-C aborts the in-flight call cleanly; a job keeps running
	// server-side unless explicitly cancelled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch sub {
	case "submit":
		jobSubmit(ctx, rest)
	case "status":
		jf := jobClient(rest, 1)
		st, err := jf.c.Job(ctx, jf.args[0])
		check(err)
		printJSON(st)
	case "watch":
		jobWatch(ctx, rest)
	case "results":
		jobResults(ctx, rest)
	case "events":
		jobEvents(ctx, rest)
	case "cancel":
		jf := jobClient(rest, 1)
		st, err := jf.c.CancelJob(ctx, jf.args[0])
		check(err)
		printJSON(st)
	case "list":
		list, err := jobClient(rest, 0).c.Jobs(ctx)
		check(err)
		for _, st := range list {
			fmt.Printf("%-20s %-10s %-10s %6.1f%%  %s\n", st.ID, st.Kind, st.State,
				pct(st.Progress.ChunksDone, st.Progress.ChunksTotal), jobNote(st))
		}
	default:
		jobUsage()
	}
}

func jobUsage() {
	fmt.Fprintf(os.Stderr, `usage:
  embedctl job submit [-addr URL] -kind census|epsilon|plansweep|plancensus
                      [-max-n N] [-dims K] [-max-axis L] [-max-nodes M]
                      [-family F] [-workers W] [-distributed] [-watch]
  embedctl job status  [-addr URL] <id>
  embedctl job watch   [-addr URL] <id>
  embedctl job results [-addr URL] [-offset B] [-parse] <id>
  embedctl job events  [-addr URL] [-from B] <id>
  embedctl job cancel  [-addr URL] <id>
  embedctl job list    [-addr URL]
`)
	os.Exit(2)
}

// jobFlags is what the flag set every job subcommand shares parses to: a
// client for -addr, and the positional args after the flags (the job ID,
// when the subcommand takes one).
type jobFlags struct {
	c    *client.Client
	args []string
}

func jobClient(args []string, positional int) *jobFlags {
	fs := flag.NewFlagSet("job", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "embedserver base URL")
	_ = fs.Parse(args)
	if fs.NArg() != positional {
		jobUsage()
	}
	return &jobFlags{c: client.New(*addr), args: fs.Args()}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func pct(done, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(done) / float64(total)
}

func jobNote(st api.JobStatus) string {
	switch st.State {
	case api.JobFailed:
		return st.Error
	case api.JobRunning:
		if st.Progress.ETAMS > 0 {
			return fmt.Sprintf("%.0f shapes/s, ETA %s",
				st.Progress.ShapesPerSec, (time.Duration(st.Progress.ETAMS) * time.Millisecond).Round(time.Second))
		}
	}
	return ""
}

func jobSubmit(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("job submit", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "embedserver base URL")
	kind := fs.String("kind", "", "job kind: census, epsilon, plansweep or plancensus")
	maxN := fs.Int("max-n", 0, "census/epsilon domain exponent (axes range over 1..2^N)")
	dims := fs.Int("dims", 3, "plansweep/plancensus shape dimensionality")
	maxAxis := fs.Int("max-axis", 16, "plansweep/plancensus axis bound")
	maxNodes := fs.Int("max-nodes", 1<<12, "plansweep node bound")
	family := fs.String("family", "", "plansweep/plancensus guest family (default mesh)")
	workers := fs.Int("workers", 0, "per-chunk worker bound (0: server default)")
	distributed := fs.Bool("distributed", false, "shard chunks across the server's fabric peers (server must run with -fabric-secret)")
	watch := fs.Bool("watch", false, "watch progress until the job finishes")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		jobUsage()
	}
	req := api.JobSubmitRequest{Kind: api.JobKind(*kind), Workers: *workers, Distributed: *distributed}
	switch req.Kind {
	case api.JobCensus:
		req.Census = &api.CensusParams{MaxN: *maxN}
	case api.JobEpsilon:
		req.Epsilon = &api.EpsilonParams{MaxN: *maxN}
	case api.JobPlanSweep:
		req.PlanSweep = &api.PlanSweepParams{Dims: *dims, MaxAxis: *maxAxis, MaxNodes: *maxNodes, Family: *family}
	case api.JobPlanCensus:
		req.PlanCensus = &api.PlanCensusParams{Dims: *dims, MaxAxis: *maxAxis, Family: *family}
	default:
		jobUsage()
	}
	c := client.New(*addr)
	st, err := c.SubmitJob(ctx, req)
	check(err)
	if !*watch {
		printJSON(st)
		return
	}
	fmt.Fprintf(os.Stderr, "submitted %s\n", st.ID)
	fin, err := c.WatchJob(ctx, st.ID, time.Second, watchLine)
	check(err)
	fmt.Fprintln(os.Stderr)
	printJSON(fin)
}

// jobWatch polls a job's status, rendering progress until it finishes.
func jobWatch(ctx context.Context, args []string) {
	jf := jobClient(args, 1)
	fin, err := jf.c.WatchJob(ctx, jf.args[0], time.Second, watchLine)
	check(err)
	fmt.Fprintln(os.Stderr)
	printJSON(fin)
	if fin.State != api.JobDone {
		os.Exit(1)
	}
}

// watchLine renders one carriage-returned progress line per poll.
func watchLine(st api.JobStatus) {
	fmt.Fprintf(os.Stderr, "\r%-10s %5.1f%%  %d/%d chunks  %d shapes  %s   ",
		st.State, pct(st.Progress.ChunksDone, st.Progress.ChunksTotal),
		st.Progress.ChunksDone, st.Progress.ChunksTotal, st.Progress.Shapes, jobNote(st))
}

func jobResults(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("job results", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "embedserver base URL")
	offset := fs.Int64("offset", 0, "resume the stream from this byte offset")
	parse := fs.Bool("parse", false, "decode every record instead of raw streaming; print a per-type digest (works on result files from any schema version)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		jobUsage()
	}
	c := client.New(*addr)
	rc, err := c.JobResults(ctx, fs.Arg(0), *offset)
	check(err)
	defer rc.Close()
	if !*parse {
		_, err = io.Copy(os.Stdout, rc)
		check(err)
		return
	}
	check(digestResults(rc, os.Stdout))
}

// digestResults decodes a result stream with client.DecodeRecords —
// schema-tolerantly, so files written before the certificate columns still
// parse — and prints a per-type digest: record counts, the plan-row
// optimality tally, and the summary line.
func digestResults(r io.Reader, w io.Writer) error {
	counts := make(map[string]int)
	var plans, minimal, certified, optimal int
	var summaries []*api.SummaryRecord
	err := client.DecodeRecords(r, func(rec any) error {
		switch rec := rec.(type) {
		case *api.CensusShardRecord:
			counts["census_shard"]++
		case *api.CensusRowRecord:
			counts["census_row"]++
		case *api.EpsilonRowRecord:
			counts["epsilon_row"]++
		case *api.PlanRecord:
			counts["plan"]++
			plans++
			if rec.Minimal {
				minimal++
			}
			if rec.LowerBounds != nil {
				certified++
				if rec.Optimal {
					optimal++
				}
			}
		case *api.PlanCensusChunkRecord:
			counts["plan_census_chunk"]++
		case *api.SummaryRecord:
			counts["summary"]++
			summaries = append(summaries, rec)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, t := range []string{"census_shard", "census_row", "epsilon_row", "plan", "plan_census_chunk", "summary"} {
		if counts[t] > 0 {
			fmt.Fprintf(w, "%-18s %d\n", t, counts[t])
		}
	}
	if plans > 0 {
		fmt.Fprintf(w, "plans: %d minimal of %d", minimal, plans)
		if certified > 0 {
			fmt.Fprintf(w, "; %d certified, %d provably dilation-optimal (%.1f%%)",
				certified, optimal, 100*float64(optimal)/float64(certified))
		} else {
			fmt.Fprintf(w, "; no certificate columns (pre-schema-%d results file)", api.JobSchemaVersion)
		}
		fmt.Fprintln(w)
	}
	for _, s := range summaries {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	return nil
}

// jobEvents follows the SSE event stream, writing row payloads to stdout as
// NDJSON and progress lines to stderr; `-from B` prints exactly what `job
// results -offset B` does, even for a B inside a line.  If the connection
// drops mid-job — a server restart, a dropped connection — it reconnects
// with the last row's id, so the stdout stream stays gapless and
// duplicate-free.
func jobEvents(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("job events", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "embedserver base URL")
	from := fs.Int64("from", 0, "resume the row stream from this byte offset")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		jobUsage()
	}
	c := client.New(*addr)
	id, offset := fs.Arg(0), *from
	for {
		s, err := c.JobEvents(ctx, id, offset, true)
		if err != nil {
			// A typed API rejection (not_found, bad offset) is final; a
			// transport failure means the server is down or restarting —
			// keep trying, the stream resumes from offset once it's back.
			var apiErr *api.Error
			if errors.As(err, &apiErr) || ctx.Err() != nil {
				check(err) // prints and exits
			}
			time.Sleep(500 * time.Millisecond)
			continue
		}
		done := false
		for !done {
			ev, nerr := s.Next()
			if nerr != nil {
				break
			}
			switch ev.Type {
			case "row":
				os.Stdout.Write(ev.Data)
				os.Stdout.Write([]byte{'\n'})
			case "progress":
				var st api.JobStatus
				if json.Unmarshal(ev.Data, &st) == nil {
					watchLine(st)
				}
			case "done":
				done = true
			}
		}
		offset = s.LastRowID()
		s.Close()
		if done {
			fmt.Fprintln(os.Stderr)
			return
		}
		if ctx.Err() != nil {
			os.Exit(1)
		}
		time.Sleep(200 * time.Millisecond) // dropped; reconnect from offset
	}
}
