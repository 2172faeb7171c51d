// Command embedserver runs the embedding service: an HTTP API over the
// planner, the fused metrics engine and the network simulator, with a
// canonical-shape LRU result cache that computes each key once,
// per-request timeouts, load shedding and Prometheus metrics.
//
// Usage:
//
//	embedserver -addr :8080 -workers 0
//
// -workers bounds the parallelism of any one computation: a measurement, a
// compare, or a job chunk, whether this server runs the job or executes
// the chunk for a fabric coordinator (<1: GOMAXPROCS).  A job request's own
// "workers" overrides it for that job's chunks.  The serving limits are
// fixed (internal/server): a 1,024-entry result cache, 256 requests in
// flight before shedding with 429, and 30 s per request.
//
// Observability:
//
//	-log-format text|json  access-log encoding (default text); the log
//	                       records info level and above
//	-no-log                disable the access log entirely
//	-debug-addr HOST:PORT  opt-in second listener serving net/http/pprof and
//	                       expvar; kept off the API listener so profiling
//	                       is never exposed by accident
//
// The span tracer behind ?debug=trace / X-Debug-Trace is always armed; a
// request that does not ask for a trace allocates nothing for it.
//
// Plan tiers:
//
//	-plan-artifact FILE    load a precomputed plan-census artifact
//	                       (internal/artifact) as the O(1) L1 plan tier; its
//	                       planner-option fingerprint must match this
//	                       server's, or startup fails
//
// Batch jobs:
//
//	-data-dir DIR          enable the /v1/jobs batch subsystem, persisting
//	                       job state, checkpoints and NDJSON results under
//	                       DIR; on restart unfinished jobs resume from their
//	                       last checkpoint with byte-identical result
//	                       streams.  The queue holds 8 jobs (429 beyond).
//	-checkpoint-every N    chunks between checkpoints
//
// Distributed sweep fabric:
//
//	-fabric-secret S       join the fabric trust domain: serve POST
//	                       /v1/internal/chunks (worker mode) and accept peer
//	                       registrations, all guarded by the shared secret
//	-peers URL,URL,...     coordinator mode: dispatch distributed job chunks
//	                       to these embedserver peers
//	-join URL              register this server with a running coordinator
//	                       (requires -advertise)
//	-advertise URL         the base URL peers should dial to reach this
//	                       server
//
// A coordinator runs at most two chunks at a time on each peer, the fabric
// pool's default.
//
// The server prints "embedserver: listening on HOST:PORT" once the listener
// is bound (so -addr :0 is scriptable) and on SIGINT/SIGTERM drains
// in-flight requests for up to 15 s before exiting; running jobs checkpoint
// and park as queued so the next start picks them up.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrichttp"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/pkg/client"
)

// Connection limits of the API listener, so a client that trickles its
// headers or parks an idle keep-alive connection cannot hold a slot
// forever.  ReadTimeout and WriteTimeout stay unset on purpose: the job
// /results, /events and /artifact streams stay open for a job's lifetime.
// drainTimeout is the shutdown grace period for in-flight requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	drainTimeout      = 15 * time.Second
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "workers per computation: a measurement, a compare or a job chunk (<1: GOMAXPROCS)")
	logFormat := flag.String("log-format", "text", "access-log encoding: text or json")
	noLog := flag.Bool("no-log", false, "disable the structured access log")
	debugAddr := flag.String("debug-addr", "", "optional debug listener serving net/http/pprof and expvar (empty: off)")
	planArtifact := flag.String("plan-artifact", "", "plan-census artifact file served as the O(1) L1 plan tier (build one with a plancensus job or embedctl artifact build)")
	dataDir := flag.String("data-dir", "", "enable /v1/jobs, persisting job state and results under this directory (empty: jobs disabled)")
	checkpointEvery := flag.Int("checkpoint-every", 8, "chunks between job checkpoints")
	fabricSecret := flag.String("fabric-secret", "", "shared secret enabling the fabric endpoints (worker chunk execution and peer registration)")
	peersFlag := flag.String("peers", "", "comma-separated embedserver base URLs to dispatch distributed job chunks to")
	joinURL := flag.String("join", "", "coordinator base URL to register this server with (requires -advertise)")
	advertise := flag.String("advertise", "", "base URL peers should dial to reach this server")
	flag.Parse()

	var logger *slog.Logger
	if !*noLog {
		// nil options: slog's default level, info.
		switch *logFormat {
		case "text":
			logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		case "json":
			logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		default:
			fmt.Fprintf(os.Stderr, "embedserver: bad -log-format %q (want text or json)\n", *logFormat)
			os.Exit(2)
		}
	}

	s := server.New(server.Config{
		Workers:      *workers,
		Logger:       logger,
		FabricSecret: *fabricSecret,
	})
	if *planArtifact != "" {
		a, err := artifact.Open(*planArtifact)
		if err != nil {
			fmt.Fprintln(os.Stderr, "embedserver: plan artifact:", err)
			os.Exit(1)
		}
		if err := s.AttachArtifact(a); err != nil {
			fmt.Fprintln(os.Stderr, "embedserver:", err)
			os.Exit(1)
		}
		hdr := a.Header()
		fmt.Printf("embedserver: plan artifact %s (%s, %dd, axes ≤%d, %d records)\n",
			*planArtifact, hdr.Family, hdr.Dims, hdr.MaxAxis, hdr.RecordCount)
	}
	if (*peersFlag != "" || *joinURL != "") && *fabricSecret == "" {
		fmt.Fprintln(os.Stderr, "embedserver: -peers/-join require -fabric-secret")
		os.Exit(2)
	}
	if *joinURL != "" && *advertise == "" {
		fmt.Fprintln(os.Stderr, "embedserver: -join requires -advertise (the URL the coordinator should dial back)")
		os.Exit(2)
	}
	var pool *fabric.Pool
	if *fabricSecret != "" {
		// The local loopback executes chunks in-process through the same
		// entry point the HTTP worker endpoint uses, so a coordinator that
		// loses every worker keeps folding byte-identical results.
		pool = fabric.NewPool(fabric.Config{
			Dial:   fabrichttp.Dialer(*fabricSecret),
			Local:  fabric.Loopback(s.ExecuteChunk),
			Logger: logger,
		})
		for _, addr := range strings.Split(*peersFlag, ",") {
			if addr = strings.TrimSpace(addr); addr == "" {
				continue
			}
			if err := pool.Add(addr); err != nil {
				fmt.Fprintln(os.Stderr, "embedserver: fabric:", err)
				os.Exit(2)
			}
		}
		s.AttachFabric(pool)
		fmt.Printf("embedserver: fabric enabled (%d remote peers)\n", len(pool.Peers())-1)
	}
	var jobMgr *jobs.Manager
	if *dataDir != "" {
		var err error
		jobMgr, err = jobs.Open(jobs.Config{
			DataDir:         *dataDir,
			DefaultWorkers:  *workers,
			CheckpointEvery: *checkpointEvery,
			Planner:         s.Planner(), // jobs warm the serving path's plan cache
			Fabric:          pool,        // nil unless -fabric-secret: distributed jobs rejected
			Logger:          logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "embedserver: jobs:", err)
			os.Exit(1)
		}
		s.AttachJobs(jobMgr)
		fmt.Printf("embedserver: batch jobs enabled under %s\n", *dataDir)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "embedserver:", err)
		os.Exit(1)
	}
	fmt.Printf("embedserver: listening on %s\n", ln.Addr())

	if *joinURL != "" {
		// Register with the coordinator only after the listener is bound, so
		// the coordinator's first health probe of the advertised address can
		// succeed.  The client retries refused connections with backoff, so
		// "worker starts a moment before the coordinator" also works.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			c := client.New(*joinURL, client.WithSecret(*fabricSecret), client.WithRetries(5))
			if _, err := c.JoinPeer(ctx, *advertise); err != nil {
				fmt.Fprintf(os.Stderr, "embedserver: fabric join %s failed: %v\n", *joinURL, err)
				return
			}
			fmt.Printf("embedserver: joined fabric at %s as %s\n", *joinURL, *advertise)
		}()
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "embedserver: debug listener:", err)
			os.Exit(1)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		fmt.Printf("embedserver: debug listening on %s\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "embedserver: debug listener:", err)
			}
		}()
	}

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "embedserver:", err)
		os.Exit(1)
	case sig := <-stop:
		fmt.Printf("embedserver: %v, draining for up to %s\n", sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "embedserver: shutdown:", err)
			os.Exit(1)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "embedserver:", err)
			os.Exit(1)
		}
		if jobMgr != nil {
			// Running jobs checkpoint and park as queued; the next start
			// resumes them with byte-identical result streams.
			if err := jobMgr.Close(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "embedserver: jobs shutdown:", err)
				os.Exit(1)
			}
		}
		if pool != nil {
			pool.Close()
		}
	}
}
