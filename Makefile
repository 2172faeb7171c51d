GO ?= go

.PHONY: check fmt-check vet build test race fuzz-smoke bench bench-short bench-check bench-json bounds-check figures figures-check fmt serve-smoke obs-smoke jobs-smoke artifact-smoke fabric-smoke dash dash-check lines

check: fmt-check vet build test race fuzz-smoke bounds-check figures-check bench-short bench-check serve-smoke obs-smoke jobs-smoke artifact-smoke fabric-smoke dash-check

# The optimality gate: the golden known-optimal table of internal/bounds,
# run on its own so a strategy regression (a planner change that stops
# achieving a certified floor) or a weakened bound fails CI with a named
# shape, not a buried test diff.
bounds-check:
	$(GO) test -count=1 -run 'TestKnownOptimalFloors|TestPlannerAchievesKnownOptimal|TestGrayBaselineStaysOptimalOnGrayMinimalMeshes' ./internal/bounds

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages with shared mutable state: the planner cache and
# the per-process solver table (8 goroutines re-planning solver forms), the
# sweep engine, the fused metrics engine (concurrent Measure on a
# shared Embedding), the HTTP server (result cache + coalescer under a
# 32-goroutine herd), the job manager (concurrent submit/cancel/watch over
# checkpointing runners), the client SDK, the span tracer (concurrent child
# registration), and the root facade's shared default planner.
race:
	$(GO) test -race ./internal/core ./internal/embed ./internal/fabric ./internal/jobs ./internal/obs ./internal/server ./internal/simnet ./internal/stats ./internal/sweep ./pkg/client .

# The fuzz targets, as package:name.  `make test` runs only their seed
# corpora, as unit tests.
FUZZ_TARGETS = \
	internal/artifact:FuzzDecodeRecord \
	internal/artifact:FuzzArtifactOpen \
	internal/embed:FuzzRead \
	internal/embed:FuzzFromSerial \
	internal/jobs:FuzzFold \
	internal/jobs:FuzzCheckpointResume \
	internal/server:FuzzJobStreamOffset \
	internal/server:FuzzParseGuest \
	internal/server:FuzzRequestBody

# Fuzz each target for 5 s past its seed corpus; go test -fuzz takes one
# package and one target per run.  Minimizing a new input may take 60 s by
# default, which would leave FuzzArtifactOpen ~100 executions in its 5 s
# (~17,000 with 1 s).  A failing input is written under the package's
# testdata/fuzz/, where it joins the seed corpus.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*} name=$${t#*:}; \
		echo "fuzz-smoke: $$name (./$$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 5s -fuzzminimizetime 1s ./$$pkg || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem .

# One pass over every benchmark as a smoke test (each runs a single
# iteration) — keeps `check` fast while still compiling and exercising the
# bench bodies.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/... .

# The repo benchmark under bench/ is its own Go module, so the root build
# and tests never compile it; vet and test it here so an API change in the
# packages it drives cannot break it unnoticed.  Its TestSmoke is also the
# end-to-end load gate: it boots embedserver and checks every answer of
# every workload.  -count=1 because the test cache cannot see the
# embedserver build TestSmoke execs.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Machine-readable benchmarks for the repo's perf trajectory, one row per
# benchmark across the layers, as JSON on stdout:
# `make bench-json > BENCH_PRn.json` (see EXPERIMENTS.md for the numbers).
# Each benchmark runs 5 times; cmd/benchjson folds the samples into the
# median, minimum and interquartile range of ns/op.
bench-json:
	@{ $(GO) test -run '^$$' -bench 'BenchmarkMeasure|BenchmarkLinkLoads' -benchmem -count 5 ./internal/embed; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEmbedHandler|BenchmarkPlanTier' -benchmem -count 5 ./internal/server; \
	  $(GO) test -run '^$$' -bench 'BenchmarkCensusJob|BenchmarkPlanSweepJob' -benchmem -count 5 ./internal/jobs; \
	  $(GO) test -run '^$$' -bench 'BenchmarkClassify|BenchmarkPlan3D|BenchmarkPlanWithFold|BenchmarkPlanFresh' -benchmem -count 5 ./internal/core; \
	  $(GO) test -run '^$$' -bench 'BenchmarkDispatch' -count 5 ./internal/fabric; \
	  $(GO) test -run '^$$' -bench . -benchmem -count 5 ./internal/artifact; } \
	  | $(GO) run ./cmd/benchjson

# Build embedserver, boot it on a random port, hit /healthz and /v1/embed,
# and check it drains cleanly on SIGTERM.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end observability check: debug-traced requests, /metrics gauges,
# the pprof/expvar debug listener, the JSON access log and embedctl
# explain/trace.
obs-smoke:
	sh scripts/obs_smoke.sh

# Crash-resilience check for the batch-job subsystem: submit a census via
# embedctl, SIGKILL the server mid-run, restart on the same -data-dir, and
# require the resumed job's result stream to be byte-identical to an
# uninterrupted run.
jobs-smoke:
	sh scripts/jobs_smoke.sh

# End-to-end check of the plan-artifact tier chain: embedctl artifact
# build/inspect/verify on a small domain, embedserver -plan-artifact, and
# /v1/plan answering with artifact / closed_form / computed / cache sources
# (with the per-tier /metrics counters to prove it).
artifact-smoke:
	sh scripts/artifact_smoke.sh

# End-to-end check of the distributed sweep fabric: coordinator + two worker
# embedservers over a shared secret, a -distributed census sharded across
# them, one worker SIGKILLed mid-run, and the folded result stream compared
# byte-for-byte against a single-node run.
fabric-smoke:
	sh scripts/fabric_smoke.sh

# Regenerate the Grafana dashboard pack from the Go definitions in
# internal/dash.  Every panel query is validated against
# server.MetricFamilies() at render time.
dash:
	$(GO) run ./cmd/dashgen -out deploy/grafana/dashboards

# Fail when deploy/grafana/dashboards drifted from internal/dash — the
# dashboards-as-code gate: metric renames must update the dashboards in
# the same change.
dash-check:
	$(GO) run ./cmd/dashgen -check deploy/grafana/dashboards

figures:
	$(GO) run ./cmd/figures

# Fail when the paper's tables and figures drifted from the committed
# capture: `go run ./cmd/figures` must print the bytes of
# figures_output.txt.  Its sweeps (Figure 2, the §5 exceptions, the §8 table)
# run on internal/sweep and add up their tallies in internal/stats, so a
# change there that moves a number fails here.  A planner change that moves
# a plan on purpose regenerates the capture with
# `go run ./cmd/figures > figures_output.txt`.
figures-check:
	@$(GO) run ./cmd/figures | cmp - figures_output.txt && echo "figures-check: ok" || { \
		echo "figures-check: go run ./cmd/figures differs from figures_output.txt"; exit 1; }

fmt:
	gofmt -l -w .

# The size of the program: lines of non-test Go outside bench/, then the
# same per package.  It counts the files git tracks, so untracked files
# never count.
lines:
	@git ls-files -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/*' | xargs wc -l | awk ' \
		$$2 == "total" { next } \
		{ d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { printf "non-test Go outside bench/: %d\n", t; for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2" }'

# Fail when a Go file is not gofmt-clean; `make fmt` rewrites them.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "fmt-check: run make fmt"; exit 1; }
