GO ?= go

.PHONY: check vet build test race bench bench-short bench-check bench-json bounds-check figures fmt gen gen-check serve-smoke obs-smoke jobs-smoke artifact-smoke fabric-smoke dash dash-check

check: vet build gen-check test race bounds-check bench-short bench-check serve-smoke obs-smoke jobs-smoke artifact-smoke fabric-smoke dash-check

# The optimality gate: the golden known-optimal table of internal/bounds,
# run on its own so a strategy regression (a planner change that stops
# achieving a certified floor) or a weakened bound fails CI with a named
# shape, not a buried test diff.
bounds-check:
	$(GO) test -count=1 -run 'TestKnownOptimalFloors|TestPlannerAchievesKnownOptimal|TestGrayBaselineStaysOptimalOnGrayMinimalMeshes' ./internal/bounds

# Regenerate the enumgen boilerplate (strategy names, plan kinds, guest
# families).
gen:
	$(GO) generate ./...

# Fail when a generated file drifted from its enum declaration — the wire
# names of strategies, plan kinds and guest families are locked by
# generated code, so forgetting `make gen` is a CI failure, not a silent
# skew.
gen-check:
	@before=$$(find . -name '*_enumgen.go' | sort | xargs cksum); \
	$(GO) generate ./... || exit 1; \
	after=$$(find . -name '*_enumgen.go' | sort | xargs cksum); \
	if [ "$$before" != "$$after" ]; then \
		echo "gen-check: generated files drifted from their enum declarations;"; \
		echo "gen-check: the regenerated files are now on disk - review and commit them."; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages with shared mutable state: the planner cache,
# the sweep engine, the fused metrics engine (concurrent Measure on a
# shared Embedding), the HTTP server (result cache + coalescer under a
# 32-goroutine herd), the job manager (concurrent submit/cancel/watch over
# checkpointing runners), the client SDK, the span tracer (concurrent child
# registration), and the root facade's shared default planner.
race:
	$(GO) test -race ./internal/core ./internal/embed ./internal/fabric ./internal/jobs ./internal/obs ./internal/server ./internal/simnet ./internal/stats ./internal/sweep ./pkg/client .

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
bench-json:
	@{ $(GO) test -run '^$$' -bench 'BenchmarkMeasure|BenchmarkLinkLoads' -benchmem ./internal/embed; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEmbedHandler|BenchmarkPlanTier|BenchmarkSSEFanout' -benchmem ./internal/server; \
	  $(GO) test -run '^$$' -bench 'BenchmarkCensusJob|BenchmarkPlanSweepJob' -benchmem ./internal/jobs; \
	  $(GO) test -run '^$$' -bench 'BenchmarkClassify' -benchmem ./internal/core; \
	  $(GO) test -run '^$$' -bench 'BenchmarkDispatch' ./internal/fabric; \
	  $(GO) test -run '^$$' -bench . -benchmem ./internal/artifact; } \
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

fmt:
	gofmt -l -w .
