#!/usr/bin/env bash
# Builds ./cmd/embedserver and the benchmark program from this checkout, then
# runs one benchmark workload, for example
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# The last line of stdout is the JSON result; a table goes to stderr.  The
# builds, the Go build cache, job data and trace files all live under
# .bench_build/ at the repository root, so a run writes nothing outside the
# checkout.  Without the repository's sources next to bench/ the script exits
# non-zero before it runs any go command or prints a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d cmd/embedserver ]]; then
	echo "bench/run.sh: no repository sources (go.mod, cmd/embedserver) next to bench/" >&2
	exit 1
fi
out=.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" XDG_CONFIG_HOME="$PWD/$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on (the default "local" mode), every go command may fork a
# detached sidecar process that outlives it; "off" keeps go from starting one.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/embedserver" ./cmd/embedserver
(cd bench && go build -o "../$out/bench" .)
exec "$out/bench" -server "$out/embedserver" -out "$out" "$@"
