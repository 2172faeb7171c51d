#!/usr/bin/env bash
# Byte A/B of the served surfaces: a git revision against the working tree.
#
#   bash scripts/bytes_ab.sh REV
#
# REV is extracted with `git archive` into a temporary directory.  Each side
# builds its own embedserver and boots it with -no-log and a fresh -data-dir,
# then answers the same requests in the same order:
#
#   - POST /v1/plan, /v1/embed (without and with include_map) and
#     /v1/compare for one guest per family and the meshes 3x5x25, 3x9x15,
#     5x9x9 and cylinder 9x9x10 (whose plans hold solver nodes), each in its
#     given and its reversed axis order;
#   - a plansweep job (dims 3, max_axis 24, max_nodes 8192) and a plancensus
#     job (dims 3, max_axis 20), each at workers 1 and 4: the final job
#     status, the result stream and the plancensus artifact.
#
# A surface is a response body followed by its HTTP status.  Job IDs and
# *_unix_ms timestamps are masked in job statuses; nothing else is.  The
# script prints one line per surface, "same" or the first differing byte as
# cmp reports it, and exits 1 on any difference.  A side that fails to
# build, boot, answer or finish a job within 2 minutes stops it with an
# error.
set -euo pipefail
[[ $# -eq 1 ]] || {
	echo "usage: bash scripts/bytes_ab.sh REV" >&2
	exit 2
}
rev=$1
cd "$(dirname "$0")/.."
head=$PWD

tmp=$(mktemp -d)
pid=
trap '[[ -n $pid ]] && kill "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"

guests=(mesh:5x6x7 torus:6x10 cylinder:3x4x6 tree:31
	mesh:3x5x25 mesh:3x9x15 mesh:5x9x9 cylinder:9x9x10)

# reversed SHAPE: the shape with its axes in reverse order.
reversed() {
	local -a axes
	IFS=x read -ra axes <<<"$1"
	local out=${axes[-1]} i
	for ((i = ${#axes[@]} - 2; i >= 0; i--)); do
		out+=x${axes[i]}
	done
	echo "$out"
}

# req NAME METHOD PATH [BODY]: one request; its body and status land in
# surfaces/NAME of the current side.
req() {
	local args=(-sS -X "$2" -w '\n%{http_code}\n' -o - "http://$addr$3")
	[[ $# -ge 4 ]] && args+=(-d "$4")
	curl "${args[@]}" >"$out/surfaces/$1"
}

# job NAME BODY: submits a job, waits for a terminal state and keeps its
# masked status, its result stream and, for plancensus, its artifact.
job() {
	local id state i
	id=$(curl -fsS -X POST -d "$2" "http://$addr/v1/jobs" | jq -r .id)
	for ((i = 0; ; i++)); do
		state=$(curl -fsS "http://$addr/v1/jobs/$id" | jq -r .state)
		[[ $state == queued || $state == running ]] || break
		((i < 600)) || {
			echo "bytes_ab: job $1 still $state after 2 minutes" >&2
			exit 1
		}
		sleep 0.2
	done
	req "job.$1.status" GET "/v1/jobs/$id"
	sed -i -e "s/$id/<id>/g" -e 's/\("[a-z]*_unix_ms"\): [0-9]*/\1: 0/' "$out/surfaces/job.$1.status"
	req "job.$1.results" GET "/v1/jobs/$id/results"
	if [[ $1 == plancensus* ]]; then
		req "job.$1.artifact" GET "/v1/jobs/$id/artifact"
	fi
}

# collect SIDE DIR: builds and boots DIR's embedserver and records every
# surface under $tmp/SIDE/surfaces.
collect() {
	out=$tmp/$1
	mkdir -p "$out/surfaces" "$out/data"
	(cd "$2" && go build -o "$out/embedserver" ./cmd/embedserver)
	"$out/embedserver" -addr 127.0.0.1:0 -no-log -data-dir "$out/data" >"$out/log" 2>&1 &
	pid=$!
	addr=
	local i
	for ((i = 0; i < 100; i++)); do
		addr=$(sed -n 's/^embedserver: listening on //p' "$out/log" | head -n 1)
		[[ -n $addr ]] && break
		sleep 0.1
	done
	[[ -n $addr ]] || {
		echo "bytes_ab: $1 embedserver never bound:" >&2
		cat "$out/log" >&2
		exit 1
	}
	local g fam s body orders
	for g in "${guests[@]}"; do
		fam=${g%%:*}
		orders=("${g#*:}")
		s=$(reversed "${orders[0]}")
		[[ $s == "${orders[0]}" ]] || orders+=("$s")
		for s in "${orders[@]}"; do
			body="{\"shape\":\"$s\",\"family\":\"$fam\""
			req "plan.$fam.$s" POST /v1/plan "$body}"
			req "embed.$fam.$s" POST /v1/embed "$body}"
			req "embed_map.$fam.$s" POST /v1/embed "$body,\"include_map\":true}"
			req "compare.$fam.$s" POST /v1/compare "$body}"
		done
	done
	local w
	for w in 1 4; do
		job "plansweep.w$w" "{\"kind\":\"plansweep\",\"workers\":$w,\"plansweep\":{\"dims\":3,\"max_axis\":24,\"max_nodes\":8192}}"
		job "plancensus.w$w" "{\"kind\":\"plancensus\",\"workers\":$w,\"plancensus\":{\"dims\":3,\"max_axis\":20}}"
	done
	kill "$pid"
	wait "$pid" 2>/dev/null || true
	pid=
}

collect rev "$tmp/rev"
collect head "$head"

bad=0
for f in "$tmp/rev/surfaces"/*; do
	name=${f##*/}
	if cmp -s "$f" "$tmp/head/surfaces/$name"; then
		printf '%-32s same\n' "$name"
	else
		printf '%-32s %s\n' "$name" "$(cmp "$f" "$tmp/head/surfaces/$name" 2>&1 |
			sed -e 's/^.* differ: char /differs at byte /' -e "s|$tmp/\([a-z]*\)/surfaces/[^ ]*|\1|g")"
		bad=1
	fi
done
exit "$bad"
