#!/bin/sh
# fabric_smoke.sh — end-to-end check of the distributed sweep fabric: boot a
# coordinator and two worker embedservers sharing a fabric secret (one worker
# registers itself with -join/-advertise, the other through `embedctl peers
# join`), run a census job with -distributed so its chunks shard across the
# workers, SIGKILL one worker mid-run, and require the finished job's result
# stream to be byte-identical to a single-node (non-distributed) run of the
# same job on the same server.  Backs `make fabric-smoke` (part of
# `make check`).
set -eu

GO="${GO:-go}"
secret="fabric-smoke-secret"
tmp="$(mktemp -d)"
trap 'status=$?; for p in ${pids:-}; do kill "$p" 2>/dev/null; done; rm -rf "$tmp"; exit $status' EXIT INT TERM
pids=""

"$GO" build -o "$tmp/embedserver" ./cmd/embedserver
"$GO" build -o "$tmp/embedctl" ./cmd/embedctl

# wait_addr LOG PIDVAR: block until the server behind LOG prints its bound
# address, echoing it.
wait_addr() {
    log="$1"; spid="$2"
    i=0
    while [ $i -lt 100 ]; do
        a="$(sed -n 's/^embedserver: listening on //p' "$log" | head -n 1)"
        [ -n "$a" ] && { echo "$a"; return 0; }
        kill -0 "$spid" 2>/dev/null || { echo "fabric-smoke: server died:" >&2; cat "$log" >&2; return 1; }
        sleep 0.1
        i=$((i + 1))
    done
    echo "fabric-smoke: server never bound:" >&2; cat "$log" >&2
    return 1
}

# Coordinator: jobs enabled, fabric secret set (worker endpoints + pool),
# single-threaded chunks so the job is slow enough to kill a worker under.
"$tmp/embedserver" -addr 127.0.0.1:0 -no-log -data-dir "$tmp/data" \
    -fabric-secret "$secret" -checkpoint-every 2 -workers 1 >"$tmp/coord.log" 2>&1 &
coord_pid=$!
pids="$coord_pid"
coord="$(wait_addr "$tmp/coord.log" "$coord_pid")"

# Worker 1: registered through the CLI join subcommand.
"$tmp/embedserver" -addr 127.0.0.1:0 -no-log -fabric-secret "$secret" \
    -workers 1 >"$tmp/w1.log" 2>&1 &
w1_pid=$!
pids="$pids $w1_pid"
w1="$(wait_addr "$tmp/w1.log" "$w1_pid")"
"$tmp/embedctl" peers join -addr "http://$coord" -secret "$secret" "http://$w1" >/dev/null

# Worker 2: self-registration via -join/-advertise needs its port up front,
# so probe for a free one (bind failures just retry with another port).
w2_pid=""
i=0
while [ $i -lt 10 ]; do
    port=$((20000 + $(od -An -N2 -tu2 /dev/urandom | tr -d ' ') % 20000))
    "$tmp/embedserver" -addr "127.0.0.1:$port" -no-log -fabric-secret "$secret" \
        -workers 1 -join "http://$coord" -advertise "http://127.0.0.1:$port" \
        >"$tmp/w2.log" 2>&1 &
    w2_pid=$!
    if w2="$(wait_addr "$tmp/w2.log" "$w2_pid" 2>/dev/null)"; then
        pids="$pids $w2_pid"
        break
    fi
    wait "$w2_pid" 2>/dev/null || true
    w2_pid=""
    i=$((i + 1))
done
[ -n "$w2_pid" ] || { echo "fabric-smoke: could not bind worker 2"; exit 1; }

# Both workers must show up in the coordinator's peer listing ("local" is
# the coordinator's own loopback row).
i=0
while [ $i -lt 100 ]; do
    "$tmp/embedctl" peers -addr "http://$coord" >"$tmp/peers.txt" 2>/dev/null || true
    if grep -q "$w1" "$tmp/peers.txt" && grep -q "$w2" "$tmp/peers.txt"; then
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
grep -q "$w1" "$tmp/peers.txt" || { echo "fabric-smoke: worker 1 never joined:"; cat "$tmp/peers.txt"; exit 1; }
grep -q "$w2" "$tmp/peers.txt" || { echo "fabric-smoke: worker 2 never joined:"; cat "$tmp/peers.txt"; exit 1; }

# Distributed census across the two workers.
"$tmp/embedctl" job submit -addr "http://$coord" -kind census -max-n 8 -distributed >"$tmp/submit.json"
id="$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$tmp/submit.json" | head -n 1)"
[ -n "$id" ] || { echo "fabric-smoke: no job id in $(cat "$tmp/submit.json")"; exit 1; }

# Let a few chunks fold, then SIGKILL worker 1 mid-run: its in-flight chunks
# must requeue onto the survivor and fold exactly once.
i=0
while [ $i -lt 400 ]; do
    done_chunks="$("$tmp/embedctl" job status -addr "http://$coord" "$id" | sed -n 's/.*"chunks_done": \([0-9]*\).*/\1/p' | head -n 1)"
    [ "${done_chunks:-0}" -ge 4 ] 2>/dev/null && break
    sleep 0.05
    i=$((i + 1))
done
[ "${done_chunks:-0}" -ge 4 ] || { echo "fabric-smoke: job never progressed"; exit 1; }
kill -KILL "$w1_pid"
wait "$w1_pid" 2>/dev/null || true
pids="$coord_pid $w2_pid"

"$tmp/embedctl" job watch -addr "http://$coord" "$id" >"$tmp/final.json" 2>/dev/null
grep -q '"state": "done"' "$tmp/final.json" || { echo "fabric-smoke: distributed job did not finish after worker kill:"; cat "$tmp/final.json"; exit 1; }
"$tmp/embedctl" job results -addr "http://$coord" "$id" >"$tmp/distributed.ndjson"

# The stitched cross-node trace: one Chrome trace holding the coordinator's
# dispatch and fold spans plus every worker-side exec span the fabric
# carried home — including the chunks requeued off the killed worker, which
# re-executed on the survivor.  Every folded chunk must show all three.
"$tmp/embedctl" trace -job "$id" -addr "http://$coord" -o "$tmp/trace.json" >/dev/null
chunks="$(sed -n 's/.*"chunks_done": \([0-9]*\).*/\1/p' "$tmp/final.json" | head -n 1)"
for kind in dispatch exec fold; do
    n="$(grep -o "\"$kind chunk [0-9]*\"" "$tmp/trace.json" | sort -u | wc -l)"
    [ "$n" -eq "${chunks:-0}" ] || {
        echo "fabric-smoke: trace has $n distinct \"$kind chunk\" spans, want $chunks"
        exit 1
    }
done

# Reference: the same job, single-node, on the same coordinator.
"$tmp/embedctl" job submit -addr "http://$coord" -kind census -max-n 8 -watch >/dev/null 2>&1
ref_id="$("$tmp/embedctl" job list -addr "http://$coord" | awk '$2=="census" && $1!="'"$id"'" {print $1}' | head -n 1)"
[ -n "$ref_id" ] || { echo "fabric-smoke: reference job not found"; exit 1; }
"$tmp/embedctl" job results -addr "http://$coord" "$ref_id" >"$tmp/reference.ndjson"

cmp -s "$tmp/distributed.ndjson" "$tmp/reference.ndjson" || {
    echo "fabric-smoke: distributed result stream differs from the single-node run"
    exit 1
}
[ -s "$tmp/distributed.ndjson" ] || { echo "fabric-smoke: empty result stream"; exit 1; }

requeued="$( (curl -s "http://$coord/metrics" 2>/dev/null || true) \
    | sed -n 's/^embedserver_fabric_chunks_requeued_total \([0-9]*\).*/\1/p')"

kill -TERM "$coord_pid" "$w2_pid"
for p in $coord_pid $w2_pid; do
    wait "$p" || { echo "fabric-smoke: server $p exited non-zero"; exit 1; }
done
pids=""
echo "fabric-smoke: ok (worker killed mid-run, distributed byte-identical: $(wc -c <"$tmp/distributed.ndjson") bytes, requeued=${requeued:-?})"
