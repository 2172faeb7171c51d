#!/bin/sh
# jobs_smoke.sh — end-to-end check of the batch-job subsystem's crash
# resilience: boot embedserver with -data-dir, submit a census job through
# embedctl, kill the server with SIGKILL mid-run, restart it on the same
# data dir, let the job resume from its checkpoint, and verify the streamed
# result bytes are identical to an uninterrupted run of the same job.
#
# A live SSE subscriber (`embedctl job events`) watches the job across the
# kill: its connection dies with the server, it reconnects with
# Last-Event-ID after the restart, and the concatenation of everything it
# streamed must be byte-identical to the NDJSON results download — the
# offset-resume contract of GET /v1/jobs/{id}/events.
#
# A second live subscriber follows a plansweep, whose chunk commits reveal
# thousands of rows at once: it must finish with the job on one connection,
# again byte-identical to the results download.
# Backs `make jobs-smoke` (part of `make check`).
set -eu

GO="${GO:-go}"
tmp="$(mktemp -d)"
trap 'status=$?; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null; [ -n "${sse_pid:-}" ] && kill "$sse_pid" 2>/dev/null; rm -rf "$tmp"; exit $status' EXIT INT TERM

"$GO" build -o "$tmp/embedserver" ./cmd/embedserver
"$GO" build -o "$tmp/embedctl" ./cmd/embedctl

start_server() {
    # Frequent checkpoints so the SIGKILL lands between checkpoint and
    # completion; single-threaded chunks keep the job slow enough to kill.
    # An optional argument pins the listen address, so a restart is
    # reachable at the same port the SSE subscriber keeps retrying.
    "$tmp/embedserver" -addr "${1:-127.0.0.1:0}" -no-log -data-dir "$tmp/data" \
        -checkpoint-every 2 -workers 1 >"$tmp/log" 2>&1 &
    pid=$!
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr="$(sed -n 's/^embedserver: listening on //p' "$tmp/log" | head -n 1)"
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "jobs-smoke: server died:"; cat "$tmp/log"; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$addr" ] || { echo "jobs-smoke: server never bound:"; cat "$tmp/log"; exit 1; }
}

start_server

# Submit a census that runs long enough to survive until the kill.
"$tmp/embedctl" job submit -addr "http://$addr" -kind census -max-n 8 >"$tmp/submit.json"
id="$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$tmp/submit.json" | head -n 1)"
[ -n "$id" ] || { echo "jobs-smoke: no job id in $(cat "$tmp/submit.json")"; exit 1; }

# Live SSE subscriber: streams result rows from offset 0, survives the
# SIGKILL below by reconnecting with Last-Event-ID once the server is back.
"$tmp/embedctl" job events -addr "http://$addr" "$id" >"$tmp/sse.ndjson" 2>/dev/null &
sse_pid=$!

# Wait for the first chunks to land, then SIGKILL — no drain, no checkpoint
# flush beyond what the periodic writer already committed.
i=0
while [ $i -lt 200 ]; do
    done_chunks="$("$tmp/embedctl" job status -addr "http://$addr" "$id" | sed -n 's/.*"chunks_done": \([0-9]*\).*/\1/p' | head -n 1)"
    [ "${done_chunks:-0}" -ge 4 ] 2>/dev/null && break
    sleep 0.05
    i=$((i + 1))
done
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
pid=""

state="$(sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' "$tmp/data/$id/job.json" | head -n 1)"
[ "$state" = "done" ] && { echo "jobs-smoke: job finished before the kill — nothing was resumed"; exit 1; }

# Restart on the same data dir and the same address: the job must resume
# and finish, and the SSE subscriber must find the server again.
mv "$tmp/log" "$tmp/log.1"
start_server "$addr"
"$tmp/embedctl" job watch -addr "http://$addr" "$id" >"$tmp/final.json" 2>/dev/null
grep -q '"state": "done"' "$tmp/final.json" || { echo "jobs-smoke: job did not finish after restart:"; cat "$tmp/final.json"; exit 1; }
grep -q '"resumed": [1-9]' "$tmp/final.json" || { echo "jobs-smoke: job did not report a resume:"; cat "$tmp/final.json"; exit 1; }
"$tmp/embedctl" job results -addr "http://$addr" "$id" >"$tmp/resumed.ndjson"

# Reference: the same job, uninterrupted, on the same server.
"$tmp/embedctl" job submit -addr "http://$addr" -kind census -max-n 8 -watch >/dev/null 2>&1
ref_id="$("$tmp/embedctl" job list -addr "http://$addr" | awk '$2=="census" && $1!="'"$id"'" {print $1}' | head -n 1)"
[ -n "$ref_id" ] || { echo "jobs-smoke: reference job not found"; exit 1; }
"$tmp/embedctl" job results -addr "http://$addr" "$ref_id" >"$tmp/reference.ndjson"

cmp -s "$tmp/resumed.ndjson" "$tmp/reference.ndjson" || {
    echo "jobs-smoke: resumed result stream differs from the uninterrupted run"
    exit 1
}
[ -s "$tmp/resumed.ndjson" ] || { echo "jobs-smoke: empty result stream"; exit 1; }

# The SSE subscriber saw the done event and exited; everything it streamed
# across the kill/reconnect must equal the results download byte-for-byte.
i=0
while kill -0 "$sse_pid" 2>/dev/null; do
    [ $i -lt 100 ] || { echo "jobs-smoke: SSE subscriber never finished"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
wait "$sse_pid" || { echo "jobs-smoke: SSE subscriber exited non-zero"; exit 1; }
sse_pid=""
cmp -s "$tmp/sse.ndjson" "$tmp/resumed.ndjson" || {
    echo "jobs-smoke: SSE stream (resumed across the kill) differs from the results download"
    exit 1
}

# A plansweep chunk commits a whole first axis of rows, so one poll can
# reveal thousands of rows to a live subscriber at once.
"$tmp/embedctl" job submit -addr "http://$addr" -kind plansweep -dims 3 -max-axis 40 -max-nodes 65536 >"$tmp/sweep.json"
sweep_id="$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$tmp/sweep.json" | head -n 1)"
[ -n "$sweep_id" ] || { echo "jobs-smoke: no plansweep id in $(cat "$tmp/sweep.json")"; exit 1; }
timeout 30 "$tmp/embedctl" job events -addr "http://$addr" "$sweep_id" >"$tmp/sweep.sse.ndjson" 2>/dev/null || {
    echo "jobs-smoke: live SSE subscriber of the plansweep did not finish within 30 s"
    exit 1
}
"$tmp/embedctl" job results -addr "http://$addr" "$sweep_id" >"$tmp/sweep.ndjson"
cmp -s "$tmp/sweep.sse.ndjson" "$tmp/sweep.ndjson" || {
    echo "jobs-smoke: plansweep SSE stream differs from the results download"
    exit 1
}

kill -TERM "$pid"
wait "$pid" || { echo "jobs-smoke: server exited non-zero:"; cat "$tmp/log"; exit 1; }
pid=""
echo "jobs-smoke: ok (killed mid-run, resumed byte-identical: $(wc -c <"$tmp/resumed.ndjson") bytes; plansweep followed live: $(wc -c <"$tmp/sweep.ndjson") bytes)"
