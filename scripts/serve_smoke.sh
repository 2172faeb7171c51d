#!/bin/sh
# serve_smoke.sh — build embedserver, start it on a random port, hit
# /healthz and one /v1/embed, then shut it down gracefully via SIGTERM.
# Also runs the CLI file path: `embedctl embed -o` saves embeddings of three
# families and `embedctl verify` reloads them, together with a map saved
# from a /v1/embed include_map response; the whole response must be
# refused with a message naming its embedding object.  Backs the
# `make serve-smoke` target (part of `make check`).
set -eu

GO="${GO:-go}"
tmp="$(mktemp -d)"
trap 'status=$?; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null; rm -rf "$tmp"; exit $status' EXIT INT TERM

"$GO" build -o "$tmp/embedserver" ./cmd/embedserver
"$GO" build -o "$tmp/embedctl" ./cmd/embedctl

# verify_saved <name> <file> <embed output>: embedctl verify must accept the
# saved embedding as one-to-one and print the dilation and wirelength the
# embedding had when it was built (both depend on the map alone; congestion
# is re-measured with e-cube routes after a load).
verify_saved() {
    "$tmp/embedctl" verify "$2" >"$tmp/$1.verify" 2>&1 ||
        { echo "serve-smoke: verify rejected $1: $(cat "$tmp/$1.verify")"; exit 1; }
    grep -qx 'valid (one-to-one: true)' "$tmp/$1.verify" ||
        { echo "serve-smoke: $1 not one-to-one: $(cat "$tmp/$1.verify")"; exit 1; }
    want="$(grep -o 'dil=[0-9]* avgdil=[0-9.]* wl=[0-9]*' "$3" | head -n 1)"
    [ -n "$want" ] && grep -q "$want" "$tmp/$1.verify" ||
        { echo "serve-smoke: $1 reloads with other metrics: $(cat "$tmp/$1.verify"), want $want"; exit 1; }
}

for g in mesh:5x6x7 torus:6x10 tree:15; do
    name="${g%%:*}"
    "$tmp/embedctl" embed -family "$name" -o "$tmp/$name.json" "${g#*:}" >"$tmp/$name.embed" ||
        { echo "serve-smoke: embed -o failed for $g"; exit 1; }
    verify_saved "$name" "$tmp/$name.json" "$tmp/$name.embed"
done

"$tmp/embedserver" -addr 127.0.0.1:0 >"$tmp/log" 2>&1 &
pid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
    addr="$(sed -n 's/^embedserver: listening on //p' "$tmp/log" | head -n 1)"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "serve-smoke: server died:"; cat "$tmp/log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || { echo "serve-smoke: server never bound:"; cat "$tmp/log"; exit 1; }

curl -fsS "http://$addr/healthz" >"$tmp/healthz.json"
grep -q '"ok"' "$tmp/healthz.json" || { echo "serve-smoke: bad healthz: $(cat "$tmp/healthz.json")"; exit 1; }

curl -fsS -X POST -d '{"shape":"5x6x7"}' "http://$addr/v1/embed" >"$tmp/embed.json"
grep -q '"Dilation": 2' "$tmp/embed.json" || { echo "serve-smoke: bad embed response: $(cat "$tmp/embed.json")"; exit 1; }

# A non-mesh guest family end-to-end: a cylinder with a power-of-two wrapped
# axis embeds Gray with dilation 1 and must echo its family.
curl -fsS -X POST -d '{"shape":"3x4x8","family":"cylinder"}' "http://$addr/v1/embed" >"$tmp/cyl.json"
grep -q '"family": "cylinder"' "$tmp/cyl.json" || { echo "serve-smoke: bad cylinder embed: $(cat "$tmp/cyl.json")"; exit 1; }
grep -q '"Dilation": 1' "$tmp/cyl.json" || { echo "serve-smoke: bad cylinder dilation: $(cat "$tmp/cyl.json")"; exit 1; }

# The embedding object of an include_map response is the same schema, so
# a map served in a permuted axis order verifies like a saved file.
curl -fsS -X POST -d '{"shape":"7x6x5","include_map":true}' "http://$addr/v1/embed" >"$tmp/served.json"
sed -n '/^  "embedding": {/,/^  }/p' "$tmp/served.json" | sed '1s/^  "embedding": //' >"$tmp/served.map.json"
grep -q '"guest": "7x6x5"' "$tmp/served.map.json" ||
    { echo "serve-smoke: no embedding object in $(cat "$tmp/served.json")"; exit 1; }
verify_saved served "$tmp/served.map.json" "$tmp/mesh.embed"
# The whole response is not an embedding file: verify must exit 1 and say
# which object to verify instead of misreading the API version.
vstatus=0
"$tmp/embedctl" verify "$tmp/served.json" >"$tmp/served.verify" 2>&1 || vstatus=$?
[ "$vstatus" -eq 1 ] && grep -q 'whole /v1/embed response; verify its "embedding" object' "$tmp/served.verify" ||
    { echo "serve-smoke: verify of a whole response exited $vstatus: $(cat "$tmp/served.verify")"; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "serve-smoke: server exited non-zero:"; cat "$tmp/log"; exit 1; }
pid=""
echo "serve-smoke: ok ($addr)"
