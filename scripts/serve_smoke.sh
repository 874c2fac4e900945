#!/usr/bin/env bash
# serve-smoke: end-to-end check of the train → checkpoint → serve
# pipeline. Trains a tiny model, saves a full-model checkpoint, boots
# mtmlf-serve on a random port, and curls every endpoint — including
# the /example → POST round trip, which exercises the JSON codec both
# ways. Run via `make serve-smoke`; CI runs it on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

SEED=7
SCALE=0.04

echo "== building binaries"
go build -o "$TMP/mtmlf-train" ./cmd/mtmlf-train
go build -o "$TMP/mtmlf-serve" ./cmd/mtmlf-serve

echo "== training a tiny checkpoint"
"$TMP/mtmlf-train" -queries 24 -epochs 1 -seed "$SEED" -scale "$SCALE" \
    -save "$TMP/model.ckpt" | tail -3

echo "== starting mtmlf-serve on a random port"
"$TMP/mtmlf-serve" -checkpoint "$TMP/model.ckpt" -seed "$SEED" -scale "$SCALE" \
    -addr 127.0.0.1:0 >"$TMP/serve.log" 2>&1 &
SERVER_PID=$!

BASE=""
for _ in $(seq 1 100); do
    BASE=$(sed -n 's/.*serving on \(http:\/\/[0-9.:]*\).*/\1/p' "$TMP/serve.log" | head -1)
    [ -n "$BASE" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died:"; cat "$TMP/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$BASE" ] || { echo "server never reported its address:"; cat "$TMP/serve.log"; exit 1; }
echo "   serving at $BASE"

check() { # check <name> <expected-substring> <<< response
    local name=$1 want=$2 body
    body=$(cat)
    if ! grep -q "$want" <<<"$body"; then
        echo "FAIL $name: response lacks '$want': $body"
        exit 1
    fi
    echo "   ok $name"
}

curl -fsS "$BASE/healthz" | check healthz '"status":"ok"'
curl -fsS "$BASE/example" >"$TMP/req.json"
check example '"tables"' <"$TMP/req.json"
curl -fsS -d @"$TMP/req.json" "$BASE/estimate/card" | check estimate/card '"root"'
curl -fsS -d @"$TMP/req.json" "$BASE/estimate/cost" | check estimate/cost '"root"'
curl -fsS -d @"$TMP/req.json" "$BASE/joinorder"     | check joinorder '"order"'
curl -fsS "$BASE/statsz" | check statsz '"qps"'
curl -fsS "$BASE/statsz" | check statsz-feat-memo '"feat_memo":{"hits":'
# Typed-error path: an unknown table must 400 with a JSON error, not
# crash the server.
code=$(curl -s -o "$TMP/err.json" -w '%{http_code}' \
    -d '{"query":{"tables":["no_such_table"]}}' "$BASE/estimate/card")
[ "$code" = 400 ] || { echo "FAIL error path: status $code"; exit 1; }
check error-path '"error"' <"$TMP/err.json"
# And the server is still healthy afterwards.
curl -fsS "$BASE/healthz" | check healthz-after-error '"status":"ok"'

echo "serve-smoke: all endpoints OK"
