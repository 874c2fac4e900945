#!/usr/bin/env bash
# serve-smoke: end-to-end check of the train → checkpoint → serve
# pipeline. Trains a tiny model, saves a full-model checkpoint, boots
# mtmlf-serve on a random port, and curls every endpoint — including
# the /example → POST round trip, which exercises the JSON codec both
# ways. Then boots a second server on the same checkpoint at
# -precision int8 and requires it to have come up SMALLER than the f64
# one (peak resident set, VmHWM): the reduced tiers build their replica
# from the checkpoint stream and never hold the f64 model. Along the way
# it checks the GC sizing: the server logs the GC percent it chose and
# /statsz reports it, while a server started with GOGC=50 logs no
# choice and reports 50. Run via `make serve-smoke`; CI runs it on
# every push.
source "$(dirname "$0")/lib.sh" mtmlf-train mtmlf-serve
unset GOGC

SERVER_PID=""
INT8_PID=""
GOGC_PID=""
smoke_cleanup() {
    for pid in $SERVER_PID $INT8_PID $GOGC_PID; do kill "$pid" 2>/dev/null || true; done
}

SEED=7
SCALE=0.04

echo "== training a tiny checkpoint"
"$TMP/mtmlf-train" -queries 24 -epochs 1 -seed "$SEED" -scale "$SCALE" \
    -save "$TMP/model.ckpt" | tail -3

# boot <precision>: start a server at that tier on a random port, wait
# until it reports its address, and leave its pid in PID, its base URL
# in BASE and its peak resident set at that moment (kB) in HWM.
boot() {
    local log="$TMP/serve.$1.log"
    "$TMP/mtmlf-serve" -checkpoint "$TMP/model.ckpt" -seed "$SEED" -scale "$SCALE" \
        -precision "$1" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 >"$log" 2>&1 &
    PID=$!
    BASE=""
    for _ in $(seq 1 100); do
        BASE=$(sed -n 's/.*serving on \(http:\/\/[0-9.:]*\).*/\1/p' "$log" | head -1)
        [ -n "$BASE" ] && break
        kill -0 "$PID" 2>/dev/null || { echo "server died:"; cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$BASE" ] || { echo "server never reported its address:"; cat "$log"; exit 1; }
    HWM=$(awk '/^VmHWM:/ {print $2}' "/proc/$PID/status")
    grep 'loaded checkpoint' "$log" | sed 's/^[0-9/]* [0-9:]* /   /'
}

echo "== starting mtmlf-serve on a random port"
boot f64
SERVER_PID=$PID F64_HWM=$HWM
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
curl -fsS "$BASE/statsz" | check statsz-checkpoint '"checkpoint":{"version":4,"tensors":'
curl -fsS "$(sed -n 's/.*debug endpoints on \(http:[^ ]*\)/\1/p' "$TMP/serve.f64.log")" | check debug-addr 'goroutine'
# The GC percent is sized to the served weights once the server is
# ready (a model this small keeps 100), logged, and reported in /statsz.
for _ in $(seq 1 50); do
    grep -q ' gc: .*GC percent' "$TMP/serve.f64.log" && break
    sleep 0.1
done
PCT=$(sed -n 's/.* gc: .*GC percent \([0-9]*\)$/\1/p' "$TMP/serve.f64.log")
[ -n "$PCT" ] || { echo "FAIL gc: no GC percent logged:"; cat "$TMP/serve.f64.log"; exit 1; }
curl -fsS "$BASE/statsz" | jq -e ".memory.gc_percent == $PCT and .memory.heap_live_bytes > 0" >/dev/null \
    || { echo "FAIL statsz-memory: want gc_percent $PCT:"; curl -fsS "$BASE/statsz" | jq .memory; exit 1; }
echo "   ok gc: percent $PCT logged and in /statsz memory"
# Typed-error path: an unknown table must 400 with a JSON error, not
# crash the server.
code=$(curl -s -o "$TMP/err.json" -w '%{http_code}' \
    -d '{"query":{"tables":["no_such_table"]}}' "$BASE/estimate/card")
[ "$code" = 400 ] || { echo "FAIL error path: status $code"; exit 1; }
check error-path '"error"' <"$TMP/err.json"
# And the server is still healthy afterwards.
curl -fsS "$BASE/healthz" | check healthz-after-error '"status":"ok"'

echo "== the int8 tier boots smaller than f64"
boot int8
INT8_PID=$PID
curl -fsS "$BASE/statsz" | check statsz-int8 '"precision":"int8"'
curl -fsS -d @"$TMP/req.json" "$BASE/estimate/card" | check int8-estimate/card '"root"'
echo "   peak RSS at boot: f64 $F64_HWM kB, int8 $HWM kB"
[ "$HWM" -lt "$F64_HWM" ] || { echo "FAIL: the int8 server peaked at $HWM kB, not under the f64 server's $F64_HWM kB"; exit 1; }

echo "== a GOGC in the environment governs instead"
# 50, not the 100 this small model would get, so the check fails if the
# server overrode GOGC.
GOGC=50 boot f32
GOGC_PID=$PID
curl -fsS "$BASE/statsz" | jq -e '.memory.gc_percent == 50' >/dev/null \
    || { echo "FAIL: GOGC=50 server reports:"; curl -fsS "$BASE/statsz" | jq .memory; exit 1; }
if grep -q ' gc: ' "$TMP/serve.f32.log"; then
    echo "FAIL: the GOGC=50 server logged a GC policy:"; cat "$TMP/serve.f32.log"; exit 1
fi
echo "   ok GOGC=50: no policy logged, gc_percent 50"

echo "serve-smoke: all endpoints OK"
