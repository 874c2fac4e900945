#!/usr/bin/env bash
# load-smoke: end-to-end check of the production load path. Trains a
# tiny checkpoint, boots mtmlf-serve with a bounded admission queue,
# drives it with mtmlf-loadgen at two closed-loop concurrency levels
# (with a hot checkpoint reload mid-way through the first), and
# asserts: nonzero successes on every endpoint at every level, zero
# failed requests (shed 429s and deadline 504s are allowed — they are
# correct overload behavior), a successful mid-run reload after which
# the GC percent is sized again for the new bundle, and a
# well-formed report in load-smoke.json (git-ignored). First it checks
# that a -json path in a missing directory is refused before any work. Run via `make
# load-smoke`; CI runs it on every push and uploads the report.
source "$(dirname "$0")/lib.sh" mtmlf-train mtmlf-serve mtmlf-loadgen
unset GOGC

SERVER_PID=""
smoke_cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
}

SEED=7
SCALE=0.04
REPORT=load-smoke.json

echo "== refusing a -json report that cannot be written, before any work"
refuse_fast -json "$TMP/missing/r.json" "$TMP/mtmlf-loadgen" -target http://127.0.0.1:1

echo "== training a tiny checkpoint"
"$TMP/mtmlf-train" -queries 24 -epochs 1 -seed "$SEED" -scale "$SCALE" \
    -save "$TMP/model.ckpt" | tail -3

echo "== starting mtmlf-serve on a random port"
"$TMP/mtmlf-serve" -checkpoint "$TMP/model.ckpt" -seed "$SEED" -scale "$SCALE" \
    -addr 127.0.0.1:0 -max-queue 64 >"$TMP/serve.log" 2>&1 &
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

echo "== load: two closed-loop levels, hot reload mid-run"
# The loadgen is its own assertion: it exits non-zero if any endpoint
# has < -min-ok successes at any level, if any request fails outright
# (-max-errors 0), or if the mid-run reload does not return 200.
"$TMP/mtmlf-loadgen" -target "$BASE" -duration 2s -levels 4,8 \
    -seed "$SEED" -scale "$SCALE" -pool 64 -zipf 1.2 \
    -reload-after 1s -min-ok 1 -max-errors 0 -json "$REPORT"

echo "== validating $REPORT"
jq -e '.load | length == 6' "$REPORT" >/dev/null \
    || { echo "FAIL: want 6 load entries (3 endpoints x 2 levels)"; jq .load "$REPORT"; exit 1; }
jq -e '[.load[] | select(.ok > 0 and .throughput_rps > 0 and .p50_ms > 0
        and .p50_ms <= .p95_ms and .p95_ms <= .p99_ms)] | length == 6' "$REPORT" >/dev/null \
    || { echo "FAIL: a load entry is missing data:"; jq .load "$REPORT"; exit 1; }
jq -e '[.load[].errors] | add == 0' "$REPORT" >/dev/null \
    || { echo "FAIL: failed requests recorded:"; jq .load "$REPORT"; exit 1; }
jq -e '[.load[] | .name] | sort == ["card/c4","card/c8","cost/c4","cost/c8","joinorder/c4","joinorder/c8"]' \
    "$REPORT" >/dev/null \
    || { echo "FAIL: unexpected entry names:"; jq '[.load[].name]' "$REPORT"; exit 1; }

# The server survived the whole drill, counted the reload, and its
# queue drained.
curl -fsS "$BASE/healthz" | jq -e '.status == "ok" and .reloads == 1' >/dev/null \
    || { echo "FAIL: server unhealthy or reload not counted:"; curl -fsS "$BASE/healthz"; exit 1; }

# The GC percent was sized at boot and again for the swapped-in bundle.
n=$(grep -c ' gc: .*GC percent' "$TMP/serve.log" || true)
[ "$n" = 2 ] && sed -n '/reloaded checkpoint/,$p' "$TMP/serve.log" | grep -q ' gc: .*GC percent' \
    || { echo "FAIL: want the GC percent sized at boot and after the reload, got $n lines:"; cat "$TMP/serve.log"; exit 1; }

echo "load-smoke: $(jq -r '[.load[].requests] | add' "$REPORT") requests, 0 failures, reload OK"
