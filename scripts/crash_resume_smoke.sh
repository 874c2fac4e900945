#!/usr/bin/env bash
# resume-smoke: the kill -9 drill behind the durable-training
# contract. Builds a tiny corpus, trains an uninterrupted reference
# model, then — at workers 1 and 4 — repeatedly SIGKILLs a real
# `mtmlf-train -resume -snapshot-every 1` run at a random moment and
# reruns it with the same flags until it exits 0. The final checkpoint
# and hex-float loss trajectory must be BYTE-IDENTICAL to the
# reference (checkpoints hold exact float64 bit patterns and their
# bytes are a function of content alone, so cmp is a bitwise
# assertion): crashing and resuming, any number of times, at any worker
# count, must not change the trained model by a single bit.
# Run via `make resume-smoke`; CI runs it on every push.
source "$(dirname "$0")/lib.sh" mtmlf-datagen mtmlf-train

SEED=7
KILLS=${RESUME_SMOKE_KILLS:-2}
CORPUS="$TMP/fleet.mtc"
TRAIN_ARGS=(-corpus "$CORPUS" -epochs 6 -batch 4 -seed "$SEED")

echo "== generating a tiny corpus"
"$TMP/mtmlf-datagen" -n 1 -seed "$SEED" -minrows 60 -maxrows 120 \
    -queries 40 -maxtables 4 -single-table 5 -out "$CORPUS" | tail -1

echo "== uninterrupted reference run"
"$TMP/mtmlf-train" "${TRAIN_ARGS[@]}" -workers 1 \
    -save "$TMP/ref.ckpt" -loss-out "$TMP/ref.loss" | tail -2

# drill WORKERS: SIGKILL $KILLS training attempts at random moments,
# then rerun with the same flags until the run exits 0.
drill() {
    local workers=$1 snap="$TMP/w$1.snap" ckpt="$TMP/w$1.ckpt" loss="$TMP/w$1.loss"
    local args=("${TRAIN_ARGS[@]}" -workers "$workers" -resume "$snap" \
        -snapshot-every 1 -save "$ckpt" -loss-out "$loss")
    for k in $(seq 1 "$KILLS"); do
        "$TMP/mtmlf-train" "${args[@]}" >/dev/null 2>&1 &
        local pid=$!
        # Let the attempt reach at least one snapshot, then strike at a
        # random instant. A kill that loses the race to completion is
        # fine: the supervisor rerun below converges either way.
        for _ in $(seq 1 200); do
            [ -s "$snap" ] && break
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.05
        done
        sleep "0.$((RANDOM % 4))"
        if kill -9 "$pid" 2>/dev/null; then
            echo "   workers=$workers: killed attempt $k (pid $pid)"
        else
            echo "   workers=$workers: attempt $k finished before the kill"
        fi
        wait "$pid" 2>/dev/null || true
    done
    # The supervisor loop: rerun with identical flags until exit 0.
    local tries=0
    until "$TMP/mtmlf-train" "${args[@]}" >"$TMP/w$workers.out" 2>&1; do
        tries=$((tries + 1))
        [ "$tries" -lt 10 ] || { echo "FAIL: no clean exit after $tries resumes"; exit 1; }
    done
    tail -2 "$TMP/w$workers.out"
}

for W in 1 4; do
    echo "== kill -9 drill (workers=$W, $KILLS kills)"
    drill "$W"
    echo "== comparing final checkpoint and trajectory against the reference (bitwise)"
    cmp "$TMP/w$W.ckpt" "$TMP/ref.ckpt" || {
        echo "FAIL: workers=$W resumed checkpoint differs from uninterrupted reference"; exit 1; }
    cmp "$TMP/w$W.loss" "$TMP/ref.loss" || {
        echo "FAIL: workers=$W resumed loss trajectory differs from uninterrupted reference"; exit 1; }
done
STEPS=$(wc -l < "$TMP/ref.loss")
echo "resume-smoke: kill -9 x$KILLS at workers 1 and 4 — final checkpoint and $STEPS-step trajectory bitwise identical to the uninterrupted run"
