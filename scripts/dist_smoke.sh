#!/usr/bin/env bash
# dist-smoke: the end-to-end drill behind the distributed-training
# contract. Builds a tiny fleet corpus, trains an uninterrupted
# single-process `-mla` reference, then runs the same job as a real
# fleet — one `-dist-coordinator` process plus two `-dist-worker`
# ranks snapshotting every step — SIGKILLs a random worker mid-epoch
# (the whole fleet fail-stops), and reruns the entire fleet under a
# supervisor loop with `-resume` until it exits clean. The checkpoint
# and hex-float loss trajectory from rank 0 must be BYTE-IDENTICAL to
# the single-process reference: distributing the run across processes,
# killing it, and resuming it must not change the trained model by a
# single bit. Run via `make dist-smoke`; CI runs it on every push.
source "$(dirname "$0")/lib.sh" mtmlf-datagen mtmlf-train

smoke_cleanup() {
    local pids
    pids=$(jobs -p)
    [ -n "$pids" ] && kill $pids 2>/dev/null
}

SEED=11
WORLD=2
CORPUS="$TMP/fleet.mtc"
SNAP="$TMP/dist.snap"
TRAIN_ARGS=(-mla -corpus "$CORPUS" -epochs 2 -encoder-epochs 1 -batch 4)

echo "== generating a tiny 3-DB fleet corpus"
"$TMP/mtmlf-datagen" -n 3 -seed "$SEED" -minrows 60 -maxrows 120 \
    -queries 10 -maxtables 4 -single-table 5 -out "$CORPUS" | tail -1

echo "== uninterrupted single-process reference run"
"$TMP/mtmlf-train" "${TRAIN_ARGS[@]}" \
    -save "$TMP/ref.ckpt" -loss-out "$TMP/ref.loss" | tail -2

# launch_fleet: start a coordinator on a random loopback port plus
# $WORLD workers (every rank with identical training flags and
# -resume; rank 0 owns the artifacts). Sets CPID and WPIDS.
launch_fleet() {
    : >"$TMP/coord.out"
    "$TMP/mtmlf-train" -dist-coordinator 127.0.0.1:0 -dist-world "$WORLD" \
        >"$TMP/coord.out" 2>&1 &
    CPID=$!
    local addr="" i
    for i in $(seq 1 100); do
        addr=$(sed -n 's/^coordinator listening on \([^ ]*\).*/\1/p' "$TMP/coord.out" | head -1)
        [ -n "$addr" ] && break
        kill -0 "$CPID" 2>/dev/null || { echo "FAIL: coordinator died at launch"; cat "$TMP/coord.out"; exit 1; }
        sleep 0.05
    done
    [ -n "$addr" ] || { echo "FAIL: coordinator never printed its address"; exit 1; }
    WPIDS=()
    local rank
    for rank in $(seq 0 $((WORLD - 1))); do
        "$TMP/mtmlf-train" "${TRAIN_ARGS[@]}" \
            -dist-worker "$addr" -dist-rank "$rank" -dist-world "$WORLD" \
            -resume "$SNAP" -snapshot-every 1 \
            -save "$TMP/dist.ckpt" -loss-out "$TMP/dist.loss" \
            >"$TMP/rank$rank.out" 2>&1 &
        WPIDS+=($!)
    done
}

# reap_fleet: wait for every fleet process; return 0 iff all exited 0.
reap_fleet() {
    local ok=0 pid
    for pid in "$CPID" "${WPIDS[@]}"; do
        wait "$pid" || ok=1
    done
    return "$ok"
}

echo "== fleet drill: coordinator + $WORLD workers, SIGKILL one mid-epoch"
launch_fleet
# Let the fleet reach at least one snapshot, then strike a random
# worker at a random instant. The whole fleet fail-stops: the
# coordinator aborts, every surviving rank exits non-zero.
for _ in $(seq 1 200); do
    [ -s "$SNAP" ] && break
    kill -0 "${WPIDS[0]}" 2>/dev/null || break
    sleep 0.05
done
sleep "0.$((RANDOM % 4))"
VICTIM=${WPIDS[$((RANDOM % WORLD))]}
if kill -9 "$VICTIM" 2>/dev/null; then
    echo "   killed worker pid $VICTIM"
else
    echo "   fleet finished before the kill"
fi
reap_fleet || true

# The supervisor: relaunch the whole fleet with identical flags until
# every process exits 0. Rank 0's snapshot re-synchronizes the ranks
# at startup, so the rerun continues the interrupted trajectory.
echo "== supervisor: relaunching the fleet with -resume until clean"
tries=0
while :; do
    launch_fleet
    reap_fleet && break
    tries=$((tries + 1))
    [ "$tries" -lt 10 ] || {
        echo "FAIL: fleet did not exit clean after $tries resumes"
        tail -5 "$TMP"/coord.out "$TMP"/rank*.out
        exit 1
    }
done
tail -2 "$TMP/rank0.out"

echo "== comparing rank 0 checkpoint and trajectory against the single-process reference (bitwise)"
cmp "$TMP/dist.ckpt" "$TMP/ref.ckpt" || {
    echo "FAIL: distributed checkpoint differs from single-process reference"; exit 1; }
cmp "$TMP/dist.loss" "$TMP/ref.loss" || {
    echo "FAIL: distributed loss trajectory differs from single-process reference"; exit 1; }
STEPS=$(wc -l < "$TMP/ref.loss")
echo "dist-smoke: $WORLD-rank fleet survived kill -9 + resume — checkpoint and $STEPS-step trajectory bitwise identical to the single-process run"
