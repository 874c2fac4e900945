#!/usr/bin/env bash
# dist-smoke: the end-to-end drill behind the distributed-training
# contract. Builds a tiny fleet corpus, trains an uninterrupted
# single-process `-mla` reference, then, at 2 ranks and again at 3 (the
# smallest fleet with a middle rank, which both receives and forwards a
# gradient prefix), runs the same job as a real fleet — one
# `-dist-coordinator` process plus the `-dist-worker` ranks snapshotting
# every step — SIGKILLs a random worker mid-epoch (the whole fleet
# fail-stops), and reruns the entire fleet under a supervisor loop with
# `-resume` until it exits clean. The checkpoint and hex-float loss
# trajectory from rank 0 must be BYTE-IDENTICAL to the single-process
# reference: distributing the run across processes, killing it, and
# resuming it must not change the trained model by a single bit. The
# same drill then kills a worker while the ranks pre-train their shares
# of the (F) encoders or gather them — before the first snapshot, with
# -encoder-epochs raised so that phase lasts — against a reference run
# with the same flags. Last,
# two mislaunched fleets — `-load` on rank 0 only, `-resume` on rank 0
# only — must die at the handshake with "job mismatch". Run via
# `make dist-smoke`; CI runs it on every push.
source "$(dirname "$0")/lib.sh" mtmlf-datagen mtmlf-train

smoke_cleanup() {
    local pids
    pids=$(jobs -p)
    [ -n "$pids" ] && kill $pids 2>/dev/null
}

SEED=11
CORPUS="$TMP/fleet.mtc"
SNAP="$TMP/dist.snap"
TRAIN_ARGS=(-mla -corpus "$CORPUS" -epochs 4 -encoder-epochs 1 -batch 4)
F_ARGS=(-mla -corpus "$CORPUS" -epochs 2 -encoder-epochs 20 -batch 4)

echo "== generating a tiny 3-DB fleet corpus"
"$TMP/mtmlf-datagen" -n 3 -seed "$SEED" -minrows 60 -maxrows 120 \
    -queries 10 -maxtables 4 -single-table 5 -out "$CORPUS" | tail -1

echo "== uninterrupted single-process reference runs"
"$TMP/mtmlf-train" "${TRAIN_ARGS[@]}" \
    -save "$TMP/ref.ckpt" -loss-out "$TMP/ref.loss" | tail -2
"$TMP/mtmlf-train" "${F_ARGS[@]}" \
    -save "$TMP/fref.ckpt" -loss-out "$TMP/fref.loss" | tail -1

# start_coordinator: start a coordinator for $WORLD ranks on a random
# loopback port. Sets CPID and ADDR and empties WPIDS.
start_coordinator() {
    : >"$TMP/coord.out"
    "$TMP/mtmlf-train" -dist-coordinator 127.0.0.1:0 -dist-world "$WORLD" -debug-addr 127.0.0.1:0 \
        >"$TMP/coord.out" 2>&1 &
    CPID=$!
    ADDR=""
    local i
    for i in $(seq 1 100); do
        ADDR=$(sed -n 's/^coordinator listening on \([^ ]*\).*/\1/p' "$TMP/coord.out" | head -1)
        [ -n "$ADDR" ] && break
        kill -0 "$CPID" 2>/dev/null || { echo "FAIL: coordinator died at launch"; cat "$TMP/coord.out"; exit 1; }
        sleep 0.05
    done
    [ -n "$ADDR" ] || { echo "FAIL: coordinator never printed its address"; exit 1; }
    curl -fsS "$(sed -n 's/.*debug endpoints on \(http:[^ ]*\)/\1/p' "$TMP/coord.out")" | grep -q goroutine || { echo "FAIL: no pprof index on the coordinator's -debug-addr"; exit 1; }
    WPIDS=()
}

# start_rank RANK ARGS...: start worker RANK of the fleet at $ADDR with
# the training flags ARGS. Appends its pid to WPIDS.
start_rank() {
    local rank=$1
    shift
    "$TMP/mtmlf-train" "$@" -dist-worker "$ADDR" -dist-rank "$rank" -dist-world "$WORLD" \
        >"$TMP/rank$rank.out" 2>&1 &
    WPIDS+=($!)
}

# launch_fleet: a coordinator plus $WORLD workers, every rank with the
# training flags in RUN_ARGS and -resume; rank 0 owns the artifacts.
launch_fleet() {
    start_coordinator
    local rank
    for rank in $(seq 0 $((WORLD - 1))); do
        start_rank "$rank" "${RUN_ARGS[@]}" -resume "$SNAP" -snapshot-every 1 \
            -save "$TMP/dist.ckpt" -loss-out "$TMP/dist.loss"
    done
}

# in_f_phase: every rank of the fleet has started its (F) phase.
in_f_phase() {
    local rank
    for rank in $(seq 0 $((WORLD - 1))); do
        grep -q '^fleet pretraining' "$TMP/rank$rank.out" 2>/dev/null || return 1
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

# drill PHASE REF: the kill -9 + resume drill at $WORLD ranks with the
# training flags in RUN_ARGS, striking in PHASE — "joint" once the
# fleet has snapshotted, "F" while it pre-trains or gathers (F), before
# any snapshot — then the bitwise comparison against the reference
# files $REF.ckpt and $REF.loss.
drill() {
    local phase=$1 ref=$2
    rm -f "$SNAP" "$TMP/dist.ckpt" "$TMP/dist.loss"
    echo "== fleet drill: coordinator + $WORLD workers, SIGKILL one during the $phase phase"
    launch_fleet
    # Wait for the phase, then strike a random worker at a random
    # instant. The whole fleet fail-stops: the coordinator aborts, every
    # surviving rank exits non-zero.
    for _ in $(seq 1 400); do
        if [ "$phase" = joint ]; then
            [ -s "$SNAP" ] && break
        else
            in_f_phase && break
        fi
        kill -0 "${WPIDS[0]}" 2>/dev/null || break
        sleep 0.01
    done
    sleep "0.0$((RANDOM % 10))"
    local victim=${WPIDS[$((RANDOM % WORLD))]}
    if kill -9 "$victim" 2>/dev/null; then
        echo "   killed worker pid $victim"
    else
        echo "   fleet finished before the kill"
    fi
    if [ "$phase" = F ] && [ -e "$SNAP" ]; then
        echo "FAIL: the (F)-phase kill landed after the first snapshot"; exit 1
    fi
    reap_fleet || true

    # The supervisor: relaunch the whole fleet with identical flags
    # until every process exits 0. Rank 0's snapshot re-synchronizes
    # the ranks at startup, so the rerun continues the interrupted
    # trajectory.
    echo "== supervisor: relaunching the fleet with -resume until clean"
    local tries=0
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
    cmp "$TMP/dist.ckpt" "$ref.ckpt" || {
        echo "FAIL: $WORLD-rank checkpoint differs from single-process reference"; exit 1; }
    cmp "$TMP/dist.loss" "$ref.loss" || {
        echo "FAIL: $WORLD-rank loss trajectory differs from single-process reference"; exit 1; }
}

# expect_mismatch WHAT: a 2-rank fleet whose rank 0 runs with the
# training flags in R0 and rank 1 with those in R1 must die at the
# handshake: every process exits non-zero and the coordinator says
# "job mismatch".
expect_mismatch() {
    WORLD=2
    start_coordinator
    start_rank 0 "${R0[@]}"
    start_rank 1 "${R1[@]}"
    if reap_fleet; then
        echo "FAIL: a fleet with $1 on rank 0 only completed"; exit 1
    fi
    grep -q "job mismatch" "$TMP/coord.out" || {
        echo "FAIL: a fleet with $1 on rank 0 only did not die at the handshake"
        tail -3 "$TMP"/coord.out "$TMP"/rank*.out
        exit 1
    }
    echo "   $1 on rank 0 only: refused at the handshake"
}

for WORLD in 2 3; do
    RUN_ARGS=("${TRAIN_ARGS[@]}")
    drill joint "$TMP/ref"
    RUN_ARGS=("${F_ARGS[@]}")
    drill F "$TMP/fref"
done
STEPS=$(wc -l < "$TMP/ref.loss")

echo "== mislaunched fleets"
R0=(-corpus "$CORPUS" -epochs 1 -load "$TMP/ref.ckpt")
R1=(-corpus "$CORPUS" -epochs 1)
expect_mismatch -load
R0=("${TRAIN_ARGS[@]}" -resume "$TMP/mismatch.snap")
R1=("${TRAIN_ARGS[@]}")
expect_mismatch -resume

echo "dist-smoke: 2- and 3-rank fleets survived kill -9 + resume, in the joint loop and in the (F) phase — checkpoint and $STEPS-step trajectory bitwise identical to the single-process run; mismatched -load and -resume refused at the handshake"
