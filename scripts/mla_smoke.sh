#!/usr/bin/env bash
# mla-smoke: end-to-end check of corpus-backed fleet pretraining
# (Algorithm 1 from one artifact). Builds a tiny 3-database fleet
# corpus (mtmlf-datagen -out: schemas, single-table sections and
# labeled examples), runs `mtmlf-train -mla -corpus` twice — at 1 and
# at 4 workers — and asserts the loss trajectories AND the saved
# shared-only checkpoints are BYTE-IDENTICAL (trajectories are hex
# float64s and checkpoints hold exact bit patterns, so cmp is a bitwise
# assertion).
# Run via `make mla-smoke`; CI runs it on every push and uploads the
# fleet corpus artifact.
source "$(dirname "$0")/lib.sh" mtmlf-datagen mtmlf-train

# The corpus is left at $MLA_CORPUS_OUT for CI to upload.
OUT=${MLA_CORPUS_OUT:-mla-smoke.mtc}
SEED=11

echo "== generating a tiny 3-DB fleet corpus with single-table sections"
"$TMP/mtmlf-datagen" -n 3 -seed "$SEED" -minrows 60 -maxrows 120 \
    -queries 10 -maxtables 4 -single-table 5 -out "$OUT" | tail -4

echo "== fleet pretraining (pooled examples streamed from disk, 1 worker)"
"$TMP/mtmlf-train" -mla -corpus "$OUT" -epochs 2 -encoder-epochs 1 -workers 1 \
    -loss-out "$TMP/w1.loss" -save "$TMP/w1.ckpt" | tail -2
echo "== fleet pretraining (pooled examples streamed from disk, 4 workers)"
"$TMP/mtmlf-train" -mla -corpus "$OUT" -epochs 2 -encoder-epochs 1 -workers 4 \
    -loss-out "$TMP/w4.loss" -save "$TMP/w4.ckpt" | tail -2

echo "== comparing loss trajectories and checkpoints (bitwise)"
cmp "$TMP/w1.loss" "$TMP/w4.loss" || {
    echo "FAIL: 4-worker MLA trajectory differs from 1-worker"; exit 1; }
cmp "$TMP/w1.ckpt" "$TMP/w4.ckpt" || {
    echo "FAIL: 4-worker MLA checkpoint differs from 1-worker"; exit 1; }
STEPS=$(wc -l < "$TMP/w1.loss")
echo "mla-smoke: trajectory ($STEPS steps) and shared checkpoint bitwise identical (1 worker == 4 workers)"
