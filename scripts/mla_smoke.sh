#!/usr/bin/env bash
# mla-smoke: end-to-end check of corpus-backed fleet pretraining
# (Algorithm 1 from one artifact). Builds a tiny 3-database fleet
# corpus with single-table sections (mtmlf-datagen -single-table),
# runs `mtmlf-train -mla -corpus` twice — streaming the pooled
# examples from disk and materializing them in memory — and asserts
# the loss trajectories AND the saved shared-only checkpoints are
# BYTE-IDENTICAL (trajectories are hex float64s and checkpoints are
# gob-encoded exact bit patterns, so cmp is a bitwise assertion).
# Run via `make mla-smoke`; CI runs it on every push and uploads the
# fleet corpus artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# The corpus is left at $MLA_CORPUS_OUT for CI to upload.
OUT=${MLA_CORPUS_OUT:-mla-smoke.mtc}
SEED=11

echo "== building binaries"
go build -o "$TMP/mtmlf-datagen" ./cmd/mtmlf-datagen
go build -o "$TMP/mtmlf-train" ./cmd/mtmlf-train

echo "== generating a tiny 3-DB fleet corpus with single-table sections"
"$TMP/mtmlf-datagen" -n 3 -seed "$SEED" -minrows 60 -maxrows 120 \
    -queries 10 -maxtables 4 -single-table 5 -out "$OUT" | tail -4

echo "== fleet pretraining (pooled examples streamed from disk)"
"$TMP/mtmlf-train" -mla -corpus "$OUT" -epochs 2 -encoder-epochs 1 \
    -st-per-table 5 -loss-out "$TMP/stream.loss" -save "$TMP/stream.ckpt" | tail -2
echo "== fleet pretraining (pooled examples materialized in memory)"
"$TMP/mtmlf-train" -mla -corpus "$OUT" -corpus-mode inmem -epochs 2 -encoder-epochs 1 \
    -st-per-table 5 -loss-out "$TMP/inmem.loss" -save "$TMP/inmem.ckpt" | tail -2

echo "== comparing loss trajectories and checkpoints (bitwise)"
cmp "$TMP/stream.loss" "$TMP/inmem.loss" || {
    echo "FAIL: streaming MLA trajectory differs from in-memory"; exit 1; }
cmp "$TMP/stream.ckpt" "$TMP/inmem.ckpt" || {
    echo "FAIL: streaming MLA checkpoint differs from in-memory"; exit 1; }
STEPS=$(wc -l < "$TMP/stream.loss")
echo "mla-smoke: trajectory ($STEPS steps) and shared checkpoint bitwise identical (stream == inmem)"
