#!/usr/bin/env bash
# corpus-smoke: end-to-end check of the pluggable data plane. Builds a
# tiny labeled corpus with mtmlf-datagen -out, retrains from it twice
# — streaming examples from disk and fully materialized in memory,
# plus a 4-worker streaming run — and asserts all three loss
# trajectories are BYTE-IDENTICAL (the trajectories are written as hex
# float64s, so cmp is a bitwise assertion). First it checks that
# mtmlf-train refuses -db and -corpus-mode without -corpus. Run via `make
# corpus-smoke`; CI runs it on every push and uploads the corpus
# artifact.
source "$(dirname "$0")/lib.sh" mtmlf-datagen mtmlf-train

# The corpus is left at $CORPUS_OUT for CI to upload.
OUT=${CORPUS_OUT:-corpus-smoke.mtc}
SEED=5

echo "== refusing corpus flags without -corpus"
for flags in "-db imdb" "-corpus-mode inmem"; do
    # shellcheck disable=SC2086 # $flags is a flag and its value
    if "$TMP/mtmlf-train" $flags -queries 4 -epochs 1 -scale 0.02 >"$TMP/refuse.out" 2>&1; then
        echo "FAIL: mtmlf-train $flags without -corpus trained instead of refusing"; exit 1
    fi
    grep -q -- "without -corpus" "$TMP/refuse.out" || { cat "$TMP/refuse.out"; exit 1; }
done

echo "== generating a tiny labeled corpus"
"$TMP/mtmlf-datagen" -n 2 -seed "$SEED" -minrows 60 -maxrows 120 \
    -queries 16 -maxtables 4 -out "$OUT" | tail -3

echo "== training from the corpus (streaming from disk)"
"$TMP/mtmlf-train" -corpus "$OUT" -epochs 2 -seed 7 \
    -loss-out "$TMP/stream.loss" | tail -2
echo "== training from the corpus (materialized in memory)"
"$TMP/mtmlf-train" -corpus "$OUT" -corpus-mode inmem -epochs 2 -seed 7 \
    -loss-out "$TMP/inmem.loss" | tail -2
echo "== training from the corpus (streaming, 4 workers)"
"$TMP/mtmlf-train" -corpus "$OUT" -epochs 2 -seed 7 -workers 4 \
    -loss-out "$TMP/w4.loss" | tail -2

echo "== comparing loss trajectories (bitwise)"
cmp "$TMP/stream.loss" "$TMP/inmem.loss" || {
    echo "FAIL: streaming trajectory differs from in-memory"; exit 1; }
cmp "$TMP/stream.loss" "$TMP/w4.loss" || {
    echo "FAIL: 4-worker trajectory differs from 1-worker"; exit 1; }
STEPS=$(wc -l < "$TMP/stream.loss")
echo "corpus-smoke: trajectories bitwise identical over $STEPS steps (stream == inmem == 4 workers)"
