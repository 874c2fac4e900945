#!/usr/bin/env bash
# corpus-smoke: end-to-end check of the pluggable data plane. Builds a
# tiny labeled corpus with mtmlf-datagen -out at 1 and at 4 workers and
# asserts the two files are BYTE-IDENTICAL, then retrains from it at 1
# and at 4 workers and asserts the two loss trajectories are
# BYTE-IDENTICAL (the trajectories are written as hex float64s, so cmp
# is a bitwise assertion). Along the way it checks the refusals:
# mtmlf-datagen -out with -single-table 0 or in a missing directory
# (within 100 ms, leaving no file), mtmlf-train -resume in a missing
# directory (the same way), mtmlf-train -db without -corpus,
# -queries or -scale with -corpus, -snapshot-every without -resume, and
# -save or -loss-out in a missing directory; and that a labelling run
# killed by SIGTERM leaves no temp file beside -out. It also builds the
# default 11-database corpus under a 2 GB address-space cap at 1 and 2
# workers and asserts the two are BYTE-IDENTICAL. Run via `make
# corpus-smoke`; CI runs it on every push and uploads the corpus
# artifact.
source "$(dirname "$0")/lib.sh" mtmlf-datagen mtmlf-train

# The corpus is left at $CORPUS_OUT for CI to upload.
OUT=${CORPUS_OUT:-corpus-smoke.mtc}
SEED=5
GEN_ARGS=(-n 2 -seed "$SEED" -minrows 60 -maxrows 120 -queries 16 -maxtables 4 -single-table 5)

echo "== refusing a corpus without single-table queries"
if "$TMP/mtmlf-datagen" "${GEN_ARGS[@]}" -single-table 0 -out "$TMP/none.mtc" >"$TMP/refuse.out" 2>&1; then
    echo "FAIL: mtmlf-datagen -single-table 0 -out wrote a corpus instead of refusing"; exit 1
fi
grep -q -- "-single-table 0" "$TMP/refuse.out" || { cat "$TMP/refuse.out"; exit 1; }

echo "== refusing an -out, a -resume snapshot or a -loss-out that cannot be written, before any work"
refuse_fast -out "$TMP/missing/x.mtc" "$TMP/mtmlf-datagen" -n 3 -seed "$SEED"
refuse_fast -resume "$TMP/missing/s.snap" "$TMP/mtmlf-train" -epochs 1
# An output that exists but is not a regular file: the atomic write's
# rename would replace it, so it is refused and left in place.
mkfifo "$TMP/fifo"
refuse_fast -loss-out "$TMP/fifo" "$TMP/mtmlf-train" -epochs 1

echo "== a labelling run killed by SIGTERM leaves no temp file"
# -n 3 at default row counts labels its 48 queries a database in about
# a third of a second, so the run asks for 2,000: it labels for several
# seconds, and the signal lands long before the corpus would be written.
# Exit status 143 (128 + SIGTERM) shows the process was still running
# when it arrived.
mkdir "$TMP/killed"
"$TMP/mtmlf-datagen" -n 3 -seed "$SEED" -queries 2000 -out "$TMP/killed/f.mtc" >/dev/null 2>&1 &
pid=$!
sleep 0.5
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
[ "$status" = 143 ] || {
    echo "FAIL: mtmlf-datagen exited with status $status, not killed while labelling (want 143)"; exit 1; }
left=$(ls -A "$TMP/killed")
[ -z "$left" ] || { echo "FAIL: a killed labelling run left files behind: $left"; exit 1; }

echo "== generating a tiny labeled corpus (1 and 4 workers)"
"$TMP/mtmlf-datagen" "${GEN_ARGS[@]}" -workers 1 -out "$OUT" | tail -3
"$TMP/mtmlf-datagen" "${GEN_ARGS[@]}" -workers 4 -out "$TMP/w4.mtc" >/dev/null
cmp "$OUT" "$TMP/w4.mtc" || {
    echo "FAIL: the 4-worker corpus differs from the 1-worker one"; exit 1; }

echo "== the default 11-database corpus under a 2 GB address-space cap (1 and 2 workers)"
# Labelling counts joins instead of materializing them; the
# materializing executor ran out of memory on this corpus.
for w in 1 2; do
    (ulimit -v 2000000; "$TMP/mtmlf-datagen" -workers "$w" -out "$TMP/default-w$w.mtc" | tail -1)
done
cmp "$TMP/default-w1.mtc" "$TMP/default-w2.mtc" || {
    echo "FAIL: the 2-worker default corpus differs from the 1-worker one"; exit 1; }

echo "== refusing flags a mode ignores"
# Each case: the flags, then the text the refusal must contain.
for c in "-db imdb|without -corpus" \
    "-corpus $OUT -queries 4|-queries and -scale" \
    "-corpus $OUT -scale 0.02|-queries and -scale" \
    "-snapshot-every 1|without -resume" \
    "-corpus $OUT -save $TMP/missing/m.ckpt|-save $TMP/missing" \
    "-corpus $OUT -loss-out $TMP/missing/l.txt|-loss-out $TMP/missing"; do
    flags=${c%%|*}
    # shellcheck disable=SC2086 # $flags is a list of flags and values
    if "$TMP/mtmlf-train" $flags -epochs 1 >"$TMP/refuse.out" 2>&1; then
        echo "FAIL: mtmlf-train $flags trained instead of refusing"; exit 1
    fi
    grep -q -- "${c#*|}" "$TMP/refuse.out" || { cat "$TMP/refuse.out"; exit 1; }
done

echo "== training from the corpus (streaming from disk)"
"$TMP/mtmlf-train" -corpus "$OUT" -epochs 2 -seed 7 \
    -loss-out "$TMP/stream.loss" | tail -2
echo "== training from the corpus (streaming, 4 workers)"
"$TMP/mtmlf-train" -corpus "$OUT" -epochs 2 -seed 7 -workers 4 \
    -loss-out "$TMP/w4.loss" | tail -2

echo "== comparing loss trajectories (bitwise)"
cmp "$TMP/stream.loss" "$TMP/w4.loss" || {
    echo "FAIL: 4-worker trajectory differs from 1-worker"; exit 1; }
STEPS=$(wc -l < "$TMP/stream.loss")
echo "corpus-smoke: corpus bitwise identical at 1 and 4 workers; trajectories bitwise identical over $STEPS steps"
