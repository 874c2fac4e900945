# Preamble of the scripts/*_smoke.sh drills, sourced as their first
# command with the binaries they run:
#
#     source "$(dirname "$0")/lib.sh" mtmlf-datagen mtmlf-train
#
# It turns on strict mode, moves to the repository root, makes the
# scratch directory $TMP and removes it at exit — after calling the
# drill's smoke_cleanup function, if it defines one (to stop the
# servers or workers it started) — builds each named ./cmd binary
# into $TMP, and defines refuse_fast.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

TMP=$(mktemp -d)
smoke_exit() {
    if declare -F smoke_cleanup >/dev/null; then
        smoke_cleanup || true
    fi
    rm -rf "$TMP"
}
trap smoke_exit EXIT

echo "== building binaries"
for bin in "$@"; do
    go build -o "$TMP/$bin" "./cmd/$bin"
done

# refuse_fast FLAG PATH CMD...: CMD, given FLAG PATH — in a missing
# directory, or an existing path that is not a regular file — must exit
# non-zero within 100 ms with an error naming FLAG PATH, and leave no
# file: a missing directory stays missing, an existing node stays the
# node it was.
refuse_fast() {
    local flag=$1 path=$2; shift 2
    local t0 ms before
    before=$(stat -c '%F %i' "$path" 2>/dev/null || true)
    t0=$(date +%s%N)
    if "$@" "$flag" "$path" >"$TMP/refuse.out" 2>&1; then
        echo "FAIL: $* $flag $path exited 0"; exit 1
    fi
    ms=$(( ($(date +%s%N) - t0) / 1000000 ))
    grep -q -- "$flag $path" "$TMP/refuse.out" || { cat "$TMP/refuse.out"; exit 1; }
    [ "$ms" -lt 100 ] || { echo "FAIL: the $flag refusal took $ms ms, want under 100"; exit 1; }
    if [ -n "$before" ]; then
        [ "$(stat -c '%F %i' "$path" 2>/dev/null)" = "$before" ] || { echo "FAIL: the refused run replaced $path ($before)"; exit 1; }
    else
        [ ! -e "$(dirname "$path")" ] || { echo "FAIL: the refused run left $(dirname "$path") behind"; exit 1; }
    fi
}
