# Preamble of the scripts/*_smoke.sh drills, sourced as their first
# command with the binaries they run:
#
#     source "$(dirname "$0")/lib.sh" mtmlf-datagen mtmlf-train
#
# It turns on strict mode, moves to the repository root, makes the
# scratch directory $TMP and removes it at exit — after calling the
# drill's smoke_cleanup function, if it defines one (to stop the
# servers or workers it started) — and builds each named ./cmd binary
# into $TMP.
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
