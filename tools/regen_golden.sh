#!/usr/bin/env bash
# Rewrite the golden outputs of the paper-reproduction benches:
# tests/golden/<bench>.txt becomes the FASTBCNN_BENCH_FAST stdout of
# <bench>, for every golden file present.  The golden_<bench> ctests
# (bench/CMakeLists.txt) byte-diff against these files.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)
#
# A change that regenerates a golden file names every changed row,
# and why it changed, in CHANGES.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}

for golden in "$root"/tests/golden/*.txt; do
    bench=$(basename "$golden" .txt)
    exe="$build/bench/$bench"
    if [[ ! -x "$exe" ]]; then
        echo "regen_golden: $exe not built" >&2
        exit 1
    fi
    env -u FASTBCNN_BENCH_FULL FASTBCNN_BENCH_FAST=1 "$exe" > "$golden"
    echo "regen_golden: wrote tests/golden/$bench.txt"
done
git -C "$root" diff --stat -- tests/golden
