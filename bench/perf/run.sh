#!/usr/bin/env bash
# Build bench_perf from this checkout's sources (first call only; later
# calls are incremental no-ops) into .bench_build/ at the repository
# root, then run it with the given arguments, e.g.
#
#   bash bench/perf/run.sh --workload vgg-exact --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr, so the last line of stdout is
# bench_perf's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

if [ ! -f "$build/CMakeCache.txt" ]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" --target bench_perf -j "$jobs" >&2

exec "$build/bench_perf" "$@"
