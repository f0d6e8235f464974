#!/usr/bin/env bash
# Run every workload N times, seeds FIRST..FIRST+N-1 (default FIRST=1),
# reversing the workload order on every other round so no workload
# always runs first; then one traced run per workload with seed FIRST.
# Each run appends one record to OUT; summarise or compare record files
# with bench_perf --compare (see README.md).
#
#   bash bench/perf/run_all.sh N OUT [FIRST]
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 N OUT [FIRST_SEED]" >&2
    exit 2
fi
rounds="$1"
out="$2"
first="${3:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../../BENCHMARK.json")"
workloads=(vgg-exact vgg-skip lenet-serve-nominal lenet-serve-overload)

run() {
    bash "$here/run.sh" --workload "$1" --seed "$2" --seconds "$seconds" \
        --trace "$3" --out "$out" >/dev/null
}

for ((i = 0; i < rounds; i++)); do
    order=("${workloads[@]}")
    if ((i % 2 == 1)); then
        order=(lenet-serve-overload lenet-serve-nominal vgg-skip vgg-exact)
    fi
    for w in "${order[@]}"; do
        run "$w" $((first + i)) 0
    done
done
for w in "${workloads[@]}"; do
    run "$w" "$first" 1
done
