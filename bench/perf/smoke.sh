#!/usr/bin/env bash
# Smoke test: each workload with about a second of load, plus one traced
# run, then `bench_perf --compare` checks that every metric
# BENCHMARK.json names is present with its unit and that every
# correctness gate passed.  Its record and trace files go to the working
# directory.
#
#   bash smoke.sh <path/to/bench_perf> <path/to/BENCHMARK.json>
set -euo pipefail

bench="$1"
definition="$2"
records="bench_perf_smoke.jsonl"
trace="bench_perf_smoke_trace.json"
rm -f "$records" "$trace"

for workload in vgg-exact vgg-skip lenet-serve-nominal lenet-serve-overload; do
    "$bench" --workload "$workload" --seed 1 --seconds 1 --out "$records" >/dev/null
done
"$bench" --workload lenet-serve-nominal --seed 1 --seconds 1 --trace 1 \
    --trace-out "$trace" --out "$records" >/dev/null
test -s "$trace"

"$bench" --compare "$definition" "$records"
