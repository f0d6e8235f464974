/**
 * @file
 * bench_perf --compare: summarise and compare sets of bench_perf runs.
 */

#ifndef FASTBCNN_BENCH_PERF_COMPARE_HPP
#define FASTBCNN_BENCH_PERF_COMPARE_HPP

#include <string>
#include <vector>

/**
 * Read the metric definitions of @p benchmark_json (BENCHMARK.json) and
 * one or two files of run records (one JSON object per line, as
 * bench_perf --out appends them).  Every record must carry every metric
 * of its kind with the unit BENCHMARK.json gives, and a passed
 * correctness gate.
 *
 * One file: print each metric's median, quartiles and spread per
 * workload, and the tracing overhead.  Two files (base, head): also
 * judge every end-to-end metric per workload against its bound —
 * "REGRESSION" when the head median is worse than the base median by
 * more than the bound, "unresolved" when either side's quartile spread
 * exceeds the bound.
 *
 * @return 0, or 1 on a malformed record, a failed gate or a regression.
 */
int runCompare(const std::string &benchmark_json,
               const std::vector<std::string> &run_files);

#endif // FASTBCNN_BENCH_PERF_COMPARE_HPP
