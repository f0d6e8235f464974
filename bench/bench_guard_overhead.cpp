/**
 * @file
 * Skip-guard overhead characterization: shadow-auditing a fraction of
 * the predicted (skipped) neurons must cost < 3 % wall clock on the
 * clean path relative to the audit-off guarded runner, because the
 * guard is meant to stay on in production serving.
 *
 * Prints audit-off vs audit-on timings plus a drift demonstration
 * (mistuned thresholds on a shifted input -> the guard backs off),
 * and emits a machine-readable JSON summary on stdout.  Set
 * FASTBCNN_GUARD_JSON=/path/file.json to also write the JSON to a
 * file (the chaos-soak CI job archives it as an artifact).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "guard/guarded_runner.hpp"
#include "skip/threshold_optimizer.hpp"

using namespace fastbcnn;
using namespace fastbcnn::bench;

namespace {

using Clock = std::chrono::steady_clock;

/** Median wall-clock ms of @p reps guarded runs against @p guard. */
double
medianGuardedMs(const BcnnTopology &topo, const IndicatorSet &ind,
                SkipGuard &guard, const Tensor &input,
                const McOptions &opts, int reps)
{
    std::vector<double> ms;
    ms.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        Expected<GuardedMcResult> res =
            tryRunGuardedPredictive(topo, ind, guard, input, opts);
        const Clock::time_point t1 = Clock::now();
        FASTBCNN_CHECK(res.hasValue(), "guarded run must succeed");
        FASTBCNN_CHECK_EQ(res.value().outputs.size(), opts.samples);
        ms.push_back(std::chrono::duration<double, std::milli>(
                         t1 - t0).count());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

} // namespace

int
main()
{
    const BenchScale scale = benchScale();
    printBanner("Shadow-audit overhead (self-healing skip guard)",
                "auditing a sample of skipped neurons costs < 3% on "
                "the clean path; under drift the guard backs alphas "
                "off instead of serving mispredictions", scale);

    const bool fast = std::getenv("FASTBCNN_BENCH_FAST") != nullptr;
    const int reps = fast ? 3 : 7;

    // Model + offline calibration, the quickstart configuration.
    ModelOptions mopts;
    mopts.widthMultiplier = fast ? 0.25 : 0.5;
    mopts.dropRate = 0.3;
    Network net = buildLenet5(mopts);
    calibrateSparsity(net, {makeMnistLikeImage(0, 1),
                            makeMnistLikeImage(5, 2)});
    const BcnnTopology topo(net);
    const IndicatorSet ind(topo);
    OptimizerOptions oopts;
    oopts.samples = 4;
    oopts.confidence = 0.68;
    const Tensor tune = makeMnistLikeImage(3, 7);
    const ThresholdSet calibrated =
        tryOptimizeThresholds(topo, ind, {tune}, oopts).value().thresholds;

    McOptions mc;
    mc.samples = fast ? 10 : 20;
    mc.dropRate = mopts.dropRate;

    // Clean path: same calibrated thresholds, audit off vs audit on.
    GuardOptions off;
    off.enabled = true;
    off.audit.rate = 0.0;
    off.tolerance = 1.0 - oopts.confidence;
    SkipGuard guardOff(topo, calibrated, off);

    GuardOptions on = off;
    on.audit.rate = AuditOptions{}.rate;  // the production default
    SkipGuard guardOn(topo, calibrated, on);

    const Tensor input = makeMnistLikeImage(3, 7);
    const double offMs =
        medianGuardedMs(topo, ind, guardOff, input, mc, reps);
    const double onMs =
        medianGuardedMs(topo, ind, guardOn, input, mc, reps);
    const double overheadPct = 100.0 * (onMs - offMs) / offMs;
    const GuardSnapshot clean = guardOn.snapshot();

    Table t({"path", "T", "audit rate", "median ms", "events"});
    t.addRow({"audit off", format("%zu", mc.samples), "0.000",
              format("%.2f", offMs), "0"});
    t.addRow({"audit on", format("%zu", mc.samples),
              format("%.3f", on.audit.rate), format("%.2f", onMs),
              format("%llu", static_cast<unsigned long long>(
                                 clean.backoffs + clean.disables))});
    t.print(std::cout);
    std::cout << format("audit overhead %+.2f%% (target < 3%%; "
                        "timing noise dominates on the fast preset)\n",
                        overheadPct);
    std::cout << format("clean path stayed quiet: %llu/%llu audited "
                        "neurons mispredicted, %zu kernels degraded\n\n",
                        static_cast<unsigned long long>(
                            clean.mispredictedNeurons),
                        static_cast<unsigned long long>(
                            clean.auditedNeurons),
                        clean.degradedKernels);

    // Drift demonstration: mistuned (too-loose) thresholds on a
    // shifted input; a tight tolerance makes the guard back off.
    GuardOptions drifty;
    drifty.enabled = true;
    drifty.audit.rate = 0.5;
    drifty.tolerance = 0.02;
    drifty.decisionInterval = 4;
    drifty.minAudited = 32;
    SkipGuard guardDrift(topo, ThresholdSet(topo, 6), drifty);
    Tensor shifted = makeMnistLikeImage(8, 21);
    for (float &v : shifted.data())
        v = 2.0f * v + 0.5f;
    McOptions driftMc = mc;
    driftMc.seed = 17;
    Expected<GuardedMcResult> drift = tryRunGuardedPredictive(
        topo, ind, guardDrift, shifted, driftMc);
    FASTBCNN_CHECK(drift.hasValue(), "drift run must degrade, not die");
    const GuardSnapshot after = guardDrift.snapshot();
    std::cout << format("drift demo (stale alphas, shifted input): "
                        "%llu/%llu audited mispredicted, "
                        "%llu backoffs, %llu disables, "
                        "%zu kernels degraded\n",
                        static_cast<unsigned long long>(
                            after.mispredictedNeurons),
                        static_cast<unsigned long long>(
                            after.auditedNeurons),
                        static_cast<unsigned long long>(after.backoffs),
                        static_cast<unsigned long long>(after.disables),
                        after.degradedKernels);

    // Machine-readable summary for CI artifacts.
    std::ostringstream json;
    json << "{\n"
         << "  \"benchmark\": \"guard_overhead\",\n"
         << "  \"model\": \"" << net.name() << "\",\n"
         << "  \"samples\": " << mc.samples << ",\n"
         << "  \"audit_rate\": " << on.audit.rate << ",\n"
         << "  \"audit_off_ms\": " << format("%.4f", offMs) << ",\n"
         << "  \"audit_on_ms\": " << format("%.4f", onMs) << ",\n"
         << "  \"overhead_pct\": " << format("%.3f", overheadPct)
         << ",\n"
         << "  \"overhead_target_pct\": 3.0,\n"
         << "  \"clean\": {\"audited\": " << clean.auditedNeurons
         << ", \"mispredicted\": " << clean.mispredictedNeurons
         << ", \"degraded_kernels\": " << clean.degradedKernels
         << "},\n"
         << "  \"drift\": {\"audited\": " << after.auditedNeurons
         << ", \"mispredicted\": " << after.mispredictedNeurons
         << ", \"backoffs\": " << after.backoffs
         << ", \"disables\": " << after.disables
         << ", \"degraded_kernels\": " << after.degradedKernels
         << "}\n"
         << "}\n";
    std::cout << "\n" << json.str();
    if (const char *path = std::getenv("FASTBCNN_GUARD_JSON")) {
        std::ofstream out(path);
        out << json.str();
        std::cout << "json written to " << path << "\n";
    }
    return 0;
}
