/**
 * @file
 * Quickstart: build a Bayesian LeNet-5, calibrate the skipping
 * thresholds offline, run one uncertainty-aware inference and print
 * the prediction, the uncertainty, the neuron census and the
 * speedup/energy win of Fast-BCNN over the baseline accelerator.
 *
 * Flags (each tunes the MC-dropout run; see serve/ for the full
 * serving treatment of the same knobs):
 *   --threads N       parallel MC sampling threads (0 = hardware)
 *   --deadline-ms D   latency budget; late samples are not launched
 *                     and the run degrades to the survivors
 *   --quorum Q        minimum surviving samples for a usable result
 *   --audit-rate R    shadow-audit fraction of skipped neurons; any
 *                     R > 0 enables the skip guard and prints a
 *                     guard summary after the guarded run
 *   --checkpoint      demo the checkpoint pipeline: atomically save
 *                     the model, reload it into a fresh network with
 *                     every CRC verified
 *   --simd {scalar,avx2}
 *                     force a SIMD dispatch level (default: strongest
 *                     the CPU supports; outputs are bit-identical at
 *                     every level)
 *   --precision {f32,int8}
 *                     numeric path for the MC reference; int8 builds
 *                     the engine's quantized mirror during calibration
 *                     and prints a side-by-side f32-vs-int8 comparison
 *                     (posterior mean/variance, zero/skip rates)
 *   --target-ci-width W
 *                     adaptive early exit: stop sampling once the
 *                     predictive-mean 95 % CI is narrower than W
 *                     (deterministic checkpoints; 0 = fixed T)
 *   --min-samples M   floor on samples before the early exit may stop
 *   --sample-budget B hard clamp on samples launched (the serving
 *                     brownout's lever; 0 = no clamp)
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "models/zoo.hpp"
#include "nn/checkpoint.hpp"
#include "simd/simd.hpp"
#include "skip/predictor.hpp"

using namespace fastbcnn;

namespace {

/** Parse "--flag value" pairs; exits with usage on a bad flag. */
struct CliOptions {
    std::size_t threads = 1;
    double deadlineMs = 0.0;  // 0 = no deadline
    std::size_t quorum = 0;   // 0 = any survivor suffices
    double auditRate = 0.0;   // 0 = guard off
    bool checkpoint = false;  // checkpoint save/reload demo
    std::string simdLevel;    // empty = strongest available
    Precision precision = Precision::Float32;
    double targetCiWidth = 0.0;   // 0 = fixed-T sampling
    std::size_t minSamples = 0;   // adaptive floor
    std::size_t sampleBudget = 0; // 0 = no clamp
};

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions cli;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                // NOLINTNEXTLINE-FASTBCNN(error-discipline): CLI arg-parse exit
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--threads") {
            cli.threads = std::stoul(value());
        } else if (flag == "--deadline-ms") {
            cli.deadlineMs = std::stod(value());
        } else if (flag == "--quorum") {
            cli.quorum = std::stoul(value());
        } else if (flag == "--audit-rate") {
            cli.auditRate = std::stod(value());
        } else if (flag == "--checkpoint") {
            cli.checkpoint = true;
        } else if (flag == "--simd") {
            cli.simdLevel = value();
            simd::SimdLevel parsed;
            if (!simd::simdLevelFromName(cli.simdLevel, parsed)) {
                std::cerr << "--simd must be 'scalar' or 'avx2'\n";
                // NOLINTNEXTLINE-FASTBCNN(error-discipline): CLI arg-parse exit
                std::exit(2);
            }
        } else if (flag == "--precision") {
            if (!precisionFromName(value().c_str(),
                                   &cli.precision)) {
                std::cerr << "--precision must be 'f32' or 'int8'\n";
                // NOLINTNEXTLINE-FASTBCNN(error-discipline): CLI arg-parse exit
                std::exit(2);
            }
        } else if (flag == "--target-ci-width") {
            cli.targetCiWidth = std::stod(value());
        } else if (flag == "--min-samples") {
            cli.minSamples = std::stoul(value());
        } else if (flag == "--sample-budget") {
            cli.sampleBudget = std::stoul(value());
        } else {
            std::cerr << "usage: quickstart [--threads N] "
                         "[--deadline-ms D] [--quorum Q] "
                         "[--audit-rate R] "
                         "[--checkpoint] "
                         "[--simd scalar|avx2] "
                         "[--precision f32|int8] "
                         "[--target-ci-width W] [--min-samples M] "
                         "[--sample-budget B]\n";
            // NOLINTNEXTLINE-FASTBCNN(error-discipline): CLI usage exit
            std::exit(flag == "--help" ? 0 : 2);
        }
    }
    return cli;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);

    // 0. SIMD dispatch: report what the CPU gives us and honor the
    //    --simd override (the kernels are bit-identical at every
    //    level, so this only changes speed).
    if (!cli.simdLevel.empty()) {
        simd::SimdLevel requested;
        simd::simdLevelFromName(cli.simdLevel, requested);
        simd::setLevel(requested);
    }
    std::cout << "SIMD: detected "
              << simd::simdLevelName(simd::detectedLevel())
              << ", running "
              << simd::simdLevelName(simd::activeLevel()) << "\n";

    // 1. Build the model: LeNet-5 with a dropout layer after every
    //    convolution (the BCNN construction, drop rate 0.3).
    ModelOptions mopts;
    mopts.dropRate = 0.3;
    Network net = buildLenet5(mopts);
    std::cout << "Model: " << net.name() << " ("
              << net.totalMacs() << " MACs per dense inference)\n";

    // Give the synthetic weights trained-network activation
    // statistics (~60 % post-ReLU zeros with shallow zeros).
    calibrateSparsity(net, {makeMnistLikeImage(0, 1),
                            makeMnistLikeImage(5, 2)});

    // 1b. With --checkpoint: the checkpoint pipeline the serving
    //     stack uses for hot-swaps.  The save is atomic (temp file +
    //     fsync + rename), the reload re-checks every CRC before a
    //     single weight is touched.
    if (cli.checkpoint) {
        const std::string path = "quickstart_ckpt.bin";
        const Status saved = trySaveCheckpointFile(net, path);
        if (!saved.isOk()) {
            std::cerr << "checkpoint save failed: " << saved.toString()
                      << "\n";
            return 1;
        }
        Network reloaded = buildLenet5(mopts);
        const Status loaded = tryLoadCheckpointFile(reloaded, path);
        if (!loaded.isOk()) {
            std::cerr << "checkpoint reload failed: "
                      << loaded.toString() << "\n";
            return 1;
        }
        std::cout << format(
            "Checkpoint round-trip: wrote %s, reloaded it with every "
            "CRC verified\n", path.c_str());
        std::remove(path.c_str());
    }

    // 2. Wrap it in the engine: 50 MC-dropout samples on the
    //    Fast-BCNN64 design point, thresholds tuned to p_cf = 68 %.
    EngineOptions eopts;
    eopts.mc.samples = 50;
    eopts.mc.threads = cli.threads;
    eopts.mc.deadlineMs = cli.deadlineMs;
    eopts.mc.quorum = cli.quorum;
    eopts.mc.targetCiWidth = cli.targetCiWidth;
    eopts.mc.minSamples = cli.minSamples;
    eopts.mc.sampleBudget = cli.sampleBudget;
    // int8 makes tryCalibrate() also build the quantized mirror.
    eopts.mc.precision = cli.precision;
    eopts.optimizer.confidence = 0.68;
    if (cli.auditRate > 0.0) {
        eopts.guard.enabled = true;
        eopts.guard.audit.rate = cli.auditRate;
    }
    FastBcnnEngine engine(std::move(net), eopts);
    std::cout << format("MC config: T = %zu, threads = %zu",
                        eopts.mc.samples, cli.threads);
    if (cli.deadlineMs > 0.0)
        std::cout << format(", deadline %.1f ms", cli.deadlineMs);
    if (cli.quorum > 0)
        std::cout << format(", quorum %zu", cli.quorum);
    if (cli.targetCiWidth > 0.0)
        std::cout << format(", target CI width %.4g",
                            cli.targetCiWidth);
    if (cli.minSamples > 0)
        std::cout << format(", min samples %zu", cli.minSamples);
    if (cli.sampleBudget > 0)
        std::cout << format(", sample budget %zu", cli.sampleBudget);
    std::cout << "\n";

    // 3. Offline stage: Algorithm 1 on a small calibration set.
    const Dataset calib = makeDataset(true, 10, 2, 42);
    std::vector<Tensor> calib_inputs;
    for (const Example &e : calib.examples)
        calib_inputs.push_back(e.image);
    const Status calibrated = engine.tryCalibrate(calib_inputs);
    if (!calibrated.isOk()) {
        std::cerr << "calibration failed: " << calibrated.toString()
                  << "\n";
        return 1;
    }
    std::cout << "Calibrated " << engine.tuneReports().size()
              << " conv blocks (mean alpha per block:";
    for (const BlockTuneReport &r : engine.tuneReports())
        std::cout << ' ' << format("%.1f", r.meanAlpha);
    std::cout << ")\n\n";

    // 4. One inference with uncertainty.  tryInfer() reports deadline
    //    and quorum failures as recoverable errors instead of
    //    aborting, so a too-tight budget prints a diagnosis.
    const Tensor input = makeMnistLikeImage(3, 7);
    Expected<EngineResult> inferred = engine.tryInfer(input);
    if (!inferred.hasValue()) {
        std::cerr << "inference failed ["
                  << errorCodeName(inferred.error().code())
                  << "]: " << inferred.error().message() << "\n";
        return 1;
    }
    EngineResult result = std::move(inferred).value();

    std::cout << "Prediction: class " << result.prediction.argmax
              << format(" (p = %.3f)", result.prediction.maxProbability)
              << format(", predictive entropy %.3f nats",
                        result.prediction.predictiveEntropy)
              << format(", mutual information %.4f\n",
                        result.prediction.mutualInformation);
    std::cout << "Exact MC-dropout reference agrees on argmax: "
              << (result.argmaxAgrees ? "yes" : "no") << "\n\n";

    Table census({"layer", "zero", "unaffected", "dropped",
                  "predicted", "skipped", "pred-acc"});
    for (const BlockCensus &c : result.census) {
        census.addRow({c.name, format("%.2f", c.zeroRatio),
                       format("%.2f", c.unaffectedRatio),
                       format("%.2f", c.droppedRatio),
                       format("%.2f", c.predictedRatio),
                       format("%.2f", c.skipRatio),
                       format("%.2f", c.predictionAccuracy)});
    }
    census.print(std::cout);

    std::cout << format("\nFast-BCNN64: %.0f cycles/sample, "
                        "%.1f uJ/sample\n",
                        result.fastBcnn.cyclesPerSample,
                        result.fastBcnn.energyPerSampleNj / 1000.0);
    std::cout << format("Baseline:    %.0f cycles/sample, "
                        "%.1f uJ/sample\n",
                        result.baseline.cyclesPerSample,
                        result.baseline.energyPerSampleNj / 1000.0);
    std::cout << format("Speedup %.2fx, energy reduction %.0f%%, "
                        "PE idle %.1f%%\n",
                        result.speedup, 100.0 * result.energyReduction,
                        100.0 * result.fastBcnn.peIdleFraction);

    // 5. The exact MC-dropout reference under the latency budget.
    //    --deadline-ms stops launching samples when the budget runs
    //    out (the run degrades to the survivors) and --quorum sets
    //    the floor below which the result is an error, not an answer.
    Expected<McResult> reference = engine.tryMcReference(input);
    if (!reference.hasValue()) {
        std::cerr << "\nMC reference failed ["
                  << errorCodeName(reference.error().code())
                  << "]: " << reference.error().message() << "\n";
        return 1;
    }
    const DegradationCensus &census2 = reference.value().census;
    std::cout << format("\nMC reference (%s): %zu of %zu samples "
                        "survived",
                        precisionName(cli.precision),
                        census2.survived, census2.requested)
              << (census2.degraded ? " (degraded by the deadline)"
                                   : "")
              << "\n";
    if (census2.converged) {
        std::cout << format(
            "Adaptive early exit: converged at T' = %zu of %zu "
            "(95%% CI width %.4g <= target %.4g)\n",
            census2.convergedAt, census2.requested, census2.ciWidth,
            cli.targetCiWidth);
    } else if (cli.targetCiWidth > 0.0) {
        std::cout << format(
            "Adaptive early exit: never converged (CI width %.4g > "
            "target %.4g at the final checkpoint); ran the full "
            "budget of %zu\n",
            census2.ciWidth, cli.targetCiWidth, census2.budget);
    }
    if (census2.budget < census2.requested) {
        std::cout << format(
            "Sample budget clamped the run to %zu of %zu samples\n",
            census2.budget, census2.requested);
    }

    // 5b. With --precision int8: the same MC reference on both
    //     numeric paths, side by side.  The masks are identical
    //     (same seed, same per-sample BRNG), so every difference
    //     below is quantization, not sampling noise.  "zero rate" is
    //     the pre-inference zero-map density — the quantity Eq. 5
    //     skipping feeds on — and skip rates come from the census of
    //     the skipping run above.
    if (cli.precision == Precision::Int8) {
        McOptions f32mc = engine.options().mc;
        f32mc.precision = Precision::Float32;
        Expected<McResult> f32ref =
            engine.tryMcReference(input, f32mc);
        if (!f32ref.hasValue()) {
            std::cerr << "f32 MC reference failed: "
                      << f32ref.error().toString() << "\n";
            return 1;
        }
        const UncertaintySummary &sf = f32ref.value().summary;
        const UncertaintySummary &sq = reference.value().summary;

        const ZeroMaps zf =
            computeZeroMaps(engine.topology(), input);
        const std::map<NodeId, BitVolume> zq =
            engine.quantized()->computeZeroMaps(input);
        std::size_t zf_set = 0, zq_set = 0, z_total = 0;
        for (const auto &[conv, map] : zf) {
            const BitVolume &qmap = zq.at(conv);
            z_total += map.size();
            for (std::size_t i = 0; i < map.size(); ++i) {
                zf_set += map.getFlat(i) ? 1 : 0;
                zq_set += qmap.getFlat(i) ? 1 : 0;
            }
        }
        double mean_skip = 0.0;
        for (const BlockCensus &c : result.census)
            mean_skip += c.skipRatio;
        mean_skip /= static_cast<double>(result.census.size());

        std::cout << "\nf32 vs int8 on the same masks:\n";
        Table side({"path", "argmax", "mean[argmax]", "var[argmax]",
                    "zero rate", "skip rate"});
        const auto row = [&](const char *path,
                             const UncertaintySummary &s,
                             std::size_t zeros) {
            side.addRow(
                {path, format("%zu", s.argmax),
                 format("%.4f", s.mean.at(s.argmax)),
                 format("%.6f", s.variance.at(s.argmax)),
                 format("%.3f", static_cast<double>(zeros) /
                                    static_cast<double>(z_total)),
                 format("%.3f", mean_skip)});
        };
        row("f32", sf, zf_set);
        row("int8", sq, zq_set);
        side.print(std::cout);
        double max_mean_diff = 0.0;
        for (std::size_t i = 0; i < sf.mean.numel(); ++i) {
            const double d = std::abs(
                static_cast<double>(sf.mean.at(i)) - sq.mean.at(i));
            if (d > max_mean_diff)
                max_mean_diff = d;
        }
        std::cout << format("max |mean diff| %.5f, argmax %s\n",
                            max_mean_diff,
                            sf.argmax == sq.argmax ? "agrees"
                                                   : "DISAGREES");
    }

    // 6. With --audit-rate, re-run through the guarded predictive
    //    path: a shadow audit re-computes a sample of the skipped
    //    neurons and the guard backs a kernel's alpha off when its
    //    mispredict rate confidently exceeds the calibrated budget.
    if (cli.auditRate > 0.0) {
        Expected<GuardedMcResult> guarded = engine.tryGuardedMc(input);
        if (!guarded.hasValue()) {
            std::cerr << "guarded run failed ["
                      << errorCodeName(guarded.error().code())
                      << "]: " << guarded.error().message() << "\n";
            return 1;
        }
        const GuardSnapshot snap = engine.guard()->snapshot();
        std::cout << format(
            "\nSkip guard (audit rate %.3f, tolerance %.3f): "
            "%llu of %llu audited neurons mispredicted\n",
            cli.auditRate, snap.tolerance,
            static_cast<unsigned long long>(snap.mispredictedNeurons),
            static_cast<unsigned long long>(snap.auditedNeurons));
        std::cout << format(
            "Guard events: %llu backoffs, %llu disables, %llu probes, "
            "%llu recoveries (%zu kernels degraded)\n",
            static_cast<unsigned long long>(snap.backoffs),
            static_cast<unsigned long long>(snap.disables),
            static_cast<unsigned long long>(snap.probes),
            static_cast<unsigned long long>(snap.recoveries),
            snap.degradedKernels);
        if (snap.degradedKernels == 0) {
            std::cout << "All kernels healthy: every alpha is at its "
                         "calibrated value.\n";
        } else {
            Table guardTable({"conv", "kernel", "alpha", "calibrated",
                              "audited", "mispred-rate"});
            for (const KernelGuardStatus &k : snap.kernels) {
                if (k.healthy)
                    continue;  // only the backed-off kernels matter
                guardTable.addRow(
                    {format("%zu", k.conv), format("%zu", k.kernel),
                     format("%d", k.currentAlpha),
                     format("%d", k.calibratedAlpha),
                     format("%llu",
                            static_cast<unsigned long long>(k.audited)),
                     format("%.4f", k.mispredictRate)});
            }
            guardTable.print(std::cout);
        }
    }
    return 0;
}
