/**
 * @file
 * Offline threshold optimization — Algorithm 1 of the paper.
 *
 * For each conv block (in topological order) and each of its kernels,
 * the threshold α starts at an initial value Th and is decreased by Δs
 * until the fraction of correctly predicted neurons in that kernel's
 * feature map, measured over T sample inferences with prediction mode
 * cascaded from the first layer, reaches the confidence level p_cf.
 *
 * Implementation note: because upstream thresholds are already frozen
 * when block l is tuned, the cascaded input of block l — and therefore
 * both the counts N_d and the non-predicted neuron values — do not
 * depend on block l's own α.  The inner while-loop of Algorithm 1 can
 * thus be evaluated against per-kernel histograms bucketed by N_d
 * instead of re-running inference per α step: identical results,
 * orders of magnitude cheaper.  Counters are clamped to 10 bits, the
 * width of the central predictor's adders (Section V-C).
 */

#ifndef FASTBCNN_SKIP_THRESHOLD_OPTIMIZER_HPP
#define FASTBCNN_SKIP_THRESHOLD_OPTIMIZER_HPP

#include "bayes/mc_runner.hpp"
#include "common/error.hpp"
#include "predictive_inference.hpp"

namespace fastbcnn {

/** Algorithm 1 inputs (names follow the paper). */
struct OptimizerOptions {
    int initialThreshold = 1 << 10;  ///< Th (10-bit counter ceiling)
    int step = 1;                    ///< Δs
    double confidence = 0.68;        ///< p_cf, the paper's sweet spot
    std::size_t samples = 8;         ///< T during optimization
    double dropRate = 0.3;           ///< dropout rate during tuning
    std::uint64_t seed = 7;          ///< software BRNG seed
};

/** Tuning diagnostics for one conv block. */
struct BlockTuneReport {
    NodeId conv = 0;
    double meanAlpha = 0.0;        ///< mean α over the block's kernels
    double achievedConfidence = 0.0;  ///< min per-kernel confidence
    std::uint64_t evaluatedNeurons = 0;
};

/** The optimizer's full output. */
struct OptimizeResult {
    ThresholdSet thresholds;
    std::vector<BlockTuneReport> reports;
};

/**
 * Validate @p opts at the API boundary (the engine does this before
 * any work).  @return ok, or an InvalidArgument error naming the bad
 * value: non-positive Th or Δs, p_cf outside (0, 1], zero tuning
 * samples, dropRate outside [0, 1).
 */
[[nodiscard]] Status validateOptimizerOptions(
    const OptimizerOptions &opts);

/**
 * Run Algorithm 1 over an optimization dataset.
 *
 * Errors (never aborts): invalid options, or an empty tuning dataset —
 * tuning against nothing would silently "succeed" with every α left at
 * Th, a degenerate set that predicts nearly everything.
 *
 * @param topo       analysed BCNN
 * @param indicators weight-sign indicators ("Preparation", lines 4-5)
 * @param dataset    optimization inputs D (at least one)
 * @param opts       Th, Δs, p_cf, T, ...
 */
[[nodiscard]] Expected<OptimizeResult> tryOptimizeThresholds(
    const BcnnTopology &topo, const IndicatorSet &indicators,
    const std::vector<Tensor> &dataset,
    const OptimizerOptions &opts = {});

} // namespace fastbcnn

#endif // FASTBCNN_SKIP_THRESHOLD_OPTIMIZER_HPP
