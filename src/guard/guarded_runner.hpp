/**
 * @file
 * Skip mode on the MC runner: the guarded predictive MC-dropout run
 * is a ForwardTarget of tryRunMcDropoutWith().  Its pre-inference is
 * computeZeroMaps(); each sample draws its dropout masks through the
 * runner's hooks, runs predictiveForward() under the round's frozen
 * thresholds, and shadow-audits its skipped neurons (audit.hpp).  The
 * guard's decision rounds are the runner's sample rounds: at every
 * round boundary the runner hands the round back on its own thread,
 * the audits fold into the SkipGuard in ascending sample order — a
 * failed or never-launched sample folds an empty audit, so the guard's
 * cadence never shifts — and the thresholds are re-frozen for the next
 * round.  Skip runs therefore get the runner's quorum, fault
 * isolation, deadline, adaptive exit and degradation census, and stay
 * bit-identical for every thread count and SIMD level.
 */

#ifndef FASTBCNN_GUARD_GUARDED_RUNNER_HPP
#define FASTBCNN_GUARD_GUARDED_RUNNER_HPP

#include "bayes/mc_runner.hpp"
#include "guard.hpp"

namespace fastbcnn {

/**
 * Skip-mode runs take plain McOptions.  The alias survives only
 * because the benchmark harness (bench/perf) still names it.
 */
using GuardedMcOptions = McOptions;

/** Outcome of one guarded predictive MC run: the MC result plus the
 *  skip tallies of its surviving samples and the guard's decisions. */
struct GuardedMcResult : McResult {
    std::uint64_t predictedNeurons = 0;  ///< total skipped neurons
    std::uint64_t audited = 0;           ///< shadow-audited neurons
    std::uint64_t mispredicted = 0;      ///< of those, mispredicted
    std::vector<GuardEvent> events;      ///< decisions made this run
};

/**
 * Run a guarded predictive MC-dropout inference over @p guard's
 * effective thresholds.  The guard is shared, long-lived state: its
 * backoff levels persist across calls, which is the point — drift
 * detected on one request protects the next.  Read its state after
 * the run with guard.snapshot().
 *
 * Skip mode always runs the float network (there is no quantized
 * predictiveForward): @p opts.precision is ignored.
 *
 * Errors (never aborts): everything tryRunMcDropoutWith() reports —
 * invalid options, input shape mismatch, non-finite pre-inference,
 * quorum not met.
 *
 * @param topo       analysed BCNN
 * @param indicators weight-sign indicators
 * @param guard      the model's skip guard (thresholds + policy)
 * @param input      input tensor matching the network input shape
 * @param opts       sampling configuration
 */
[[nodiscard]] Expected<GuardedMcResult> tryRunGuardedPredictive(
    const BcnnTopology &topo, const IndicatorSet &indicators,
    SkipGuard &guard, const Tensor &input,
    const GuardedMcOptions &opts = {});

} // namespace fastbcnn

#endif // FASTBCNN_GUARD_GUARDED_RUNNER_HPP
