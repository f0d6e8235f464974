/**
 * @file
 * Shadow auditing of skip predictions: during predictive inference a
 * deterministic sampler selects a configurable fraction of the
 * *skipped* (predicted-unaffected) neurons and checks each against
 * the dense value predictiveForward()'s conv computed for it before
 * the zeroing.  A neuron whose value was positive was mispredicted —
 * the skip engine forced a live neuron to zero.  Per-kernel audit
 * tallies feed the SkipGuard mispredict-rate estimators (guard.hpp).
 *
 * Selection is a pure hash of (seed, conv, sample, flat index): the
 * same neurons are audited regardless of thread count or evaluation
 * order, so guarded runs stay bit-identical.
 */

#ifndef FASTBCNN_GUARD_AUDIT_HPP
#define FASTBCNN_GUARD_AUDIT_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "skip/predictive_inference.hpp"

namespace fastbcnn {

/** Shadow-audit configuration. */
struct AuditOptions {
    /**
     * Fraction of predicted (skipped) neurons to audit, in [0, 1].
     * 0 disables auditing; 1 audits every skipped neuron.  The
     * default keeps the clean-path overhead well under the 3 % budget
     * (see bench_guard_overhead).
     */
    double rate = 0.02;
};

/** Audit tallies for one kernel of one conv block. */
struct KernelAudit {
    std::uint64_t audited = 0;       ///< skipped neurons audited
    std::uint64_t mispredicted = 0;  ///< of those, actually positive
};

/** One MC sample's audit: per-conv, per-kernel tallies. */
struct SampleAudit {
    std::size_t sample = 0;  ///< the sample index t
    /** Tallies keyed by conv node, indexed by kernel m. */
    std::map<NodeId, std::vector<KernelAudit>> kernels;

    /** @return total audited neurons across every kernel. */
    std::uint64_t audited() const;
    /** @return total mispredicted neurons across every kernel. */
    std::uint64_t mispredicted() const;
};

/**
 * Deterministic audit selection: true iff the neuron at @p flat of
 * conv @p conv in sample @p sample is audited at @p rate.  A pure
 * splitmix64 chain over (seed, conv, sample, flat) — no shared state,
 * no ordering dependence.
 */
bool auditSelected(std::uint64_t seed, NodeId conv, std::size_t sample,
                   std::size_t flat, double rate);

/**
 * Audit one predictive sample: classify the selected fraction of each
 * conv's predicted neurons as true skip or mispredict by reading the
 * sample's PredictiveResult::mispredicted record.
 *
 * Mispredict is defined against the *cascaded* computation — the conv
 * input already reflects upstream zeroing — matching the optimizer's
 * correctness notion (a predicted neuron is correct exactly when its
 * true value is zero, i.e. pre-activation <= 0).  The dense conv sums
 * the same taps in the same order as Conv2d::computeNeuron(), except
 * that it skips exactly-zero weights; that changes the sign test only
 * when a non-finite input sits under a zero weight, and then the
 * audit follows the value the sample actually used.
 *
 * @param pres   the sample's predictive pass (predicted and
 *               mispredicted maps)
 * @param opts   audit rate
 * @param sample the MC sample index t (selection-hash input)
 */
SampleAudit auditPredictedNeurons(const PredictiveResult &pres,
                                  const AuditOptions &opts,
                                  std::size_t sample);

} // namespace fastbcnn

#endif // FASTBCNN_GUARD_AUDIT_HPP
