/**
 * @file
 * The self-healing skip guard: per-kernel mispredict-rate estimators
 * fed by the shadow audit (audit.hpp), plus a backoff policy that
 * moves a misbehaving kernel's threshold α toward conservative — and
 * ultimately disables its prediction — when the audited mispredict
 * rate is confidently above the tolerance the thresholds were
 * calibrated for (1 − p_cf).  Hysteresis-gated recovery probes step α
 * back toward the calibrated value once the rate subsides.
 *
 * Decisions are made at fixed sample-count boundaries (decision
 * rounds) over audits folded in ascending sample order, so a skip-mode
 * run is bit-identical for every thread count.  The MC runner ends a
 * block at every round boundary for the guard to fold
 * (guarded_runner.hpp).
 */

#ifndef FASTBCNN_GUARD_GUARD_HPP
#define FASTBCNN_GUARD_GUARD_HPP

#include <mutex>

#include "audit.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "skip/thresholds.hpp"

namespace fastbcnn {

/** Guardrail policy configuration. */
struct GuardOptions {
    /** Master switch; off = no guard is constructed by the engine. */
    bool enabled = false;
    /** Shadow-audit sampling (rate 0 = thresholds never adapt). */
    AuditOptions audit;
    /**
     * Mispredict-rate tolerance.  0 means "derive from calibration":
     * the engine substitutes 1 − p_cf, the mispredict budget the
     * offline optimizer tuned the thresholds to.
     */
    double tolerance = 0.0;
    /** Samples per decision round (policy acts at round boundaries). */
    std::size_t decisionInterval = 8;
    /** Minimum audited neurons before a kernel's rate is trusted. */
    std::uint64_t minAudited = 64;
    /** Normal quantile for the Wilson interval (1.96 ~ 95 %). */
    double wilsonZ = 1.96;
    /** EWMA weight of the newest round in the rate estimators. */
    double ewmaAlpha = 0.2;
    /** Rounds a kernel must hold after any α change (hysteresis). */
    std::size_t cooldownRounds = 4;
    /** Cooldown multiplier applied per repeated backoff (capped). */
    std::size_t cooldownGrowth = 2;
    /**
     * Recovery requires the Wilson upper bound below tolerance ×
     * recoverFraction — strictly harder than the trip condition, so
     * the policy cannot oscillate on a borderline rate.
     */
    double recoverFraction = 0.5;
};

/**
 * Validate @p opts at the API boundary.
 * @return ok, or an InvalidArgument error naming the bad value.
 */
Status validateGuardOptions(const GuardOptions &opts);

/** What a guard decision did to a kernel. */
enum class GuardEventKind {
    Backoff,  ///< α halved toward conservative (still predicting)
    Disable,  ///< α reached 0: prediction off for this kernel
    Probe,    ///< recovery probe: α stepped back up, under watch
    Recover   ///< α restored to its calibrated value
};

/** @return a stable display name for @p kind. */
const char *guardEventKindName(GuardEventKind kind);

/** One guard decision, recorded for tracing and tests. */
struct GuardEvent {
    std::uint64_t sample = 0;  ///< samples seen when decided
    NodeId conv = 0;
    std::size_t kernel = 0;
    GuardEventKind kind = GuardEventKind::Backoff;
    int fromAlpha = 0;
    int toAlpha = 0;
    double mispredictRate = 0.0;  ///< lifetime rate at decision time
    double wilsonLower = 0.0;     ///< trip evidence (Backoff/Disable)
};

/** Point-in-time guard status of one kernel. */
struct KernelGuardStatus {
    NodeId conv = 0;
    std::size_t kernel = 0;
    int calibratedAlpha = 0;
    int currentAlpha = 0;
    std::size_t backoffLevel = 0;    ///< α = calibrated >> level
    std::uint64_t audited = 0;
    std::uint64_t mispredicted = 0;
    double mispredictRate = 0.0;
    double ewmaRate = 0.0;
    double wilsonLower = 0.0;
    double wilsonUpper = 0.0;
    bool healthy = true;             ///< current == calibrated
};

/** Snapshot of a guard's whole state (health reporting). */
struct GuardSnapshot {
    double tolerance = 0.0;
    std::uint64_t samplesSeen = 0;
    std::uint64_t auditedNeurons = 0;
    std::uint64_t mispredictedNeurons = 0;
    std::uint64_t backoffs = 0;
    std::uint64_t disables = 0;
    std::uint64_t probes = 0;
    std::uint64_t recoveries = 0;
    std::size_t degradedKernels = 0;
    std::vector<KernelGuardStatus> kernels;
};

/**
 * Merge snapshots from several guards (the serving layer's per-worker
 * engine replicas): counters sum, per-kernel tallies merge by
 * (conv, kernel) with interval bounds recomputed from the aggregate,
 * and the reported α is the most conservative across replicas.
 */
GuardSnapshot mergeGuardSnapshots(
    const std::vector<GuardSnapshot> &parts);

/**
 * The guard itself: owns the effective thresholds (starting at the
 * calibrated set), accumulates per-kernel audit tallies, and runs the
 * backoff/recovery policy at decision-round boundaries.
 *
 * Thread-safe (internal mutex); deterministic given the onSampleAudit
 * call order.  Runners therefore fold audits in ascending sample
 * order at round boundaries — see guarded_runner.hpp.
 */
class SkipGuard
{
  public:
    /**
     * @param topo       analysed BCNN (kernel enumeration)
     * @param calibrated the offline-optimized threshold set
     * @param opts       validated policy options; tolerance must be
     *                   resolved (> 0) by the caller
     */
    SkipGuard(const BcnnTopology &topo, ThresholdSet calibrated,
              const GuardOptions &opts);

    /** @return the policy options (tolerance resolved). */
    const GuardOptions &options() const { return opts_; }

    /** @return a consistent copy of the effective thresholds. */
    ThresholdSet effectiveThresholds() const;

    /**
     * Fold one sample's audit tallies; every decisionInterval-th call
     * runs the policy over the accumulated round.  Call in ascending
     * sample order for bit-identical runs.
     */
    void onSampleAudit(const SampleAudit &audit);

    /** @return a consistent point-in-time snapshot. */
    GuardSnapshot snapshot() const;

    /** @return total decisions recorded so far. */
    std::size_t eventCount() const;

    /** @return events [first, end) — "what happened since". */
    std::vector<GuardEvent> eventsSince(std::size_t first) const;

  private:
    /** Mutable per-kernel policy state. */
    struct KernelState {
        int calibrated = 0;
        int current = 0;
        std::size_t level = 0;         ///< current = calibrated >> level
        RateEstimator estimator;
        std::uint64_t roundAudited = 0;
        std::uint64_t roundMispredicted = 0;
        std::uint64_t lifetimeAudited = 0;
        std::uint64_t lifetimeMispredicted = 0;
        std::size_t cooldown = 0;      ///< rounds until change allowed
        std::size_t penalty = 1;       ///< cooldown escalation factor
    };

    void decideLocked();
    void recordEventLocked(KernelState &st, NodeId conv,
                           std::size_t kernel, GuardEventKind kind,
                           int from, double lower);

    mutable std::mutex mutex_;
    GuardOptions opts_;
    ThresholdSet calibrated_;
    ThresholdSet current_;
    std::map<NodeId, std::vector<KernelState>> kernels_;
    std::vector<GuardEvent> events_;
    std::uint64_t samplesSeen_ = 0;
    // Lifetime decision counts by kind, reported by snapshot().
    std::uint64_t backoffs_ = 0;
    std::uint64_t disables_ = 0;
    std::uint64_t probes_ = 0;
    std::uint64_t recoveries_ = 0;
};

} // namespace fastbcnn

#endif // FASTBCNN_GUARD_GUARD_HPP
