#include "guard.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace fastbcnn {

namespace {

/** Cooldown-penalty ceiling: escalation stops doubling here. */
constexpr std::size_t kPenaltyCeiling = 64;
/** Cooldown multiplier applied per repeated backoff (capped). */
constexpr std::size_t kCooldownGrowth = 2;
/** Normal quantile of the Wilson intervals (1.96 ~ 95 %). */
constexpr double kWilsonZ = 1.96;
/** EWMA weight of the newest round in the rate estimators. */
constexpr double kEwmaAlpha = 0.2;
/**
 * Recovery requires the Wilson upper bound below tolerance ×
 * kRecoverFraction — strictly harder than the trip condition, so the
 * policy cannot oscillate on a borderline rate.
 */
constexpr double kRecoverFraction = 0.5;

} // namespace

Status
validateGuardOptions(const GuardOptions &opts)
{
    if (!(opts.audit.rate >= 0.0 && opts.audit.rate <= 1.0)) {
        return errorf(ErrorCode::InvalidArgument,
                      "GuardOptions::audit.rate %g outside [0, 1]",
                      opts.audit.rate);
    }
    if (!(opts.tolerance >= 0.0 && opts.tolerance < 1.0)) {
        return errorf(ErrorCode::InvalidArgument,
                      "GuardOptions::tolerance %g outside [0, 1) "
                      "(0 = derive from calibration)", opts.tolerance);
    }
    if (opts.decisionInterval == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "GuardOptions::decisionInterval must be >= 1");
    }
    if (opts.minAudited == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "GuardOptions::minAudited must be >= 1 (a rate "
                      "over zero trials is meaningless)");
    }
    return Status::ok();
}

const char *
guardEventKindName(GuardEventKind kind)
{
    switch (kind) {
      case GuardEventKind::Backoff: return "Backoff";
      case GuardEventKind::Disable: return "Disable";
      case GuardEventKind::Probe:   return "Probe";
      case GuardEventKind::Recover: return "Recover";
    }
    return "Unknown";
}

SkipGuard::SkipGuard(const BcnnTopology &topo, ThresholdSet calibrated,
                     const GuardOptions &opts)
    : opts_(opts), calibrated_(std::move(calibrated)),
      current_(calibrated_)
{
    FASTBCNN_CHECK(opts_.tolerance > 0.0,
                   "SkipGuard needs a resolved tolerance (> 0); the "
                   "engine derives 1 - p_cf before construction");
    if (Status status = validateGuardOptions(opts_); !status.isOk())
        fatal("%s", status.toString().c_str());
    for (const ConvBlock &b : topo.blocks()) {
        const std::vector<int> &alphas = calibrated_.layer(b.conv);
        std::vector<KernelState> states(alphas.size());
        for (std::size_t m = 0; m < alphas.size(); ++m) {
            states[m].calibrated = alphas[m];
            states[m].current = alphas[m];
            states[m].estimator = RateEstimator(kEwmaAlpha);
        }
        kernels_.emplace(b.conv, std::move(states));
    }
}

ThresholdSet
SkipGuard::effectiveThresholds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
}

void
SkipGuard::onSampleAudit(const SampleAudit &audit)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++samplesSeen_;
    for (const auto &[conv, tallies] : audit.kernels) {
        auto it = kernels_.find(conv);
        if (it == kernels_.end())
            continue;
        std::vector<KernelState> &states = it->second;
        const std::size_t n = std::min(states.size(), tallies.size());
        for (std::size_t m = 0; m < n; ++m) {
            states[m].roundAudited += tallies[m].audited;
            states[m].roundMispredicted += tallies[m].mispredicted;
        }
    }
    if (samplesSeen_ % opts_.decisionInterval == 0)
        decideLocked();
}

void
SkipGuard::recordEventLocked(KernelState &st, NodeId conv,
                             std::size_t kernel, GuardEventKind kind,
                             int from, double lower)
{
    GuardEvent ev;
    ev.sample = samplesSeen_;
    ev.conv = conv;
    ev.kernel = kernel;
    ev.kind = kind;
    ev.fromAlpha = from;
    ev.toAlpha = st.current;
    ev.mispredictRate = st.estimator.rate();
    ev.wilsonLower = lower;
    events_.push_back(ev);
    switch (kind) {
      case GuardEventKind::Backoff: ++backoffs_; break;
      case GuardEventKind::Disable: ++disables_; break;
      case GuardEventKind::Probe:   ++probes_; break;
      case GuardEventKind::Recover: ++recoveries_; break;
    }
}

void
SkipGuard::decideLocked()
{
    for (auto &[conv, states] : kernels_) {
        for (std::size_t m = 0; m < states.size(); ++m) {
            KernelState &st = states[m];
            st.estimator.observe(st.roundMispredicted,
                                 st.roundAudited);
            st.lifetimeAudited += st.roundAudited;
            st.lifetimeMispredicted += st.roundMispredicted;
            st.roundAudited = 0;
            st.roundMispredicted = 0;

            // A kernel calibrated to alpha = 0 never predicts and
            // never produces audit signal; nothing to manage.
            if (st.calibrated <= 0)
                continue;
            if (st.cooldown > 0) {
                --st.cooldown;
                continue;
            }

            const bool confident =
                st.estimator.trials() >= opts_.minAudited;
            const double lower =
                st.estimator.lowerBound(kWilsonZ);
            const double upper =
                st.estimator.upperBound(kWilsonZ);
            const int from = st.current;

            if (st.current > 0 && confident &&
                lower > opts_.tolerance) {
                // Confidently over tolerance: halve toward
                // conservative; at 0 the kernel's prediction is off.
                ++st.level;
                st.current = st.calibrated >> st.level;
                current_.set(conv, m, st.current);
                recordEventLocked(st, conv, m,
                                  st.current == 0
                                      ? GuardEventKind::Disable
                                      : GuardEventKind::Backoff,
                                  from, lower);
                st.cooldown = opts_.cooldownRounds * st.penalty;
                st.penalty = std::min(st.penalty * kCooldownGrowth,
                                      kPenaltyCeiling);
                st.estimator.reset();
            } else if (st.current > 0 && st.level > 0 && confident &&
                       upper < opts_.tolerance * kRecoverFraction) {
                // Confidently well under tolerance (hysteresis gap):
                // probe one step back toward the calibrated alpha.
                --st.level;
                st.current = st.calibrated >> st.level;
                current_.set(conv, m, st.current);
                recordEventLocked(st, conv, m,
                                  st.level == 0
                                      ? GuardEventKind::Recover
                                      : GuardEventKind::Probe,
                                  from, lower);
                st.cooldown = opts_.cooldownRounds;
                st.estimator.reset();
            } else if (st.current == 0) {
                // Disabled kernels produce no audit signal, so
                // recovery must probe blind: re-enable a conservative
                // alpha and let the next rounds measure it.
                do {
                    --st.level;
                    st.current = st.calibrated >> st.level;
                } while (st.level > 0 && st.current == 0);
                current_.set(conv, m, st.current);
                recordEventLocked(st, conv, m,
                                  st.level == 0
                                      ? GuardEventKind::Recover
                                      : GuardEventKind::Probe,
                                  from, lower);
                st.cooldown = opts_.cooldownRounds * st.penalty;
                st.estimator.reset();
            }
        }
    }
}

GuardSnapshot
SkipGuard::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    GuardSnapshot snap;
    snap.tolerance = opts_.tolerance;
    snap.samplesSeen = samplesSeen_;
    snap.backoffs = backoffs_;
    snap.disables = disables_;
    snap.probes = probes_;
    snap.recoveries = recoveries_;
    for (const auto &[conv, states] : kernels_) {
        for (std::size_t m = 0; m < states.size(); ++m) {
            const KernelState &st = states[m];
            KernelGuardStatus status;
            status.conv = conv;
            status.kernel = m;
            status.calibratedAlpha = st.calibrated;
            status.currentAlpha = st.current;
            status.backoffLevel = st.level;
            status.audited = st.lifetimeAudited + st.roundAudited;
            status.mispredicted =
                st.lifetimeMispredicted + st.roundMispredicted;
            if (status.audited > 0) {
                status.mispredictRate =
                    static_cast<double>(status.mispredicted) /
                    static_cast<double>(status.audited);
            }
            status.ewmaRate = st.estimator.ewma();
            status.wilsonLower =
                st.estimator.lowerBound(kWilsonZ);
            status.wilsonUpper =
                st.estimator.upperBound(kWilsonZ);
            status.healthy = st.current == st.calibrated;
            if (!status.healthy)
                ++snap.degradedKernels;
            snap.auditedNeurons += status.audited;
            snap.mispredictedNeurons += status.mispredicted;
            snap.kernels.push_back(status);
        }
    }
    return snap;
}

std::size_t
SkipGuard::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::vector<GuardEvent>
SkipGuard::eventsSince(std::size_t first) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (first >= events_.size())
        return {};
    return std::vector<GuardEvent>(events_.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           first),
                                   events_.end());
}

} // namespace fastbcnn
