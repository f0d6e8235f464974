#include "guarded_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace fastbcnn {

Expected<GuardedMcResult>
tryRunGuardedPredictive(const BcnnTopology &topo,
                        const IndicatorSet &indicators,
                        SkipGuard &guard, const Tensor &input,
                        const GuardedMcOptions &opts)
{
    const Network &net = topo.network();
    const AuditOptions &audit = guard.options().audit;
    const std::size_t eventsBefore = guard.eventCount();

    // Per-run state.  zeroMaps is written once, before the run; the
    // runner writes thresholds (round callback) on its own thread while
    // no sample is in flight; sample t alone writes slot t of
    // predicted / audits.
    ZeroMaps zeroMaps;
    ThresholdSet thresholds = guard.effectiveThresholds();
    std::vector<std::uint64_t> predicted(opts.samples);
    std::vector<SampleAudit> audits(opts.samples);
    GuardedMcResult result;

    ForwardTarget target;
    target.name = net.name();
    target.inputShape = net.inputShape();
    target.forward = [&](const Tensor &in, ForwardHooks *hooks) {
        // The bit stream sampleMasks() draws, with any mask or BRNG
        // fault of the run's plan applied.
        const MaskSet masks = drawMasks(net, *hooks);
        PredictiveOptions popts;
        popts.captureNodeOutputs = audit.rate > 0.0;
        PredictiveResult pres = predictiveForward(
            topo, indicators, zeroMaps, thresholds, in, masks, popts);
        const std::size_t t = hooks->sample();
        predicted[t] = pres.predictedNeurons;
        audits[t] = audit.rate > 0.0
                        ? auditPredictedNeurons(topo, in,
                                                pres.nodeOutputs,
                                                pres.predicted, audit, t)
                        : SampleAudit{t, {}};
        return std::move(pres.output);
    };
    target.rounds.length = guard.options().decisionInterval;
    target.rounds.onRound = [&](std::size_t first,
                                const std::vector<bool> &survived) {
        for (std::size_t i = 0; i < survived.size(); ++i) {
            const std::size_t t = first + i;
            if (!survived[i]) {
                guard.onSampleAudit(SampleAudit{t, {}});
                continue;
            }
            result.predictedNeurons += predicted[t];
            result.audited += audits[t].audited();
            result.mispredicted += audits[t].mispredicted();
            guard.onSampleAudit(audits[t]);
        }
        thresholds = guard.effectiveThresholds();
    };

    // Network::forward fatal()s on a bad shape: validate first.
    FASTBCNN_RETURN_IF_ERROR(validateMcRun(target, input, opts));

    // The pre-inference: the one dense forward of the run, whose zero
    // maps every sample's Eq. 5 ANDs with.  A non-finite output fails
    // the run before any sample launches or folds into the guard.
    // NOLINTNEXTLINE-FASTBCNN(determinism): deadline accounting
    const auto start = std::chrono::steady_clock::now();
    Tensor preOut;
    zeroMaps = computeZeroMaps(topo, input, &preOut);
    for (std::size_t i = 0; i < preOut.numel(); ++i) {
        if (!std::isfinite(preOut.at(i))) {
            return errorf(ErrorCode::NonFinite,
                          "pre-inference output non-finite at element "
                          "%zu (poisoned weights?)", i);
        }
    }
    // The deadline covers the pre-inference too; a spent budget stays
    // positive (not "no deadline") and still launches sample 0.
    McOptions runOpts = opts;
    if (opts.deadlineMs > 0.0) {
        // NOLINTNEXTLINE-FASTBCNN(determinism): deadline accounting
        const auto end = std::chrono::steady_clock::now();
        const std::chrono::duration<double, std::milli> spent =
            end - start;
        runOpts.deadlineMs =
            std::max(opts.deadlineMs - spent.count(),
                     std::numeric_limits<double>::min());
    }

    Expected<McResult> run = tryRunMcDropoutWith(target, input, runOpts);
    if (!run.hasValue())
        return std::move(run).takeError();
    static_cast<McResult &>(result) = std::move(run).value();
    result.events = guard.eventsSince(eventsBefore);
    return result;
}

} // namespace fastbcnn
