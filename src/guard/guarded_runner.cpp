#include "guarded_runner.hpp"

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

    // Per-run state.  The runner writes zeroMaps (pre-inference) and
    // thresholds (round callback) on its own thread while no sample is
    // in flight; sample t alone writes slot t of predicted / audits.
    ZeroMaps zeroMaps;
    ThresholdSet thresholds = guard.effectiveThresholds();
    std::vector<std::uint64_t> predicted(opts.samples);
    std::vector<SampleAudit> audits(opts.samples);
    GuardedMcResult result;

    ForwardTarget target;
    target.name = net.name();
    target.inputShape = net.inputShape();
    target.forward = [&](const Tensor &in, ForwardHooks *hooks) {
        if (hooks == nullptr) {
            // The pre-inference: the one dense forward of the run.
            Tensor out;
            zeroMaps = computeZeroMaps(topo, in, &out);
            return out;
        }
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

    Expected<McResult> run = tryRunMcDropoutWith(target, input, opts);
    if (!run.hasValue())
        return std::move(run).takeError();
    static_cast<McResult &>(result) = std::move(run).value();
    result.events = guard.eventsSince(eventsBefore);
    return result;
}

} // namespace fastbcnn
