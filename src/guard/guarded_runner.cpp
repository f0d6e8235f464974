#include "guarded_runner.hpp"

#include <atomic>
#include <thread>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace fastbcnn {

namespace {

/** One sample's private result, filled by its worker lane. */
struct GuardedSlot {
    Tensor output;
    SampleAudit audit;
    std::uint64_t predictedNeurons = 0;
};

} // namespace

Status
validateGuardedMcOptions(const GuardedMcOptions &opts)
{
    if (opts.samples == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "GuardedMcOptions::samples: need at least one "
                      "MC sample (got 0)");
    }
    if (!(opts.dropRate >= 0.0 && opts.dropRate < 1.0)) {
        return errorf(ErrorCode::InvalidArgument,
                      "GuardedMcOptions::dropRate %g outside [0, 1)",
                      opts.dropRate);
    }
    if (opts.threads > kMaxMcThreads) {
        return errorf(ErrorCode::InvalidArgument,
                      "GuardedMcOptions::threads %zu exceeds the "
                      "%zu-thread ceiling", opts.threads,
                      kMaxMcThreads);
    }
    return Status::ok();
}

Expected<GuardedMcResult>
tryRunGuardedPredictive(const BcnnTopology &topo,
                        const IndicatorSet &indicators,
                        SkipGuard &guard, const Tensor &input,
                        const GuardedMcOptions &opts)
{
    FASTBCNN_RETURN_IF_ERROR(validateGuardedMcOptions(opts));
    const Network &net = topo.network();
    if (!(input.shape() == net.inputShape())) {
        return errorf(ErrorCode::InvalidArgument,
                      "input shape %s does not match network '%s' "
                      "input %s", input.shape().toString().c_str(),
                      net.name().c_str(),
                      net.inputShape().toString().c_str());
    }

    GuardedMcResult result;
    const ZeroMaps zero_maps =
        computeZeroMaps(topo, input, &result.preOutput);
    const AuditOptions &audit_opts = guard.options().audit;
    const std::size_t interval = guard.options().decisionInterval;
    const std::size_t events_before = guard.eventCount();
    result.outputs.reserve(opts.samples);

    for (std::size_t round_start = 0; round_start < opts.samples;
         round_start += interval) {
        const std::size_t count =
            std::min(interval, opts.samples - round_start);
        // Thresholds are frozen for the whole round: every sample in
        // it sees the same alphas no matter which lane runs it.
        const ThresholdSet thresholds = guard.effectiveThresholds();
        std::vector<GuardedSlot> slots(count);

        const auto runOne = [&](std::size_t i) {
            const std::size_t t = round_start + i;
            auto brng = makeBrng(opts.brng, opts.dropRate,
                                 sampleSeed(opts.seed, t));
            const MaskSet masks = sampleMasks(net, *brng);
            PredictiveOptions popts;
            popts.captureNodeOutputs = audit_opts.rate > 0.0;
            PredictiveResult pres = predictiveForward(
                topo, indicators, zero_maps, thresholds, input, masks,
                popts);
            GuardedSlot &slot = slots[i];
            slot.predictedNeurons = pres.predictedNeurons;
            if (audit_opts.rate > 0.0) {
                slot.audit = auditPredictedNeurons(
                    topo, input, pres.nodeOutputs, pres.predicted,
                    audit_opts, t);
            } else {
                slot.audit.sample = t;
            }
            slot.output = std::move(pres.output);
        };

        const std::size_t workers =
            resolveMcThreads(opts.threads, count);
        if (workers <= 1) {
            for (std::size_t i = 0; i < count; ++i)
                runOne(i);
        } else {
            std::atomic<std::size_t> next{0};
            std::vector<std::thread> pool;
            pool.reserve(workers);
            for (std::size_t w = 0; w < workers; ++w) {
                pool.emplace_back([&]() {
                    for (std::size_t i = next.fetch_add(1); i < count;
                         i = next.fetch_add(1)) {
                        runOne(i);
                    }
                });
            }
            for (std::thread &worker : pool)
                worker.join();
        }

        // Fold in ascending sample order: the guard decides at round
        // boundaries, so the decision sees a deterministic prefix.
        for (std::size_t i = 0; i < count; ++i) {
            GuardedSlot &slot = slots[i];
            result.predictedNeurons += slot.predictedNeurons;
            result.audited += slot.audit.audited();
            result.mispredicted += slot.audit.mispredicted();
            guard.onSampleAudit(slot.audit);
            result.outputs.push_back(std::move(slot.output));
        }
    }

    result.summary = summarizeSamples(result.outputs);
    result.events = guard.eventsSince(events_before);
    result.finalSnapshot = guard.snapshot();
    return result;
}

} // namespace fastbcnn
