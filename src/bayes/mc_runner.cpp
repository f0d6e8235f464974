#include "mc_runner.hpp"

#include "adaptive.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"

namespace fastbcnn {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * @return the flat index of the first non-finite element, or npos.
 * Runs over every sample output inside the MC sample loop when the
 * sample guard is on (FASTBCNN_HOT — lint rule R3 keeps allocation,
 * locks, I/O and logging out of it).
 */
FASTBCNN_HOT std::size_t
firstNonFinite(const Tensor &t)
{
    const auto data = t.data();
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (!std::isfinite(data[i]))
            return i;
    }
    return static_cast<std::size_t>(-1);
}

/** One sample's reserved slot: its output, masks, and fate. */
struct SampleSlot {
    Tensor output;
    MaskSet masks;
    ErrorCode code = ErrorCode::Ok;  ///< Ok = survived
    std::string reason;
};

/** Run sample @p t (unguarded body shared by both paths). */
void
runSampleBody(const ForwardTarget &target, const Tensor &input,
              const McOptions &opts, std::size_t t, SampleSlot &slot)
{
    auto brng = makeBrng(opts.brng, opts.dropRate,
                         sampleSeed(opts.seed, t));
    if (opts.faults != nullptr)
        brng = opts.faults->wrapBrng(std::move(brng), t);
    SamplingHooks sampling(*brng, true, t);
    ForwardHooks *hooks = &sampling;
    std::optional<FaultInjectionHooks> injector;
    if (opts.faults != nullptr && !opts.faults->empty()) {
        injector.emplace(*opts.faults, t, &sampling);
        hooks = &*injector;
    }
    slot.output = target.forward(input, hooks);
    if (opts.recordMasks)
        slot.masks = sampling.takeMasks();
}

/** Run sample @p t under the isolation guard, recording its fate. */
void
runGuardedSample(const ForwardTarget &target, const Tensor &input,
                 const McOptions &opts, std::size_t t,
                 SampleSlot &slot)
{
    if (opts.faults != nullptr && opts.faults->sampleKilled(t)) {
        slot.code = ErrorCode::FaultInjected;
        slot.reason = "injected sample failure (SampleKill)";
        return;
    }
    if (!opts.sampleGuard) {
        runSampleBody(target, input, opts, t, slot);
        return;
    }
    try {
        runSampleBody(target, input, opts, t, slot);
        const std::size_t bad = firstNonFinite(slot.output);
        if (bad != static_cast<std::size_t>(-1)) {
            slot.code = ErrorCode::NonFinite;
            slot.reason = format(
                "sample output non-finite at element %zu", bad);
            slot.output = Tensor();
            slot.masks.clear();
        }
    } catch (const std::exception &e) {
        slot.code = ErrorCode::SampleFailed;
        slot.reason = format("exception: %s", e.what());
        slot.output = Tensor();
        slot.masks.clear();
    }
}

/**
 * Resolve a requested thread count (0 = one per hardware thread) to a
 * concrete worker count, capped at @p samples.
 */
std::size_t
resolveMcThreads(std::size_t requested, std::size_t samples)
{
    std::size_t n = requested;
    if (n == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        n = hw == 0 ? 1 : hw;
    }
    return n < samples ? n : samples;
}

} // namespace

Status
validateMcOptions(const McOptions &opts)
{
    if (opts.samples == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "McOptions::samples: need at least one MC "
                      "sample (got 0)");
    }
    if (!(opts.dropRate >= 0.0 && opts.dropRate < 1.0)) {
        return errorf(ErrorCode::InvalidArgument,
                      "McOptions::dropRate %g outside [0, 1)",
                      opts.dropRate);
    }
    if (opts.threads > kMaxMcThreads) {
        return errorf(ErrorCode::InvalidArgument,
                      "McOptions::threads %zu exceeds the %zu-thread "
                      "ceiling", opts.threads, kMaxMcThreads);
    }
    if (opts.quorum > opts.samples) {
        return errorf(ErrorCode::InvalidArgument,
                      "McOptions::quorum %zu exceeds samples %zu "
                      "(can never be met)", opts.quorum, opts.samples);
    }
    if (!(opts.deadlineMs >= 0.0)) {
        return errorf(ErrorCode::InvalidArgument,
                      "McOptions::deadlineMs %g must be >= 0 and "
                      "finite", opts.deadlineMs);
    }
    if (!(opts.targetCiWidth >= 0.0) ||
        !std::isfinite(opts.targetCiWidth)) {
        return errorf(ErrorCode::InvalidArgument,
                      "McOptions::targetCiWidth %g must be >= 0 and "
                      "finite", opts.targetCiWidth);
    }
    if (opts.minSamples > opts.samples) {
        return errorf(ErrorCode::InvalidArgument,
                      "McOptions::minSamples %zu exceeds samples %zu",
                      opts.minSamples, opts.samples);
    }
    const std::size_t quorumFloor =
        opts.quorum > 0 ? opts.quorum : std::size_t{1};
    if (opts.sampleBudget > 0 && opts.sampleBudget < quorumFloor) {
        return errorf(ErrorCode::InvalidArgument,
                      "McOptions::sampleBudget %zu below the quorum "
                      "floor %zu (no clamped run could ever succeed)",
                      opts.sampleBudget, quorumFloor);
    }
    return Status::ok();
}

std::unique_ptr<Brng>
makeBrng(BrngKind kind, double drop_rate, std::uint64_t seed)
{
    switch (kind) {
      case BrngKind::Lfsr:
        return std::make_unique<LfsrBrng>(drop_rate, mixSeedTo32(seed));
      case BrngKind::Software:
        return std::make_unique<SoftwareBrng>(drop_rate,
                                              splitmix64(seed));
    }
    panic("unknown BrngKind %d", static_cast<int>(kind));
}

Expected<McResult>
tryRunMcDropout(const Network &net, const Tensor &input,
                const McOptions &opts)
{
    ForwardTarget target;
    target.forward = [&net](const Tensor &in, ForwardHooks *hooks) {
        return net.forward(in, hooks);
    };
    target.name = net.name();
    target.inputShape = net.inputShape();
    return tryRunMcDropoutWith(target, input, opts);
}

Expected<McResult>
tryRunMcDropoutWith(const ForwardTarget &target, const Tensor &input,
                    const McOptions &opts)
{
    FASTBCNN_RETURN_IF_ERROR(validateMcOptions(opts));
    if (!target.forward) {
        return errorf(ErrorCode::InvalidArgument,
                      "ForwardTarget '%s' has no forward function",
                      target.name.c_str());
    }
    if (target.rounds.length > 0 && !target.rounds.onRound) {
        return errorf(ErrorCode::InvalidArgument,
                      "ForwardTarget '%s' has a round length but no "
                      "round callback", target.name.c_str());
    }
    if (!(input.shape() == target.inputShape)) {
        return errorf(ErrorCode::InvalidArgument,
                      "input shape %s does not match network '%s' "
                      "input %s", input.shape().toString().c_str(),
                      target.name.c_str(),
                      target.inputShape.toString().c_str());
    }

    // Deadline support is the one sanctioned wall-clock read in the
    // MC path: it gates *whether* later samples launch, never what any
    // launched sample computes, so results stay bit-identical.
    // NOLINTNEXTLINE-FASTBCNN(determinism): deadline anchor
    const Clock::time_point start = Clock::now();
    const bool haveDeadline = opts.deadlineMs > 0.0;
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        opts.deadlineMs));

    McResult result;

    // Pre-inference: dropout off.  Its zero-neuron positions seed the
    // unaffected-neuron machinery downstream.  A non-finite output
    // here is a whole-run failure — every sample shares these
    // weights, so no quorum of samples could be healthy.
    result.preOutput = target.forward(input, nullptr);
    if (opts.sampleGuard) {
        const std::size_t bad = firstNonFinite(result.preOutput);
        if (bad != static_cast<std::size_t>(-1)) {
            return errorf(ErrorCode::NonFinite,
                          "pre-inference output non-finite at element "
                          "%zu (poisoned weights?)", bad);
        }
    }

    // The effective sample budget: the brownout clamp trades samples
    // in [budget, requested) away administratively — they are never
    // slotted, never launched, and never counted as failures.
    const std::size_t effectiveT =
        (opts.sampleBudget > 0 && opts.sampleBudget < opts.samples)
            ? opts.sampleBudget
            : opts.samples;

    // Every sample t owns slot t and a private BRNG seeded by
    // sampleSeed(seed, t): workers never share mutable state and the
    // result is identical for any thread count.  Failed samples leave
    // their slot's fate code set; survivors are compacted afterwards
    // in ascending sample order.
    std::vector<SampleSlot> slots(effectiveT);
    const auto expired = [&]() {
        // NOLINTNEXTLINE-FASTBCNN(determinism): deadline check
        return haveDeadline && Clock::now() >= deadline;
    };
    const auto markSkipped = [&](SampleSlot &slot) {
        slot.code = ErrorCode::DeadlineExceeded;
        slot.reason = format("not launched: %.3f ms deadline expired",
                             opts.deadlineMs);
    };

    // Produce samples [lo, hi), serially or on the worker pool.
    const auto runBlock = [&](std::size_t lo, std::size_t hi) {
        const std::size_t workers =
            resolveMcThreads(opts.threads, hi - lo);
        if (workers <= 1) {
            for (std::size_t t = lo; t < hi; ++t) {
                // Sample 0 always launches: a partial average needs
                // at least one term no matter how tight the deadline.
                if (t > 0 && expired()) {
                    markSkipped(slots[t]);
                    continue;
                }
                runGuardedSample(target, input, opts, t, slots[t]);
            }
        } else {
            std::atomic<std::size_t> next{lo};
            std::vector<std::thread> pool;
            pool.reserve(workers);
            for (std::size_t w = 0; w < workers; ++w) {
                pool.emplace_back([&, hi]() {
                    for (std::size_t t = next.fetch_add(1); t < hi;
                         t = next.fetch_add(1)) {
                        if (t > 0 && expired()) {
                            markSkipped(slots[t]);
                            continue;
                        }
                        runGuardedSample(target, input, opts, t,
                                         slots[t]);
                    }
                });
            }
            for (std::thread &worker : pool)
                worker.join();
        }
    };

    result.census.requested = opts.samples;
    result.census.budget = effectiveT;

    // How many samples were actually launched (or deadline-marked):
    // the compaction below only walks [0, launched), so samples the
    // adaptive exit never reached leave no trace in the census.
    std::size_t launched = 0;
    // Samples already handed to the round observer: [0, observed).
    std::size_t observed = 0;
    const auto endRound = [&]() {
        std::vector<bool> survived;
        survived.reserve(launched - observed);
        for (std::size_t t = observed; t < launched; ++t)
            survived.push_back(slots[t].code == ErrorCode::Ok);
        target.rounds.onRound(observed, survived);
        observed = launched;
    };

    // Adaptive early exit evaluates the CI-width criterion over the
    // survivors at fixed sample-count checkpoints.  Checkpoint counts
    // and the criterion are pure functions of the options and the
    // sample outputs — bit-identical across thread counts and SIMD
    // levels (see bayes/adaptive.hpp).  Without it the only
    // "checkpoint" is the end of the run.
    const bool adaptive = opts.targetCiWidth > 0.0;
    const std::size_t round = target.rounds.length;
    std::size_t needed = 0;
    std::size_t checkpoint = effectiveT;
    if (adaptive) {
        const std::size_t minFloor =
            opts.minSamples < effectiveT ? opts.minSamples
                                         : effectiveT;
        needed = firstConvergenceCheckpoint(minFloor, opts.quorum);
        checkpoint = needed < effectiveT ? needed : effectiveT;
    }
    std::vector<const Tensor *> survivors;
    // Blocks end at the union of round boundaries and checkpoints, so
    // a run with neither is exactly one block [0, effectiveT).
    while (launched < effectiveT) {
        std::size_t end = checkpoint;
        if (round > 0 && observed + round < end)
            end = observed + round;
        runBlock(launched, end);
        launched = end;
        if (round > 0 && launched == observed + round)
            endRound();
        if (launched < checkpoint || !adaptive)
            continue;
        survivors.clear();
        for (std::size_t t = 0; t < launched; ++t) {
            if (slots[t].code == ErrorCode::Ok)
                survivors.push_back(&slots[t].output);
        }
        // Casualties push the evaluation out: the criterion needs the
        // same floor in *survivors* that the first checkpoint
        // guarantees in launches, or a lucky tight pair could stop a
        // run below its minSamples/quorum floor.
        if (survivors.size() >= needed) {
            const double width = predictiveCiWidth(survivors);
            result.census.ciWidth = width;
            if (width <= opts.targetCiWidth) {
                result.census.converged = true;
                result.census.convergedAt = launched;
                break;
            }
        }
        if (launched < effectiveT)
            checkpoint = nextConvergenceCheckpoint(launched, effectiveT);
    }
    if (round > 0 && observed < launched)
        endRound();

    // Compact survivors and build the census, both in sample order.
    for (std::size_t t = 0; t < launched; ++t) {
        SampleSlot &slot = slots[t];
        if (slot.code == ErrorCode::Ok) {
            result.outputs.push_back(std::move(slot.output));
            if (opts.recordMasks)
                result.masks.push_back(std::move(slot.masks));
            result.sampleIndices.push_back(t);
        } else {
            result.census.failures.push_back(
                SampleFailure{t, slot.code, std::move(slot.reason)});
        }
    }
    result.census.survived = result.outputs.size();
    // Degradation means something *died*: converged-early and
    // budget-clamped samples were traded away on purpose and leave no
    // failure record, so survived < requested alone is not degraded.
    result.census.degraded = !result.census.failures.empty();

    const std::size_t quorum =
        opts.quorum > 0 ? opts.quorum : std::size_t{1};
    if (result.census.survived < quorum) {
        // A quorum starved by the deadline is a deadline failure: the
        // samples were healthy, the budget simply ran out before
        // enough of them could launch.  Callers (the serving layer)
        // key retry/shed policy off this distinction.
        bool deadlineStarved = false;
        for (const SampleFailure &f : result.census.failures) {
            if (f.code == ErrorCode::DeadlineExceeded) {
                deadlineStarved = true;
                break;
            }
        }
        return errorf(deadlineStarved ? ErrorCode::DeadlineExceeded
                                      : ErrorCode::QuorumNotMet,
                      "only %zu of %zu MC samples survived "
                      "(quorum %zu)%s", result.census.survived,
                      result.census.requested, quorum,
                      deadlineStarved
                          ? " after the deadline stopped launches"
                          : "");
    }

    result.summary = summarizeSamples(result.outputs);
    return result;
}

} // namespace fastbcnn
