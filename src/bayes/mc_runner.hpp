/**
 * @file
 * Monte-Carlo dropout inference driver (Section II-B): T stochastic
 * forward passes over one input and nothing else, producing the
 * averaged prediction, uncertainty statistics and the recorded masks.
 * Only skip mode needs a non-dropout pre-inference (for its zero
 * maps); it runs that itself (guard/guarded_runner.hpp).
 *
 * The runner is fault-isolating: every sample executes under a guard
 * that catches injected faults (FaultPlan), natural non-finite
 * outputs, and thrown errors, drops the casualty, and degrades the
 * estimate to the T' survivors — each MC sample is an independent
 * lane, exactly as in the FPGA BNN accelerators the design mirrors,
 * and a posterior mean over T' < T Bernoulli-dropout samples is still
 * a valid (wider-variance) estimate.
 */

#ifndef FASTBCNN_BAYES_MC_RUNNER_HPP
#define FASTBCNN_BAYES_MC_RUNNER_HPP

#include <cstdint>
#include <functional>

#include "fault/fault.hpp"
#include "hooks.hpp"
#include "nn/network.hpp"
#include "quant/precision.hpp"
#include "uncertainty.hpp"

namespace fastbcnn {

/** Which Bernoulli generator drives the dropout bits. */
enum class BrngKind {
    Lfsr,     ///< the hardware 8-LFSR design (Section V-B3)
    Software  ///< std::mt19937 reference
};

/** Hard ceiling on McOptions::threads (suspicious beyond this). */
inline constexpr std::size_t kMaxMcThreads = 4096;

/** Options for one MC-dropout run. */
struct McOptions {
    std::size_t samples = 50;      ///< T, the paper's default
    double dropRate = 0.3;         ///< p, the paper's default
    BrngKind brng = BrngKind::Lfsr;
    std::uint64_t seed = 1;        ///< RNG seed (deterministic runs)
    bool recordMasks = true;       ///< keep per-sample MaskSets

    /**
     * Worker threads running samples concurrently; 1 = serial, 0 =
     * one per hardware thread.  Every sample draws its masks from a
     * private BRNG seeded by sampleSeed(seed, t) and lands at index t
     * of McResult::outputs / masks, so the result — summary included —
     * is bit-identical for every thread count.  This mirrors the
     * per-sample parallelism of the FPGA BNN accelerators (Fan et al.),
     * where the T MC passes map onto independent compute lanes.
     */
    std::size_t threads = 1;

    /**
     * Minimum surviving samples T' for the run to count as usable;
     * fewer survivors fail the whole run with ErrorCode::QuorumNotMet
     * — or ErrorCode::NonFinite when none survived and every casualty
     * was non-finite (poisoned weights), or ErrorCode::DeadlineExceeded
     * when the quorum was starved by the deadline stopping launches
     * (the samples themselves were healthy; the budget ran out).  0
     * means "any", but at least one survivor is always required (an
     * average over zero samples is meaningless).
     */
    std::size_t quorum = 0;

    /**
     * Wall-clock budget in milliseconds; 0 disables.  Once the budget
     * is spent the runner stops *launching* samples (in-flight ones
     * finish), records the never-launched ones as DeadlineExceeded in
     * the census, and returns the partial average.  Sample 0 is
     * always launched, so a quorum of <= 1 cannot be starved by the
     * deadline alone.  Note this knob is inherently wall-clock
     * dependent: results with a deadline are NOT reproducible across
     * machines or runs.
     */
    double deadlineMs = 0.0;

    /**
     * Adaptive early exit ("enough Monte Carlo"; bayes/adaptive.hpp):
     * when > 0, the runner evaluates the predictive-mean 95 %
     * confidence-interval width at fixed sample-count checkpoints and
     * stops launching samples once it falls to this target.  The stop
     * decision is a pure function of the sample outputs, so adaptive
     * runs stay bit-identical across thread counts and SIMD levels.
     * 0 disables (every run uses the full budget).
     */
    double targetCiWidth = 0.0;

    /**
     * Floor on the samples produced before adaptive early exit may
     * stop the run (the criterion additionally needs >= 2 survivors
     * and never stops below quorum).  Ignored when targetCiWidth is
     * 0.  Clamped to the effective budget.
     */
    std::size_t minSamples = 0;

    /**
     * Hard clamp on the samples this run may launch: the effective
     * budget is min(samples, sampleBudget) when > 0.  This is the
     * serving brownout's lever — a controller trades samples for
     * deadline headroom per priority class without touching the
     * configured T.  Clamped-away samples are reported in the census
     * (budget < requested) but are neither failures nor degradation.
     * Must be >= quorum when both are set.  0 disables.
     */
    std::size_t sampleBudget = 0;

    /**
     * Fault-injection plan (not owned; may be nullptr).  Must outlive
     * the run.  See fault/fault.hpp for the plan format.
     */
    const FaultPlan *faults = nullptr;

    /**
     * Numeric path for the forward passes.  The runner itself is
     * precision-agnostic (it drives whatever ForwardTarget it is
     * handed); this knob is consumed by the engine layer, which picks
     * the float network or its int8 mirror before calling the runner,
     * and by the serving layer's per-request override plumbing.
     */
    Precision precision = Precision::Float32;
};

/**
 * One MC sample's forward pass: the float Network, its int8
 * QuantizedNetwork mirror, or anything else that maps (input, hooks)
 * to an output tensor.  The runner calls it exactly once per launched
 * sample t, always with non-null hooks that supply sample t's dropout
 * masks and report t through ForwardHooks::sample().  Must be
 * thread-safe for concurrent calls — every MC sample may run on a
 * different worker.
 */
using ForwardFn = std::function<Tensor(const Tensor &, ForwardHooks *)>;

/**
 * Optional per-run observer of fixed-length sample rounds.  The runner
 * ends a block of samples at every multiple of @c length and, on its
 * own thread, once the round's samples have finished and before any
 * later sample launches, calls onRound(first, survived): samples
 * [first, first + survived.size()) are final and survived[i] tells
 * whether sample first + i survived (false for failed and never
 * launched ones).  It fires again at run end for a partial last round.
 * Skip mode's guard folds its audits and re-freezes its thresholds
 * here (guard/guarded_runner.hpp).
 */
struct SampleRounds {
    std::size_t length = 0;  ///< samples per round; 0 = no observer
    /** Required when length > 0. */
    std::function<void(std::size_t first,
                       const std::vector<bool> &survived)>
        onRound;
};

/** The subject of an MC run when driving a ForwardFn directly. */
struct ForwardTarget {
    ForwardFn forward;    ///< the forward pass (required, non-empty)
    std::string name;     ///< model name for error messages
    Shape inputShape;     ///< validated against the run's input
    SampleRounds rounds;  ///< optional round observer
};

/**
 * Validate @p opts at the API boundary.
 * @return ok, or an InvalidArgument error naming the bad value.
 */
[[nodiscard]] Status validateMcOptions(const McOptions &opts);

/**
 * Validate @p opts, @p target and @p input's shape, as
 * tryRunMcDropoutWith() does first.
 * @return ok, or an InvalidArgument error naming the bad value.
 */
[[nodiscard]] Status validateMcRun(const ForwardTarget &target,
                                   const Tensor &input,
                                   const McOptions &opts);

/** The outcome of one MC-dropout run. */
struct McResult {
    /**
     * Surviving per-sample outputs in ascending sample order.  With
     * no failures this is exactly the T requested samples; after
     * casualties it holds the T' survivors (sampleIndices maps each
     * entry back to its original sample index).
     */
    std::vector<Tensor> outputs;
    std::vector<MaskSet> masks;    ///< per-survivor masks (recorded)
    std::vector<std::size_t> sampleIndices;  ///< outputs[i] ran as t
    UncertaintySummary summary;    ///< Eq. 4 average over survivors
    DegradationCensus census;      ///< requested/survived/casualties

    /** @return true when fewer than the requested samples survived. */
    bool degraded() const { return census.degraded; }
};

/**
 * Construct the requested Brng implementation.  The 64-bit seed is
 * mixed with a splitmix64 finalizer before any narrowing, so distinct
 * seeds yield distinct generator states (no truncation collisions, no
 * silent trip through the Lfsr32 zero-seed fallback).
 */
std::unique_ptr<Brng> makeBrng(BrngKind kind, double drop_rate,
                               std::uint64_t seed);

/**
 * Run a complete MC-dropout inference: @p opts.samples stochastic
 * samples, serially or on @p opts.threads workers (deterministic
 * either way; see McOptions), each under the per-sample guard.
 *
 * Errors (never aborts): invalid options, input shape mismatch, or
 * fewer survivors than the quorum (see McOptions::quorum for the
 * code).  Per-sample failures degrade the result instead (see
 * McResult::census).
 *
 * @param net   a BCNN (dropout after every conv; see BcnnTopology)
 * @param input input tensor matching the network input shape
 * @param opts  sampling configuration
 */
[[nodiscard]] Expected<McResult> tryRunMcDropout(
    const Network &net, const Tensor &input, const McOptions &opts);

/**
 * Generalised MC-dropout run over an arbitrary forward pass.  Same
 * semantics, guards and determinism contract as tryRunMcDropout() —
 * that overload is a thin wrapper handing the Network's forward here.
 * The int8 engine hands its QuantizedNetwork mirror instead, and skip
 * mode a prediction-mode target with a round observer, so every MC
 * run shares one scheduler, guard and census implementation.  This is
 * the only code that launches MC sample threads.
 */
[[nodiscard]] Expected<McResult> tryRunMcDropoutWith(
    const ForwardTarget &target, const Tensor &input,
    const McOptions &opts);

} // namespace fastbcnn

#endif // FASTBCNN_BAYES_MC_RUNNER_HPP
