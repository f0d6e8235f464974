/**
 * @file
 * FastBcnnEngine — the library's front door.
 *
 * Wraps a Bayesian CNN with the complete Fast-BCNN pipeline: offline
 * threshold calibration (Algorithm 1), the pre-inference, T skipping
 * sample inferences, uncertainty estimation, and cycle/energy
 * simulation of the chosen accelerator configuration against the
 * skip-oblivious baseline.
 */

#ifndef FASTBCNN_CORE_ENGINE_HPP
#define FASTBCNN_CORE_ENGINE_HPP

#include <memory>
#include <optional>

#include "common/error.hpp"
#include "guard/guarded_runner.hpp"
#include "quant/quantize.hpp"
#include "sim/accelerator.hpp"

namespace fastbcnn {

/** Engine construction options. */
struct EngineOptions {
    /** MC-dropout sampling (T, p, BRNG, seed). */
    McOptions mc;
    /** Algorithm 1 parameters (p_cf, Th, Δs, tuning samples). */
    OptimizerOptions optimizer;
    /** Accelerator design point to simulate. */
    AcceleratorConfig config = fastBcnnConfig(64);
    /** Timing-model options (skip mode, sync model, shortcut). */
    SimOptions sim;
    /**
     * Runtime skip guardrails (off by default).  When enabled,
     * calibrate() constructs a SkipGuard over the tuned thresholds; a
     * tolerance of 0 resolves to 1 − p_cf, the mispredict budget the
     * thresholds were calibrated against.
     */
    GuardOptions guard;
};

/**
 * Validate every sub-option block of @p opts at the engine boundary.
 * @return ok, or the first InvalidArgument error, with context naming
 * the offending block (mc / optimizer / config).
 */
[[nodiscard]] Status validateEngineOptions(const EngineOptions &opts);

/** The outcome of one engine inference. */
struct EngineResult {
    /** Fast-BCNN functional prediction (with neuron skipping). */
    UncertaintySummary prediction;
    /** Exact MC-dropout reference on the same masks. */
    UncertaintySummary exactReference;
    /** True iff skipping left the argmax class unchanged. */
    bool argmaxAgrees = false;
    /** Timing/energy of the configured Fast-BCNN design. */
    SimReport fastBcnn;
    /** Timing/energy of the baseline on the same workload. */
    SimReport baseline;
    /** Neuron census of the run (Fig. 3/4 statistics). */
    std::vector<BlockCensus> census;
    /** fastBcnn vs baseline speedup. */
    double speedup = 0.0;
    /** fastBcnn vs baseline fractional energy reduction. */
    double energyReduction = 0.0;
};

/**
 * The Fast-BCNN execution engine.
 *
 * Non-copyable and non-movable: internal analyses hold pointers into
 * the owned network.
 */
class FastBcnnEngine
{
  public:
    /**
     * @param net  a BCNN (dropout after every conv); ownership moves in
     * @param opts engine configuration (must validate; see create()
     *             for the error-returning construction path)
     */
    explicit FastBcnnEngine(Network net, EngineOptions opts = {});

    FastBcnnEngine(const FastBcnnEngine &) = delete;
    FastBcnnEngine &operator=(const FastBcnnEngine &) = delete;

    /**
     * Error-returning construction: validates @p opts (and that the
     * network is non-trivial) before building, so a serving process
     * can reject a bad configuration instead of dying in the
     * constructor.
     */
    [[nodiscard]] static Expected<std::unique_ptr<FastBcnnEngine>> create(
        Network net, EngineOptions opts = {});

    /**
     * Offline stage: run Algorithm 1 on a calibration set.  Must be
     * called once before infer(); calling infer() first triggers an
     * automatic single-input self-calibration with a warning.
     */
    void calibrate(const std::vector<Tensor> &calibration_inputs);

    /**
     * Error-returning calibrate(): rejects an empty set or inputs of
     * the wrong shape instead of terminating.
     */
    [[nodiscard]] Status tryCalibrate(
        const std::vector<Tensor> &calibration_inputs);

    /** @return true once thresholds have been calibrated. */
    bool calibrated() const { return thresholds_.has_value(); }

    /**
     * Build the engine's int8 mirror: calibrate per-layer activation
     * ranges on @p calibration_inputs and quantize the owned network
     * (src/quant).  Called automatically by calibrate() when
     * EngineOptions::mc.precision is Int8; callable directly to add
     * int8 capability to a float-default engine.  On error the engine
     * keeps its previous quantized model (if any).
     */
    [[nodiscard]] Status tryQuantize(
        const std::vector<Tensor> &calibration_inputs);

    /**
     * Adopt quantized parameters from checkpointed QuantRecords
     * (validated against the owned network's topology) — the load
     * path mirror of tryQuantize(), used when a binary checkpoint
     * already carries a quantized-weights section.
     */
    [[nodiscard]] Status tryAdoptQuantRecords(
        const std::vector<QuantRecord> &records);

    /** @return true when an int8 mirror is ready to serve. */
    bool int8Available() const { return quantNet_ != nullptr; }

    /** @return the int8 mirror, or nullptr before tryQuantize(). */
    const quant::QuantizedNetwork *quantized() const
    {
        return quantNet_.get();
    }

    /** Run the full pipeline on one input. */
    EngineResult infer(const Tensor &input);

    /**
     * Error-returning infer(): rejects a wrong-shape input and an
     * uncalibrated engine (no silent self-calibration) instead of
     * warning / terminating.
     */
    [[nodiscard]] Expected<EngineResult> tryInfer(const Tensor &input);

    /**
     * Fault-isolating exact MC-dropout reference on the owned
     * network, using the engine's McOptions (including any FaultPlan,
     * quorum and deadline).  This is the serving-path entry point the
     * degradation census flows from; copy McResult::census into a
     * SimReport::degradation to report it beside timing results.
     */
    [[nodiscard]] Expected<McResult> tryMcReference(
        const Tensor &input) const;

    /**
     * Per-request overload: run the MC reference with caller-supplied
     * @p mc options instead of the engine defaults.  This is the
     * serving-path hook — the serve worker merges a request's
     * overrides (T, quorum, remaining deadline budget, fault plan)
     * into the replica's defaults and dispatches here, so one
     * calibrated engine replica can serve requests with heterogeneous
     * sampling policies.
     */
    [[nodiscard]] Expected<McResult> tryMcReference(
        const Tensor &input, const McOptions &mc) const;

    /**
     * Deterministic health-gate digest: the predictive mean of a
     * serial, fault-free, deadline-free MC reference on @p input with
     * exactly @p samples samples and @p seed.  Two replicas built
     * from the same checkpoint produce bit-identical digests, so the
     * model registry compares a candidate version's digest against a
     * recorded reference before swapping it live.
     */
    [[nodiscard]] Expected<std::vector<double>> tryReferenceDigest(
        const Tensor &input, std::size_t samples,
        std::uint64_t seed) const;

    /**
     * Skip-mode MC inference (EngineOptions::guard must be enabled and
     * the engine calibrated): samples run in prediction mode under the
     * guard's effective thresholds with shadow auditing, on the MC
     * runner with the engine's McOptions (quorum, faults, deadline and
     * adaptive exit included); backoff levels persist across calls on
     * the engine's guard.  Always float (see tryRunGuardedPredictive).
     */
    [[nodiscard]] Expected<GuardedMcResult> tryGuardedMc(
        const Tensor &input) const;

    /** Per-request overload with caller-supplied sampling options. */
    [[nodiscard]] Expected<GuardedMcResult> tryGuardedMc(
        const Tensor &input, const McOptions &opts) const;

    /**
     * @return the engine's skip guard, or nullptr before calibration
     * or when EngineOptions::guard is disabled.
     */
    SkipGuard *guard() { return guard_.get(); }
    /** Const overload (snapshot access). */
    const SkipGuard *guard() const { return guard_.get(); }

    /**
     * Build (and return) the raw trace bundle of one input — the
     * benches use this to evaluate many accelerator configurations on
     * one captured workload.
     */
    TraceBundle trace(const Tensor &input,
                      std::optional<TraceOptions> opts = std::nullopt);

    /** @return the per-kernel thresholds (fatal before calibrate()). */
    const ThresholdSet &thresholds() const;

    /** @return the analysed topology. */
    const BcnnTopology &topology() const { return topo_; }

    /** @return the owned network. */
    const Network &network() const { return net_; }

    /** @return the engine options. */
    const EngineOptions &options() const { return opts_; }

    /** @return the Algorithm 1 per-block tuning reports. */
    const std::vector<BlockTuneReport> &tuneReports() const
    {
        return tuneReports_;
    }

  private:
    /** Algorithm 1 + guard construction (shared calibration body). */
    [[nodiscard]] Status calibrateThresholds(
        const std::vector<Tensor> &calibration_inputs);

    Network net_;
    EngineOptions opts_;
    BcnnTopology topo_;
    IndicatorSet indicators_;
    std::optional<ThresholdSet> thresholds_;
    std::vector<BlockTuneReport> tuneReports_;
    /** Constructed by calibrate() when EngineOptions::guard.enabled. */
    std::unique_ptr<SkipGuard> guard_;
    /** Int8 mirror; built by tryQuantize() / tryAdoptQuantRecords(). */
    std::unique_ptr<quant::QuantizedNetwork> quantNet_;
};

} // namespace fastbcnn

#endif // FASTBCNN_CORE_ENGINE_HPP
