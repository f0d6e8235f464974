/**
 * @file
 * Trace-driven simulation interface (DESIGN.md §5).
 *
 * Phase 1 (here): run the exact functional BCNN MC-dropout inference
 * once and record, per sample and per conv block, everything any of
 * the timing models needs — per-channel dropped / predicted / skipped
 * neuron counts, Cnvlutin-style nonzero-input work, and the neuron
 * census behind Fig. 3/4.  Phase 2 (src/sim) replays these traces
 * under different accelerator configurations without recomputing any
 * numerics.
 */

#ifndef FASTBCNN_TRACE_TRACE_HPP
#define FASTBCNN_TRACE_TRACE_HPP

#include <array>
#include <string>
#include <vector>

#include "skip/threshold_optimizer.hpp"

namespace fastbcnn {

/** The T_n values the Cnvlutin work sums are precomputed for. */
inline constexpr std::array<std::size_t, 4> traceTnValues{4, 8, 16, 32};

/** Static geometry of one conv block (identical across samples). */
struct BlockInfo {
    std::size_t index = 0;        ///< block order
    NodeId conv = 0;              ///< conv node id in the network
    std::string name;             ///< conv layer name
    std::size_t inChannels = 0;   ///< N
    std::size_t outChannels = 0;  ///< M
    std::size_t kernel = 0;       ///< K
    std::size_t stride = 0;
    std::size_t padding = 0;
    std::size_t outH = 0;         ///< R
    std::size_t outW = 0;         ///< C
    std::uint64_t zeroPre = 0;    ///< pre-inference zero neurons
    /** @return neurons per output channel (R·C). */
    std::size_t plane() const { return outH * outW; }
    /** @return total neurons (M·R·C). */
    std::uint64_t neurons() const
    {
        return static_cast<std::uint64_t>(outChannels) * plane();
    }
    /** @return MACs of one dense neuron (K²·N). */
    std::uint64_t macsPerNeuron() const
    {
        return static_cast<std::uint64_t>(kernel) * kernel * inChannels;
    }
};

/** Per-sample, per-block dynamic skip/census data. */
struct BlockSampleTrace {
    /** Dropped output neurons per channel (dropout bit = 1). */
    std::vector<std::uint32_t> dropped;
    /** Predicted-unaffected neurons per channel. */
    std::vector<std::uint32_t> predicted;
    /** |dropped ∪ predicted| per channel (the skip engine's view). */
    std::vector<std::uint32_t> skipped;
    /**
     * Cnvlutin cycles per output channel: Σ over the channel's
     * neurons of the *slowest synapse lane's* nonzero count, where the
     * T_n lanes each own a contiguous slice of the input channels —
     * the real Cnvlutin bottleneck.  One value per T_n in
     * traceTnValues; identical for every output channel of a block
     * (windows are channel-independent), so one copy is stored.
     */
    std::array<std::uint64_t, 4> cnvLaneCyclesPerChannel{};
    /**
     * Cnvlutin multiplications per output channel: Σ over windows of
     * the window's nonzero-input count (T_n-independent).
     */
    std::uint64_t cnvMacsPerChannel = 0;
    /** Census: zero-pre neurons still zero in this sample's output. */
    std::uint64_t actualUnaffected = 0;
    /** Census: predicted neurons that are truly zero (correct). */
    std::uint64_t correctPredictions = 0;
    /** Census: predicted neurons that are non-zero (mispredicted). */
    std::uint64_t falsePredictions = 0;

    /** @return total dropped neurons in the block. */
    std::uint64_t totalDropped() const;
    /** @return total predicted neurons in the block. */
    std::uint64_t totalPredicted() const;
    /** @return total skipped neurons in the block. */
    std::uint64_t totalSkipped() const;
};

/** All blocks of one sample inference. */
struct SampleTrace {
    std::vector<BlockSampleTrace> blocks;
};

/** A complete captured MC-dropout run of one input. */
struct InferenceTrace {
    std::string model;            ///< network name
    std::size_t samples = 0;      ///< T
    double dropRate = 0.0;        ///< p
    std::vector<BlockInfo> blocks;
    std::vector<SampleTrace> perSample;  ///< size T
};

/** Functional outcomes used for accuracy-loss measurements. */
struct FunctionalOutcome {
    Tensor exactMean;   ///< exact MC-dropout mean output (Eq. 4)
    Tensor fbMean;      ///< Fast-BCNN (prediction mode) mean output
    std::size_t exactArgmax = 0;
    std::size_t fbArgmax = 0;
    UncertaintySummary exactSummary;
    UncertaintySummary fbSummary;
    /**
     * MC-noise floor: true when the argmax of the first half of the
     * exact samples disagrees with the second half's.  Skipping-induced
     * argmax flips below this floor are estimator noise, not accuracy
     * loss.
     */
    bool exactSplitDisagree = false;
};

/** Trace construction options. */
struct TraceOptions {
    std::size_t samples = 50;
    double dropRate = 0.3;
    BrngKind brng = BrngKind::Lfsr;
    std::uint64_t seed = 1;
    /** Also run the predictive cascade to capture functional outputs
     *  (needed for accuracy); the census then reads its prediction
     *  bits from the cascade, so Eq. 5 runs once per (sample, block)
     *  either way. */
    bool captureFunctional = true;
};

/** The trace plus the functional outcome of one input. */
struct TraceBundle {
    InferenceTrace trace;
    FunctionalOutcome functional;  ///< valid when captureFunctional
};

/**
 * Build the trace of one input under a fixed threshold set.  Every
 * sample's census and predictive cascade use @p thresholds as given:
 * a trace never reads or feeds a SkipGuard (only the skip-mode runner,
 * tryRunGuardedPredictive, does), so equal inputs and options give
 * equal traces.
 *
 * @param topo       analysed BCNN
 * @param indicators weight-sign indicators
 * @param thresholds per-kernel α (from tryOptimizeThresholds)
 * @param input      the image
 * @param opts       sampling configuration
 */
TraceBundle buildTrace(const BcnnTopology &topo,
                       const IndicatorSet &indicators,
                       const ThresholdSet &thresholds,
                       const Tensor &input, const TraceOptions &opts);

/** Aggregated neuron census of one block (Fig. 3/4 statistics). */
struct BlockCensus {
    std::string name;
    std::uint64_t neurons = 0;          ///< per sample
    double zeroRatio = 0.0;             ///< zero-pre / neurons
    double unaffectedRatio = 0.0;       ///< actually-unaffected mean
    double affectedRatio = 0.0;         ///< zero-pre minus unaffected
    double unaffectedOfZero = 0.0;      ///< unaffected / zero-pre
    double droppedRatio = 0.0;          ///< dropout bits
    double predictedRatio = 0.0;        ///< predicted-unaffected
    double skipRatio = 0.0;             ///< |dropped ∪ predicted|
    double predictionAccuracy = 0.0;    ///< correct / predicted
};

/** Compute the per-block census averaged over a trace's samples. */
std::vector<BlockCensus> censusOf(const InferenceTrace &trace);

} // namespace fastbcnn

#endif // FASTBCNN_TRACE_TRACE_HPP
