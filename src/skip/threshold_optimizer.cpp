#include "threshold_optimizer.hpp"

#include <algorithm>

#include "common/math_util.hpp"

namespace fastbcnn {

namespace {

/** Central-predictor counter width: counts clamp to 10 bits. */
constexpr std::size_t counterCeiling = 1 << 10;

/** Per-(input, sample) evaluation state for the lockstep cascade. */
struct SampleState {
    std::size_t inputIdx = 0;
    MaskSet masks;
    std::vector<Tensor> trueOutputs;  ///< exact dropout inference
    std::vector<Tensor> cascOutputs;  ///< prediction-mode cascade
};

} // namespace

Status
validateOptimizerOptions(const OptimizerOptions &opts)
{
    if (opts.initialThreshold <= 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "OptimizerOptions::initialThreshold Th must be "
                      "positive (got %d)", opts.initialThreshold);
    }
    if (opts.step <= 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "OptimizerOptions::step Δs must be positive "
                      "(got %d)", opts.step);
    }
    if (!(opts.confidence > 0.0 && opts.confidence <= 1.0)) {
        return errorf(ErrorCode::InvalidArgument,
                      "OptimizerOptions::confidence p_cf %g outside "
                      "(0, 1]", opts.confidence);
    }
    if (opts.samples == 0) {
        return errorf(ErrorCode::InvalidArgument,
                      "OptimizerOptions::samples: need at least one "
                      "tuning sample (got 0)");
    }
    if (!(opts.dropRate >= 0.0 && opts.dropRate < 1.0)) {
        return errorf(ErrorCode::InvalidArgument,
                      "OptimizerOptions::dropRate %g outside [0, 1)",
                      opts.dropRate);
    }
    if (!(opts.tolerance >= 0.0f)) {
        return errorf(ErrorCode::InvalidArgument,
                      "OptimizerOptions::tolerance %g must be >= 0 "
                      "and finite",
                      static_cast<double>(opts.tolerance));
    }
    return Status::ok();
}

Expected<OptimizeResult>
tryOptimizeThresholds(const BcnnTopology &topo,
                      const IndicatorSet &indicators,
                      const std::vector<Tensor> &dataset,
                      const OptimizerOptions &opts)
{
    if (dataset.empty()) {
        return errorf(ErrorCode::InvalidArgument,
                      "threshold optimization needs at least one "
                      "input: an empty tuning set would leave every "
                      "alpha at Th (degenerate prediction)");
    }
    FASTBCNN_RETURN_IF_ERROR(validateOptimizerOptions(opts));

    const Network &net = topo.network();
    const int th0 = static_cast<int>(
        std::min<std::size_t>(
            static_cast<std::size_t>(std::max(opts.initialThreshold, 1)),
            counterCeiling));

    // Preparation (Algorithm 1 lines 1-5): zero maps per input; the
    // indicator bits arrive pre-profiled.
    std::vector<ZeroMaps> zero_maps;
    zero_maps.reserve(dataset.size());
    for (const Tensor &input : dataset)
        zero_maps.push_back(computeZeroMaps(topo, input));

    // Phase A: exact dropout inferences ("Inference", line 13) — one
    // pass per (input, sample) recording masks and node outputs.
    auto brng = makeBrng(opts.brng, opts.dropRate, opts.seed);
    std::vector<SampleState> states;
    states.reserve(dataset.size() * opts.samples);
    for (std::size_t d = 0; d < dataset.size(); ++d) {
        for (std::size_t t = 0; t < opts.samples; ++t) {
            SampleState st;
            st.inputIdx = d;
            st.trueOutputs.resize(net.size());
            SamplingHooks hooks(*brng);
            for (NodeId id = 0; id < net.size(); ++id) {
                st.trueOutputs[id] = net.forwardNode(
                    id, dataset[d], st.trueOutputs, &hooks);
            }
            st.masks = hooks.takeMasks();
            st.cascOutputs.resize(net.size());
            states.push_back(std::move(st));
        }
    }

    // Optimization (lines 7-23), evaluated as a lockstep cascade: every
    // node is computed exactly once per sample; when a conv block is
    // reached its kernels' α are frozen from N_d histograms, then its
    // prediction is applied so downstream nodes see the cascade.
    OptimizeResult result;
    result.thresholds = ThresholdSet(topo, th0);

    for (NodeId id = 0; id < net.size(); ++id) {
        for (SampleState &st : states) {
            ReplayHooks replay(st.masks);
            st.cascOutputs[id] = net.forwardNode(
                id, dataset[st.inputIdx], st.cascOutputs, &replay);
        }
        if (net.layer(id).kind() != LayerKind::Conv2d)
            continue;

        const ConvBlock &block = topo.blockOfConv(id);
        const auto &conv = static_cast<const Conv2d &>(net.layer(id));
        const std::size_t m_total = conv.outChannels();
        const std::size_t plane = block.outShape.dim(1) *
                                  block.outShape.dim(2);

        // Histograms over zero-pre neurons, bucketed by N_d, plus the
        // α-independent correctness of everything else.
        std::vector<std::vector<std::uint64_t>> pred_ok(
            m_total, std::vector<std::uint64_t>(counterCeiling, 0));
        std::vector<std::vector<std::uint64_t>> base_ok(
            m_total, std::vector<std::uint64_t>(counterCeiling, 0));
        std::vector<std::uint64_t> fixed_ok(m_total, 0);

        for (SampleState &st : states) {
            const BitVolume in_mask =
                effectiveInputMask(topo, id, st.masks);
            const CountVolume counts = countDroppedNwInputs(
                conv, in_mask, indicators.of(id));
            const BitVolume &zeros = zero_maps[st.inputIdx].at(id);
            const Tensor &o_true = st.trueOutputs[id];
            const Tensor &o_base = st.cascOutputs[id];
            for (std::size_t m = 0; m < m_total; ++m) {
                for (std::size_t i = 0; i < plane; ++i) {
                    const std::size_t flat = m * plane + i;
                    const float tv = std::max(o_true.at(flat), 0.0f);
                    const float bv = std::max(o_base.at(flat), 0.0f);
                    // A predicted neuron is forced to zero, so it is
                    // correct exactly when the true value is zero.
                    const bool p_ok = tv == 0.0f;
                    const bool b_ok =
                        opts.metric == PredictMetric::PatternMatch
                            ? (bv == 0.0f) == (tv == 0.0f)
                            : nearlyEqual(bv, tv, opts.tolerance);
                    if (zeros.getFlat(flat)) {
                        const std::size_t v = std::min<std::size_t>(
                            counts.atFlat(flat), counterCeiling - 1);
                        pred_ok[m][v] += p_ok ? 1 : 0;
                        base_ok[m][v] += b_ok ? 1 : 0;
                    } else {
                        fixed_ok[m] += b_ok ? 1 : 0;
                    }
                }
            }
        }

        // Inner while-loop of Algorithm 1: α decreases from Th by Δs
        // until the confidence level is met.
        const std::uint64_t total_per_kernel =
            static_cast<std::uint64_t>(plane) * states.size();
        const double target = opts.confidence *
                              static_cast<double>(total_per_kernel);
        BlockTuneReport report;
        report.conv = id;
        report.achievedConfidence = 1.0;
        report.evaluatedNeurons = total_per_kernel * m_total;
        double alpha_sum = 0.0;

        for (std::size_t m = 0; m < m_total; ++m) {
            // Prefix sums: correct(α) = fixed + Σ_{v<α} predOk +
            // Σ_{v>=α} baseOk.
            std::vector<std::uint64_t> pred_prefix(counterCeiling + 1,
                                                   0);
            std::vector<std::uint64_t> base_suffix(counterCeiling + 1,
                                                   0);
            for (std::size_t v = 0; v < counterCeiling; ++v) {
                pred_prefix[v + 1] = pred_prefix[v] + pred_ok[m][v];
            }
            for (std::size_t v = counterCeiling; v-- > 0;) {
                base_suffix[v] = base_suffix[v + 1] + base_ok[m][v];
            }
            auto correct = [&](int alpha) {
                const std::size_t a = static_cast<std::size_t>(
                    clampValue<int>(alpha, 0,
                                    static_cast<int>(counterCeiling)));
                return fixed_ok[m] + pred_prefix[a] + base_suffix[a];
            };
            int alpha = th0;
            while (alpha > 0 &&
                   static_cast<double>(correct(alpha)) < target) {
                alpha -= opts.step;
            }
            alpha = std::max(alpha, 0);
            result.thresholds.set(id, m, alpha);
            alpha_sum += alpha;
            const double conf = static_cast<double>(correct(alpha)) /
                                static_cast<double>(total_per_kernel);
            report.achievedConfidence =
                std::min(report.achievedConfidence, conf);
        }
        report.meanAlpha = alpha_sum / static_cast<double>(m_total);
        result.reports.push_back(report);

        // Apply the frozen prediction so downstream blocks tune
        // against the real cascade (prediction mode from layer 1).
        for (SampleState &st : states) {
            const BitVolume in_mask =
                effectiveInputMask(topo, id, st.masks);
            const CountVolume counts = countDroppedNwInputs(
                conv, in_mask, indicators.of(id));
            const BitVolume predicted = predictUnaffected(
                zero_maps[st.inputIdx].at(id), counts,
                result.thresholds, id);
            float *out = st.cascOutputs[id].data().data();
            predicted.forEachSet([out](std::size_t i) { out[i] = 0.0f; });
        }
    }
    // Blocks that cannot reach p_cf even with prediction disabled are
    // dominated by upstream cascade error; summarise once.
    std::size_t below = 0;
    for (const BlockTuneReport &r : result.reports)
        below += r.achievedConfidence < opts.confidence ? 1 : 0;
    if (below > 0) {
        informVerbose("threshold optimization: %zu of %zu blocks below "
                      "the requested confidence %.2f even at alpha = 0 "
                      "(upstream cascade error dominates there)",
                      below, result.reports.size(), opts.confidence);
    }
    return result;
}

std::map<NodeId, double>
evaluatePrediction(const BcnnTopology &topo,
                   const IndicatorSet &indicators,
                   const ThresholdSet &thresholds,
                   const std::vector<Tensor> &dataset,
                   const OptimizerOptions &opts)
{
    if (dataset.empty())
        fatal("evaluatePrediction needs at least one input");
    const Network &net = topo.network();
    auto brng = makeBrng(opts.brng, opts.dropRate, opts.seed);

    std::map<NodeId, std::uint64_t> correct;
    std::map<NodeId, std::uint64_t> total;
    for (const Tensor &input : dataset) {
        const ZeroMaps zeros = computeZeroMaps(topo, input);
        for (std::size_t t = 0; t < opts.samples; ++t) {
            // Exact pass (records masks) then the predictive cascade.
            SamplingHooks hooks(*brng);
            CaptureHooks capture(&hooks,
                                 [](const std::string &, LayerKind k) {
                                     return k == LayerKind::Conv2d;
                                 });
            net.forward(input, &capture);
            const MaskSet masks = hooks.takeMasks();

            PredictiveOptions popts;
            popts.captureNodeOutputs = true;
            const PredictiveResult pres = predictiveForward(
                topo, indicators, zeros, thresholds, input, masks,
                popts);

            for (const ConvBlock &b : topo.blocks()) {
                const Tensor &o_true = capture.activation(
                    net.layer(b.conv).name());
                const Tensor &o_pred = pres.nodeOutputs[b.conv];
                for (std::size_t i = 0; i < o_true.numel(); ++i) {
                    const float tv = std::max(o_true.at(i), 0.0f);
                    const float pv = std::max(o_pred.at(i), 0.0f);
                    const bool ok =
                        opts.metric == PredictMetric::PatternMatch
                            ? (pv == 0.0f) == (tv == 0.0f)
                            : nearlyEqual(pv, tv, opts.tolerance);
                    correct[b.conv] += ok ? 1 : 0;
                    total[b.conv] += 1;
                }
            }
        }
    }
    std::map<NodeId, double> fractions;
    for (const auto &[id, c] : correct) {
        fractions[id] = static_cast<double>(c) /
                        static_cast<double>(total[id]);
    }
    return fractions;
}

} // namespace fastbcnn
