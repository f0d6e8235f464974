#include "quant/fidelity.hpp"

#include <cmath>

#include "bayes/hooks.hpp"
#include "bayes/mc_runner.hpp"
#include "common/check.hpp"
#include "skip/indicator.hpp"
#include "skip/predictor.hpp"

namespace fastbcnn::quant {

SkipAgreement
compareSkipPredictions(const BcnnTopology &topo,
                       const QuantizedNetwork &qnet, const Tensor &input,
                       double threshold, double drop_rate,
                       std::uint64_t seed, std::size_t mask_samples)
{
    const Network &net = topo.network();
    const ZeroMaps float_maps = computeZeroMaps(topo, input);
    const std::map<NodeId, BitVolume> quant_maps =
        qnet.computeZeroMaps(input);
    const IndicatorSet indicators(topo);
    const ThresholdSet thresholds(topo, threshold);
    const auto brng = makeBrng(BrngKind::Lfsr, drop_rate, seed);

    SkipAgreement result;
    for (std::size_t t = 0; t < mask_samples; ++t) {
        for (const ConvBlock &block : topo.blocks()) {
            const auto &conv = static_cast<const Conv2d &>(
                net.layer(block.conv));
            const NodeId producer = net.inputsOf(block.conv)[0];
            const Shape &in_shape = producer == Network::inputNode
                                        ? net.inputShape()
                                        : net.shapeOf(producer);
            const BitVolume mask = sampleMask(*brng, in_shape);
            const CountVolume counts = countDroppedNwInputs(
                conv, mask, indicators.of(block.conv));
            const BitVolume pred_f = predictUnaffected(
                float_maps.at(block.conv), counts, thresholds,
                block.conv);
            const BitVolume pred_q = predictUnaffected(
                quant_maps.at(block.conv), counts, thresholds,
                block.conv);
            FASTBCNN_CHECK(pred_f.size() == pred_q.size(),
                           "prediction bitmap size mismatch");
            result.compared += pred_f.size();
            for (std::size_t i = 0; i < pred_f.size(); ++i) {
                if (pred_f.getFlat(i) == pred_q.getFlat(i))
                    ++result.matched;
            }
        }
    }
    return result;
}

MomentFidelity
compareSummaries(const UncertaintySummary &ref,
                 const UncertaintySummary &quant)
{
    FASTBCNN_CHECK(ref.mean.shape() == quant.mean.shape() &&
                       ref.variance.shape() == quant.variance.shape(),
                   "summary shape mismatch");
    MomentFidelity out;
    for (std::size_t i = 0; i < ref.mean.numel(); ++i) {
        out.maxMeanDiff = std::max(
            out.maxMeanDiff,
            std::fabs(static_cast<double>(ref.mean.at(i)) -
                      static_cast<double>(quant.mean.at(i))));
    }
    for (std::size_t i = 0; i < ref.variance.numel(); ++i) {
        out.maxVarDiff = std::max(
            out.maxVarDiff,
            std::fabs(static_cast<double>(ref.variance.at(i)) -
                      static_cast<double>(quant.variance.at(i))));
    }
    out.argmaxMatch = ref.argmax == quant.argmax;
    return out;
}

} // namespace fastbcnn::quant
