#include "predictive_inference.hpp"

namespace fastbcnn {

PredictiveResult
predictiveForward(const BcnnTopology &topo,
                  const IndicatorSet &indicators,
                  const ZeroMaps &zero_maps,
                  const ThresholdSet &thresholds, const Tensor &input,
                  const MaskSet &masks, ForwardHooks *hooks)
{
    const Network &net = topo.network();
    ReplayHooks replay(masks, hooks);

    PredictiveResult result;
    std::vector<Tensor> outputs(net.size());

    for (NodeId id = 0; id < net.size(); ++id) {
        outputs[id] = net.forwardNode(id, input, outputs, &replay);
        const Layer &layer = net.layer(id);
        if (layer.kind() != LayerKind::Conv2d)
            continue;

        // The central predictor (Eq. 5): count dropped nw-inputs from
        // the effective input mask, compare with the per-kernel
        // thresholds and AND with the zero index.  Predicted neurons
        // read +0.0f, as the accelerator's skip engine leaves them;
        // those whose dense value was positive are mispredictions.
        // The block's dropped neurons stay computed; its Dropout zeroes
        // them.
        const auto &conv = static_cast<const Conv2d &>(layer);
        const BitVolume in_mask = effectiveInputMask(topo, id, masks);
        const CountVolume counts =
            countDroppedNwInputs(conv, in_mask, indicators.of(id));
        BitVolume predicted = predictUnaffected(
            zero_maps.at(id), counts, thresholds, id);
        result.mispredicted.emplace(id,
                                    mispredicted(predicted, outputs[id]));
        float *out = outputs[id].data().data();
        predicted.forEachSet([out](std::size_t i) { out[i] = 0.0f; });

        result.predictedNeurons += predicted.popcount();
        result.predicted.emplace(id, std::move(predicted));
    }

    result.output = std::move(outputs.back());
    return result;
}

} // namespace fastbcnn
