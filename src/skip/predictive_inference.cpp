#include "predictive_inference.hpp"

namespace fastbcnn {

namespace {

/**
 * Whether a block's dropped neurons may be skipped too: only when the
 * conv feeds nothing but its ReLU and the ReLU nothing but its
 * Dropout, so no consumer can observe a dropped neuron's value.
 */
bool
droppedAreDead(const BcnnTopology &topo, const ConvBlock &block)
{
    const std::vector<NodeId> &conv_out = topo.consumersOf(block.conv);
    const std::vector<NodeId> &relu_out = topo.consumersOf(block.relu);
    return conv_out.size() == 1 && conv_out[0] == block.relu &&
           relu_out.size() == 1 && relu_out[0] == block.dropout;
}

} // namespace

PredictiveResult
predictiveForward(const BcnnTopology &topo,
                  const IndicatorSet &indicators,
                  const ZeroMaps &zero_maps,
                  const ThresholdSet &thresholds, const Tensor &input,
                  const MaskSet &masks, const PredictiveOptions &opts)
{
    const Network &net = topo.network();
    ReplayHooks replay(masks);

    PredictiveResult result;
    std::vector<Tensor> outputs(net.size());

    for (NodeId id = 0; id < net.size(); ++id) {
        std::vector<const Tensor *> ins;
        ins.reserve(net.inputsOf(id).size());
        for (NodeId producer : net.inputsOf(id)) {
            ins.push_back(producer == Network::inputNode
                              ? &input : &outputs[producer]);
        }
        const Layer &layer = net.layer(id);
        const ConvBlock *block = layer.kind() == LayerKind::Conv2d
                                     ? &topo.blockOfConv(id)
                                     : nullptr;
        if (block == nullptr || block->index > opts.upToBlock) {
            outputs[id] = layer.forward(ins, &replay);
            continue;
        }

        // The central predictor runs ahead of the conv, as in the
        // accelerator: count dropped nw-inputs from the effective input
        // mask, compare with the per-kernel thresholds and AND with the
        // zero index.  The skip engine then computes only neurons that
        // are neither predicted unaffected nor dropped by the block's
        // own dropout layer (their values never reach a consumer).
        const auto &conv = static_cast<const Conv2d &>(layer);
        const BitVolume in_mask = effectiveInputMask(topo, id, masks);
        const CountVolume counts =
            countDroppedNwInputs(conv, in_mask, indicators.of(id));
        BitVolume predicted = predictUnaffected(
            zero_maps.at(id), counts, thresholds, id);

        BitVolume skip = predicted;
        const auto dropped = masks.find(net.layer(block->dropout).name());
        if (!opts.captureConvOutputs && dropped != masks.end() &&
            droppedAreDead(topo, *block)) {
            skip.orWith(dropped->second);
        }
        outputs[id] = conv.forwardMasked(*ins[0], skip);

        result.predictedNeurons += predicted.popcount();
        if (opts.captureConvOutputs)
            result.convOutputs.emplace(id, outputs[id]);
        result.predicted.emplace(id, std::move(predicted));
    }

    result.output = outputs.back();
    if (opts.captureNodeOutputs)
        result.nodeOutputs = std::move(outputs);
    return result;
}

} // namespace fastbcnn
