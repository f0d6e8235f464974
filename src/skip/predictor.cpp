#include "predictor.hpp"

#include "common/check.hpp"

namespace fastbcnn {

namespace {

/**
 * Threshold-compare loops of the central predictor: a neuron is
 * predicted unaffected when it is zero in the pre-inference AND its
 * dropped nw-input count stays below the kernel's α (FASTBCNN_HOT —
 * lint rule R3 keeps allocation, locks, I/O and logging out).
 */
FASTBCNN_HOT void
predictUnaffectedKernel(const BitVolume &zero_map,
                        const CountVolume &counts,
                        const ThresholdSet &thresholds, NodeId conv,
                        BitVolume &predicted)
{
    const std::size_t plane = counts.height() * counts.width();
    const std::uint64_t *zero = zero_map.words();
    const std::uint16_t *n_d = counts.data();
    for (std::size_t m = 0; m < counts.channels(); ++m) {
        const int alpha = thresholds.of(conv, m);
        for (std::size_t z = m * plane; z < (m + 1) * plane; ++z) {
            // Only zero neurons can be predicted unaffected (the AND
            // with the zero indexer in Section V-C).
            if (((zero[z / 64] >> (z % 64)) & 1) != 0 &&
                static_cast<int>(n_d[z]) < alpha) {
                predicted.setFlat(z, true);
            }
        }
    }
}

} // namespace

ZeroMaps
computeZeroMaps(const BcnnTopology &topo, const Tensor &input,
                Tensor *output)
{
    // The non-dropout pre-inference, node by node (no hooks: every
    // Dropout passes its input through), keeping each node's output so
    // the blocks' ReLU outputs are read by node id.
    const Network &net = topo.network();
    if (!(input.shape() == net.inputShape())) {
        fatal("network '%s': input shape %s does not match declared %s",
              net.name().c_str(), input.shape().toString().c_str(),
              net.inputShape().toString().c_str());
    }
    std::vector<Tensor> node_out(net.size());
    for (NodeId id = 0; id < net.size(); ++id)
        node_out[id] = net.forwardNode(id, input, node_out, nullptr);

    ZeroMaps maps;
    for (const ConvBlock &b : topo.blocks()) {
        const Tensor &relu_out = node_out[b.relu];
        const Shape &s = relu_out.shape();
        BitVolume zero(s.dim(0), s.dim(1), s.dim(2));
        for (std::size_t i = 0; i < relu_out.numel(); ++i)
            zero.setFlat(i, relu_out.at(i) == 0.0f);
        maps.emplace(b.conv, std::move(zero));
    }
    if (output != nullptr)
        *output = std::move(node_out.back());
    return maps;
}

BitVolume
predictUnaffected(const BitVolume &zero_map, const CountVolume &counts,
                  const ThresholdSet &thresholds, NodeId conv)
{
    FASTBCNN_CHECK(zero_map.channels() == counts.channels() &&
                   zero_map.height() == counts.height() &&
                   zero_map.width() == counts.width(),
                   "zero map / count volume shape mismatch");
    BitVolume predicted(counts.channels(), counts.height(),
                        counts.width());
    predictUnaffectedKernel(zero_map, counts, thresholds, conv,
                            predicted);
    return predicted;
}

BitVolume
mispredicted(const BitVolume &predicted, const Tensor &true_output)
{
    FASTBCNN_CHECK(true_output.shape().rank() == 3,
                   "conv output must be CHW");
    FASTBCNN_CHECK(predicted.size() == true_output.numel(),
                   "prediction map / output shape mismatch");
    BitVolume missed(predicted.channels(), predicted.height(),
                     predicted.width());
    const float *out = true_output.data().data();
    predicted.forEachSet([&](std::size_t i) {
        // Predicted unaffected (forced to zero) yet actually positive
        // pre-ReLU: the skip engine corrupted this neuron.
        if (out[i] > 0.0f)
            missed.setFlat(i, true);
    });
    return missed;
}

} // namespace fastbcnn
