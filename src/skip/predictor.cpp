#include "predictor.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace fastbcnn {

namespace {

/** Bit b of the result set iff n_d[b] < @p alpha, for b < @p count
 *  (at most 64). */
FASTBCNN_HOT inline std::uint64_t
belowBits(const std::uint16_t *n_d, std::size_t count, std::uint32_t alpha)
{
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < count; ++b)
        bits |= std::uint64_t{n_d[b] < alpha} << b;
    return bits;
}

/**
 * Threshold-compare loops of the central predictor, 64 neurons per
 * word: a neuron is predicted unaffected when its dropped nw-input
 * count stays below its kernel's α AND it is zero in the
 * pre-inference (the AND with the zero indexer in Section V-C).
 * Each channel reads its α once; its compare bits are gathered into
 * the word being built, which is ANDed with the zero-map word and
 * stored once (FASTBCNN_HOT — lint rule R3 keeps allocation, locks,
 * I/O and logging out).
 */
FASTBCNN_HOT void
predictUnaffectedKernel(const std::uint64_t *zero, const std::uint16_t *n_d,
                        const int *alpha, std::size_t channels,
                        std::size_t plane, std::uint64_t *predicted)
{
    std::uint64_t word = 0;
    std::size_t z = 0;
    for (std::size_t m = 0; m < channels; ++m) {
        // Counts are at most 0xffff, so α clamped to [0, 0x10000]
        // compares the same as the int α.
        const auto a = static_cast<std::uint32_t>(
            std::clamp(alpha[m], 0, 0x10000));
        for (const std::size_t end = z + plane; z < end;) {
            const std::size_t off = z % 64;
            const std::size_t take = std::min(64 - off, end - z);
            word |= belowBits(n_d + z, take, a) << off;
            z += take;
            if (z % 64 == 0) {
                predicted[z / 64 - 1] = word & zero[z / 64 - 1];
                word = 0;
            }
        }
    }
    if (z % 64 != 0)
        predicted[z / 64] = word & zero[z / 64];
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
        const float *v = relu_out.data().data();
        zero.assignWords([v](std::uint64_t *words, std::size_t n) {
            // 64 ReLU outputs per zero-map word.
            for (std::size_t w = 0; w * 64 < n; ++w) {
                const float *x = v + w * 64;
                const std::size_t count =
                    std::min<std::size_t>(64, n - w * 64);
                std::uint64_t bits = 0;
                for (std::size_t i = 0; i < count; ++i)
                    bits |= std::uint64_t{x[i] == 0.0f} << i;
                words[w] = bits;
            }
        });
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
    if (!thresholds.has(conv))
        fatal("no thresholds for conv node %zu", conv);
    const std::vector<int> &alpha = thresholds.layer(conv);
    FASTBCNN_CHECK(alpha.size() >= counts.channels(),
                   "kernel index out of range");
    BitVolume predicted(counts.channels(), counts.height(),
                        counts.width());
    predicted.assignWords([&](std::uint64_t *words, std::size_t) {
        predictUnaffectedKernel(zero_map.words(), counts.data(),
                                alpha.data(), counts.channels(),
                                counts.height() * counts.width(), words);
    });
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
