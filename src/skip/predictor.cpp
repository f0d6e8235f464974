#include "predictor.hpp"

#include "bayes/hooks.hpp"
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
    // Capture every ReLU output of the non-dropout pre-inference.
    CaptureHooks capture(nullptr,
                         [](const std::string &, LayerKind k) {
                             return k == LayerKind::ReLU;
                         });
    Tensor out = topo.network().forward(input, &capture);
    if (output != nullptr)
        *output = std::move(out);

    ZeroMaps maps;
    for (const ConvBlock &b : topo.blocks()) {
        const Tensor &relu_out =
            capture.activation(topo.network().layer(b.relu).name());
        const Shape &s = relu_out.shape();
        BitVolume zero(s.dim(0), s.dim(1), s.dim(2));
        for (std::size_t i = 0; i < relu_out.numel(); ++i)
            zero.setFlat(i, relu_out.at(i) == 0.0f);
        maps.emplace(b.conv, std::move(zero));
    }
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
actualUnaffected(const BitVolume &zero_map, const Tensor &true_output)
{
    FASTBCNN_CHECK(true_output.shape().rank() == 3,
                   "conv output must be CHW");
    FASTBCNN_CHECK(zero_map.size() == true_output.numel(),
                   "zero map / output shape mismatch");
    BitVolume unaffected(zero_map.channels(), zero_map.height(),
                         zero_map.width());
    for (std::size_t i = 0; i < true_output.numel(); ++i) {
        // Post-ReLU zero <=> pre-activation <= 0.
        if (zero_map.getFlat(i) && true_output.at(i) <= 0.0f)
            unaffected.setFlat(i, true);
    }
    return unaffected;
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
    for (std::size_t i = 0; i < true_output.numel(); ++i) {
        // Predicted unaffected (forced to zero) yet actually positive
        // pre-ReLU: the skip engine corrupted this neuron.
        if (predicted.getFlat(i) && true_output.at(i) > 0.0f)
            missed.setFlat(i, true);
    }
    return missed;
}

} // namespace fastbcnn
