#include "init.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace fastbcnn {

void
initializeWeights(Network &net, const InitOptions &opts)
{
    std::mt19937_64 engine(opts.seed);
    std::normal_distribution<double> gauss(0.0, 1.0);

    for (NodeId id = 0; id < net.size(); ++id) {
        Layer &layer = net.layer(id);
        if (layer.kind() == LayerKind::Conv2d) {
            auto &conv = static_cast<Conv2d &>(layer);
            const double fan_in =
                static_cast<double>(conv.inChannels()) *
                static_cast<double>(conv.kernelSize()) *
                static_cast<double>(conv.kernelSize());
            const double sigma_w =
                opts.weightScale * std::sqrt(2.0 / fan_in);
            std::vector<float> w(conv.weights().size());
            for (float &v : w)
                v = static_cast<float>(sigma_w * gauss(engine));
            conv.setWeights(w);
            // Pre-activation std for unit-variance inputs is roughly
            // sqrt(fan_in)·σ_w; shift the bias by a fraction of it so
            // post-ReLU sparsity lands in the calibrated band.
            const double sigma_pre = sigma_w * std::sqrt(fan_in);
            for (float &b : conv.bias().data()) {
                b = static_cast<float>(-opts.biasShift * sigma_pre *
                                       (0.75 + 0.5 *
                                        std::abs(gauss(engine))));
            }
        } else if (layer.kind() == LayerKind::Linear) {
            auto &fc = static_cast<Linear &>(layer);
            const double sigma_w =
                opts.weightScale *
                std::sqrt(2.0 / static_cast<double>(fc.inFeatures()));
            for (float &w : fc.weights().data())
                w = static_cast<float>(sigma_w * gauss(engine));
            for (float &b : fc.bias().data())
                b = static_cast<float>(0.01 * gauss(engine));
        }
    }
}

void
calibrateSparsity(Network &net, const std::vector<Tensor> &probes,
                  const SparsityOptions &opts)
{
    if (probes.empty())
        fatal("sparsity calibration needs at least one probe input");
    if (opts.targetZeroRatio <= 0.0 || opts.targetZeroRatio >= 1.0)
        fatal("target zero ratio must be in (0, 1)");

    std::mt19937_64 engine(opts.seed);
    std::uniform_real_distribution<double> jitter(-opts.channelJitter,
                                                  opts.channelJitter);

    std::vector<std::vector<Tensor>> outs(
        probes.size(), std::vector<Tensor>(net.size()));
    for (NodeId id = 0; id < net.size(); ++id) {
        for (std::size_t p = 0; p < probes.size(); ++p)
            outs[p][id] = net.forwardNode(id, probes[p], outs[p]);
        if (net.layer(id).kind() != LayerKind::Conv2d)
            continue;

        auto &conv = static_cast<Conv2d &>(net.layer(id));
        const Shape &shape = net.shapeOf(id);
        const std::size_t plane = shape.dim(1) * shape.dim(2);
        std::vector<float> values(plane * probes.size());
        for (std::size_t m = 0; m < conv.outChannels(); ++m) {
            for (std::size_t p = 0; p < probes.size(); ++p) {
                const auto src = outs[p][id].data();
                std::copy(src.begin() +
                              static_cast<std::ptrdiff_t>(m * plane),
                          src.begin() +
                              static_cast<std::ptrdiff_t>((m + 1) *
                                                          plane),
                          values.begin() +
                              static_cast<std::ptrdiff_t>(p * plane));
            }
            // Shift the bias so the target quantile of the channel's
            // pre-activation distribution sits at the ReLU threshold.
            const double target = std::clamp(
                opts.targetZeroRatio + jitter(engine), 0.05, 0.95);
            const std::size_t k = static_cast<std::size_t>(
                target * static_cast<double>(values.size() - 1));
            std::nth_element(values.begin(),
                             values.begin() +
                                 static_cast<std::ptrdiff_t>(k),
                             values.end());
            conv.bias()(m) -= values[k];
        }
        // Downstream layers must see the calibrated activations.
        for (std::size_t p = 0; p < probes.size(); ++p)
            outs[p][id] = net.forwardNode(id, probes[p], outs[p]);
    }
}

} // namespace fastbcnn
