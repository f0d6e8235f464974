#include "audit.hpp"

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace fastbcnn {

namespace {

/** Selection-hash seed (decoupled from the dropout seed). */
constexpr std::uint64_t kAuditSeed = 0x5eed;

} // namespace

std::uint64_t
SampleAudit::audited() const
{
    std::uint64_t total = 0;
    for (const auto &[conv, ks] : kernels) {
        for (const KernelAudit &k : ks)
            total += k.audited;
    }
    return total;
}

std::uint64_t
SampleAudit::mispredicted() const
{
    std::uint64_t total = 0;
    for (const auto &[conv, ks] : kernels) {
        for (const KernelAudit &k : ks)
            total += k.mispredicted;
    }
    return total;
}

bool
auditSelected(std::uint64_t seed, NodeId conv, std::size_t sample,
              std::size_t flat, double rate)
{
    if (rate >= 1.0)
        return true;
    if (rate <= 0.0)
        return false;
    std::uint64_t h = splitmix64(seed ^ splitmix64(conv + 1));
    h = splitmix64(h ^ sample);
    h = splitmix64(h ^ flat);
    // Top 53 bits as a uniform double in [0, 1): exact comparison
    // against the rate with no overflow at either boundary.
    const double u = static_cast<double>(h >> 11) *
                     (1.0 / 9007199254740992.0);
    return u < rate;
}

SampleAudit
auditPredictedNeurons(const BcnnTopology &topo, const Tensor &input,
                      const std::vector<Tensor> &node_outputs,
                      const std::map<NodeId, BitVolume> &predicted,
                      const AuditOptions &opts, std::size_t sample)
{
    SampleAudit audit;
    audit.sample = sample;
    if (opts.rate <= 0.0)
        return audit;

    const Network &net = topo.network();
    FASTBCNN_CHECK(node_outputs.size() == net.size(),
                   "auditPredictedNeurons needs the full node-output "
                   "capture (PredictiveOptions::captureNodeOutputs)");

    for (const ConvBlock &b : topo.blocks()) {
        const auto it = predicted.find(b.conv);
        if (it == predicted.end())
            continue;
        const BitVolume &pred = it->second;
        const auto &conv =
            static_cast<const Conv2d &>(net.layer(b.conv));
        const std::vector<NodeId> &producers = net.inputsOf(b.conv);
        FASTBCNN_CHECK_EQ(producers.size(), std::size_t{1});
        const Tensor &conv_in = producers[0] == Network::inputNode
                                    ? input
                                    : node_outputs[producers[0]];

        const std::size_t plane =
            b.outShape.dim(1) * b.outShape.dim(2);
        const std::size_t width = b.outShape.dim(2);
        std::vector<KernelAudit> &kernels = audit.kernels[b.conv];
        kernels.resize(conv.outChannels());

        for (std::size_t flat = 0; flat < pred.size(); ++flat) {
            if (!pred.getFlat(flat))
                continue;
            if (!auditSelected(kAuditSeed, b.conv, sample, flat,
                               opts.rate)) {
                continue;
            }
            KernelAudit &k = kernels[flat / plane];
            ++k.audited;
            const std::size_t rem = flat % plane;
            // Mispredict <=> positive pre-activation: the exact
            // cascade would have produced a live neuron here.
            if (conv.computeNeuron(conv_in, flat / plane, rem / width,
                                   rem % width) > 0.0f) {
                ++k.mispredicted;
            }
        }
    }
    return audit;
}

} // namespace fastbcnn
