#include "thresholds.hpp"

#include "common/check.hpp"

namespace fastbcnn {

ThresholdSet::ThresholdSet(const BcnnTopology &topo, int value)
{
    for (const ConvBlock &b : topo.blocks()) {
        const auto &conv =
            static_cast<const Conv2d &>(topo.network().layer(b.conv));
        byConv_[b.conv] = std::vector<int>(conv.outChannels(), value);
    }
}

int
ThresholdSet::of(NodeId conv, std::size_t m) const
{
    auto it = byConv_.find(conv);
    if (it == byConv_.end())
        fatal("no thresholds for conv node %zu", conv);
    FASTBCNN_CHECK(m < it->second.size(), "kernel index out of range");
    return it->second[m];
}

void
ThresholdSet::set(NodeId conv, std::size_t m, int value)
{
    auto it = byConv_.find(conv);
    if (it == byConv_.end())
        fatal("no thresholds for conv node %zu", conv);
    FASTBCNN_CHECK(m < it->second.size(), "kernel index out of range");
    it->second[m] = value;
}

const std::vector<int> &
ThresholdSet::layer(NodeId conv) const
{
    static const std::vector<int> empty;
    auto it = byConv_.find(conv);
    return it == byConv_.end() ? empty : it->second;
}

bool
ThresholdSet::has(NodeId conv) const
{
    return byConv_.count(conv) != 0;
}

double
ThresholdSet::mean() const
{
    double total = 0.0;
    std::size_t n = 0;
    for (const auto &[id, v] : byConv_) {
        for (int a : v) {
            total += a;
            ++n;
        }
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n);
}

} // namespace fastbcnn
