#include "topology.hpp"

#include "common/logging.hpp"
#include "nn/dropout.hpp"

namespace fastbcnn {

BcnnTopology::BcnnTopology(const Network &net)
    : net_(&net)
{
    std::vector<std::vector<NodeId>> consumers(net.size());
    for (NodeId id = 0; id < net.size(); ++id) {
        for (NodeId producer : net.inputsOf(id)) {
            if (producer != Network::inputNode)
                consumers[producer].push_back(id);
        }
    }

    for (NodeId id = 0; id < net.size(); ++id) {
        if (net.layer(id).kind() != LayerKind::Conv2d)
            continue;
        // Find the ReLU fed by this conv, then the Dropout fed by the
        // ReLU.  The BCNN construction guarantees a unique such chain.
        NodeId relu = Network::inputNode;
        for (NodeId c : consumers[id]) {
            if (net.layer(c).kind() == LayerKind::ReLU) {
                relu = c;
                break;
            }
        }
        if (relu == Network::inputNode) {
            fatal("BCNN invariant violated: conv '%s' is not followed "
                  "by a ReLU", net.layer(id).name().c_str());
        }
        NodeId dropout = Network::inputNode;
        for (NodeId c : consumers[relu]) {
            if (net.layer(c).kind() == LayerKind::Dropout) {
                dropout = c;
                break;
            }
        }
        if (dropout == Network::inputNode) {
            fatal("BCNN invariant violated: conv '%s' has no dropout "
                  "layer after its ReLU (add one per Section II-A)",
                  net.layer(id).name().c_str());
        }
        blocks_.push_back(ConvBlock{blocks_.size(), id, relu, dropout,
                                    net.shapeOf(id)});
    }
    if (blocks_.empty())
        fatal("network '%s' has no convolutional blocks", net.name().c_str());
}

const ConvBlock &
BcnnTopology::blockOfConv(NodeId conv) const
{
    for (const ConvBlock &b : blocks_) {
        if (b.conv == conv)
            return b;
    }
    fatal("node %zu is not a conv block", conv);
}

} // namespace fastbcnn
