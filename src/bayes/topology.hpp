/**
 * @file
 * BCNN structural analysis: identifies the conv → ReLU → dropout
 * (→ pool) blocks that the skipping machinery and the accelerator
 * timing models operate on.
 */

#ifndef FASTBCNN_BAYES_TOPOLOGY_HPP
#define FASTBCNN_BAYES_TOPOLOGY_HPP

#include <vector>

#include "nn/conv2d.hpp"
#include "nn/network.hpp"

namespace fastbcnn {

/**
 * One Bayesian convolution block: a Conv2d whose output flows through
 * ReLU into a Dropout layer (the BCNN construction of Section II-A:
 * "a dropout layer after every convolutional layer").
 */
struct ConvBlock {
    std::size_t index;   ///< 0-based position in topological order
    NodeId conv;         ///< the Conv2d node
    NodeId relu;         ///< the ReLU consuming the conv
    NodeId dropout;      ///< the Dropout consuming the ReLU
    Shape outShape;      ///< conv output shape (CHW); equals mask shape
};

/**
 * Extracts and owns the list of ConvBlocks of a network.
 *
 * The analyzer requires every Conv2d (except none) to be followed by
 * ReLU then Dropout — the invariant of a properly constructed BCNN —
 * and calls fatal() otherwise, because the skipping strategy is
 * meaningless on a plain CNN.
 */
class BcnnTopology
{
  public:
    /** Analyse @p net; the network must outlive this object. */
    explicit BcnnTopology(const Network &net);

    /** @return the conv blocks in topological order. */
    const std::vector<ConvBlock> &blocks() const { return blocks_; }

    /** @return the analysed network. */
    const Network &network() const { return *net_; }

    /** @return the block whose conv node is @p conv; fatal if absent. */
    const ConvBlock &blockOfConv(NodeId conv) const;

  private:
    const Network *net_;
    std::vector<ConvBlock> blocks_;
};

} // namespace fastbcnn

#endif // FASTBCNN_BAYES_TOPOLOGY_HPP
