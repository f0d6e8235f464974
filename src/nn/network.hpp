/**
 * @file
 * DAG network container: owns layers, infers shapes at construction
 * and evaluates forward passes with optional hooks.
 */

#ifndef FASTBCNN_NN_NETWORK_HPP
#define FASTBCNN_NN_NETWORK_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "layer.hpp"

namespace fastbcnn {

/** Identifier of a network node (insertion order). */
using NodeId = std::size_t;

/**
 * A feed-forward DAG of layers with a single input node.
 *
 * Nodes are appended in topological order (a node may only consume
 * previously added nodes or the input).  The output of the network is
 * the last node added.  Sequential networks are the special case where
 * every node consumes its predecessor.
 */
class Network
{
  public:
    /** Sentinel NodeId denoting the network input. */
    static constexpr NodeId inputNode = static_cast<NodeId>(-1);

    /**
     * @param name        model name (e.g. "B-LeNet-5")
     * @param input_shape CHW shape of the network input
     */
    Network(std::string name, Shape input_shape);

    Network(Network &&) = default;
    Network &operator=(Network &&) = default;

    /**
     * Append a layer consuming the given nodes.
     *
     * @param layer  the layer (ownership transferred); its name must be
     *               unique within the network
     * @param inputs producer nodes; defaults to {previous node} (or the
     *               network input for the first layer)
     * @return the new node's id
     */
    NodeId add(std::unique_ptr<Layer> layer,
               std::vector<NodeId> inputs = {});

    /**
     * Run a forward pass.
     *
     * @param input tensor matching the declared input shape
     * @param hooks optional dropout/capture hooks (may be nullptr)
     * @return the output of the last node
     */
    Tensor forward(const Tensor &input, ForwardHooks *hooks = nullptr)
        const;

    /**
     * One step of forward(): run node @p id's layer on its producers'
     * entries of @p outputs (or @p input), then pass the result through
     * @p hooks->mutateActivation().  Callers that keep every node's
     * output step with it.
     */
    Tensor forwardNode(NodeId id, const Tensor &input,
                       const std::vector<Tensor> &outputs,
                       ForwardHooks *hooks = nullptr) const;

    /** @return the model name. */
    const std::string &name() const { return name_; }
    /** @return declared input shape (CHW). */
    const Shape &inputShape() const { return inputShape_; }
    /** @return number of layer nodes. */
    std::size_t size() const { return nodes_.size(); }
    /** @return the layer at node @p id. */
    const Layer &layer(NodeId id) const;
    /** @return mutable layer at node @p id (for weight initialisation). */
    Layer &layer(NodeId id);
    /** @return producer node ids of node @p id. */
    const std::vector<NodeId> &inputsOf(NodeId id) const;
    /** @return the inferred output shape of node @p id. */
    const Shape &shapeOf(NodeId id) const;
    /** @return the output shape of the network (last node). */
    const Shape &outputShape() const;

    /**
     * Find a node by layer name.
     * @return the node id, or fatal() when absent.
     */
    NodeId findNode(const std::string &layer_name) const;

    /**
     * Find a node by layer name without terminating on a miss — the
     * error-returning boundary paths (tryCommitCheckpointImage, fault
     * targeting) use this to reject untrusted names gracefully.
     */
    std::optional<NodeId> tryFindNode(const std::string &layer_name)
        const noexcept;

    /** @return total multiply-accumulate count of one dense inference. */
    std::uint64_t totalMacs() const;

  private:
    struct Node {
        std::unique_ptr<Layer> layer;
        std::vector<NodeId> inputs;
        Shape shape;
    };

    std::string name_;
    Shape inputShape_;
    std::vector<Node> nodes_;
};

} // namespace fastbcnn

#endif // FASTBCNN_NN_NETWORK_HPP
