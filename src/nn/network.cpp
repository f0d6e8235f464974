#include "network.hpp"

#include "common/check.hpp"
#include "concat.hpp"
#include "conv2d.hpp"
#include "dense.hpp"

namespace fastbcnn {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv2d: return "Conv2d";
      case LayerKind::ReLU: return "ReLU";
      case LayerKind::MaxPool2d: return "MaxPool2d";
      case LayerKind::AvgPool2d: return "AvgPool2d";
      case LayerKind::GlobalAvgPool: return "GlobalAvgPool";
      case LayerKind::Dropout: return "Dropout";
      case LayerKind::Linear: return "Linear";
      case LayerKind::Flatten: return "Flatten";
      case LayerKind::Concat: return "Concat";
      case LayerKind::Softmax: return "Softmax";
      case LayerKind::LocalResponseNorm: return "LocalResponseNorm";
    }
    panic("unknown LayerKind %d", static_cast<int>(kind));
}

Network::Network(std::string name, Shape input_shape)
    : name_(std::move(name)), inputShape_(std::move(input_shape))
{
    if (inputShape_.numel() == 0)
        fatal("network '%s': empty input shape", name_.c_str());
}

NodeId
Network::add(std::unique_ptr<Layer> layer, std::vector<NodeId> inputs)
{
    FASTBCNN_CHECK(layer != nullptr, "null layer");
    if (inputs.empty()) {
        inputs.push_back(nodes_.empty() ? inputNode : nodes_.size() - 1);
    }
    if (inputs.size() != layer->arity()) {
        fatal("layer '%s' expects %zu inputs, got %zu",
              layer->name().c_str(), layer->arity(), inputs.size());
    }
    std::vector<Shape> in_shapes;
    in_shapes.reserve(inputs.size());
    for (NodeId id : inputs) {
        if (id == inputNode) {
            in_shapes.push_back(inputShape_);
        } else if (id < nodes_.size()) {
            in_shapes.push_back(nodes_[id].shape);
        } else {
            fatal("layer '%s' references unknown node %zu",
                  layer->name().c_str(), id);
        }
    }
    for (const Node &n : nodes_) {
        if (n.layer->name() == layer->name()) {
            fatal("duplicate layer name '%s' in network '%s'",
                  layer->name().c_str(), name_.c_str());
        }
    }
    Shape out_shape = layer->outputShape(in_shapes);
    nodes_.push_back(Node{std::move(layer), std::move(inputs),
                          std::move(out_shape)});
    return nodes_.size() - 1;
}

Tensor
Network::forward(const Tensor &input, ForwardHooks *hooks) const
{
    if (!(input.shape() == inputShape_)) {
        fatal("network '%s': input shape %s does not match declared %s",
              name_.c_str(), input.shape().toString().c_str(),
              inputShape_.toString().c_str());
    }
    FASTBCNN_CHECK(!nodes_.empty(), "forward on empty network");
    std::vector<Tensor> outputs(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        outputs[i] = forwardNode(i, input, outputs, hooks);
    return std::move(outputs.back());
}

Tensor
Network::forwardNode(NodeId id, const Tensor &input,
                     const std::vector<Tensor> &outputs,
                     ForwardHooks *hooks) const
{
    FASTBCNN_CHECK(id < nodes_.size(), "node id out of range");
    const Node &node = nodes_[id];
    std::vector<const Tensor *> ins;
    ins.reserve(node.inputs.size());
    for (NodeId producer : node.inputs)
        ins.push_back(producer == inputNode ? &input : &outputs[producer]);
    Tensor out = node.layer->forward(ins, hooks);
    if (hooks)
        hooks->mutateActivation(node.layer->name(), node.layer->kind(), out);
    return out;
}

const Layer &
Network::layer(NodeId id) const
{
    FASTBCNN_CHECK(id < nodes_.size(), "node id out of range");
    return *nodes_[id].layer;
}

Layer &
Network::layer(NodeId id)
{
    FASTBCNN_CHECK(id < nodes_.size(), "node id out of range");
    return *nodes_[id].layer;
}

const std::vector<NodeId> &
Network::inputsOf(NodeId id) const
{
    FASTBCNN_CHECK(id < nodes_.size(), "node id out of range");
    return nodes_[id].inputs;
}

const Shape &
Network::shapeOf(NodeId id) const
{
    FASTBCNN_CHECK(id < nodes_.size(), "node id out of range");
    return nodes_[id].shape;
}

const Shape &
Network::outputShape() const
{
    FASTBCNN_CHECK(!nodes_.empty(), "empty network has no output");
    return nodes_.back().shape;
}

NodeId
Network::findNode(const std::string &layer_name) const
{
    if (std::optional<NodeId> id = tryFindNode(layer_name))
        return *id;
    fatal("network '%s' has no layer named '%s'", name_.c_str(),
          layer_name.c_str());
}

std::optional<NodeId>
Network::tryFindNode(const std::string &layer_name) const noexcept
{
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].layer->name() == layer_name)
            return i;
    }
    return std::nullopt;
}

std::uint64_t
Network::totalMacs() const
{
    std::uint64_t macs = 0;
    for (const Node &n : nodes_) {
        if (n.layer->kind() == LayerKind::Conv2d) {
            const auto &conv = static_cast<const Conv2d &>(*n.layer);
            macs += static_cast<std::uint64_t>(n.shape.numel()) *
                    conv.inChannels() * conv.kernelSize() *
                    conv.kernelSize();
        } else if (n.layer->kind() == LayerKind::Linear) {
            const auto &fc = static_cast<const Linear &>(*n.layer);
            macs += static_cast<std::uint64_t>(fc.inFeatures()) *
                    fc.outFeatures();
        }
    }
    return macs;
}

} // namespace fastbcnn
