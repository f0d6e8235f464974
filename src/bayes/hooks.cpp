#include "hooks.hpp"

#include "common/check.hpp"
#include "nn/network.hpp"

namespace fastbcnn {

MaskSet
drawMasks(const Network &net, ForwardHooks &hooks)
{
    MaskSet masks;
    for (NodeId id = 0; id < net.size(); ++id) {
        const Layer &layer = net.layer(id);
        if (layer.kind() != LayerKind::Dropout)
            continue;
        // A dropout node's output shape equals the input shape the
        // forward hook sees, so drawing over shapeOf(id) consumes the
        // identical bit count in the identical order.
        if (const BitVolume *mask =
                hooks.dropoutMask(layer.name(), net.shapeOf(id)))
            masks.emplace(layer.name(), *mask);
    }
    return masks;
}

MaskSet
sampleMasks(const Network &net, Brng &brng)
{
    SamplingHooks hooks(brng);
    return drawMasks(net, hooks);
}

const BitVolume *
SamplingHooks::dropoutMask(const std::string &layer_name,
                           const Shape &shape)
{
    if (!enabled_)
        return nullptr;
    FASTBCNN_CHECK_EQ(shape.rank(), 3u);
    BitVolume mask(shape.dim(0), shape.dim(1), shape.dim(2));
    for (std::size_t i = 0; i < mask.size(); ++i)
        mask.setFlat(i, brng_->nextBit());
    auto [it, inserted] = masks_.insert_or_assign(layer_name,
                                                  std::move(mask));
    (void)inserted;
    return &it->second;
}

const BitVolume *
ReplayHooks::dropoutMask(const std::string &layer_name,
                         const Shape &shape)
{
    auto it = masks_->find(layer_name);
    if (it == masks_->end())
        return nullptr;
    FASTBCNN_CHECK(it->second.channels() == shape.dim(0) &&
                   it->second.height() == shape.dim(1) &&
                   it->second.width() == shape.dim(2),
                   "replayed mask shape mismatch");
    return &it->second;
}

const BitVolume *
CaptureHooks::dropoutMask(const std::string &layer_name,
                          const Shape &shape)
{
    return inner_ ? inner_->dropoutMask(layer_name, shape) : nullptr;
}

void
CaptureHooks::onActivation(const std::string &layer_name, LayerKind kind,
                           const Tensor &out)
{
    if (inner_)
        inner_->onActivation(layer_name, kind, out);
    if (!filter_ || filter_(layer_name, kind))
        activations_.insert_or_assign(layer_name, out);
}

void
CaptureHooks::mutateActivation(const std::string &layer_name,
                               LayerKind kind, Tensor &out)
{
    if (inner_)
        inner_->mutateActivation(layer_name, kind, out);
}

const Tensor &
CaptureHooks::activation(const std::string &layer_name) const
{
    auto it = activations_.find(layer_name);
    if (it == activations_.end())
        fatal("no captured activation for layer '%s'",
              layer_name.c_str());
    return it->second;
}

} // namespace fastbcnn
