#include "hooks.hpp"

#include "common/check.hpp"
#include "nn/network.hpp"

namespace fastbcnn {

BitVolume
sampleMask(Brng &brng, const Shape &shape)
{
    FASTBCNN_CHECK_EQ(shape.rank(), 3u);
    BitVolume mask(shape.dim(0), shape.dim(1), shape.dim(2));
    mask.assignWords([&brng](std::uint64_t *words, std::size_t nbits) {
        brng.fill(words, nbits);
    });
    return mask;
}

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
    auto [it, inserted] =
        masks_.insert_or_assign(layer_name, sampleMask(*brng_, shape));
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

void
ReplayHooks::mutateActivation(const std::string &layer_name,
                              LayerKind kind, Tensor &out)
{
    if (inner_)
        inner_->mutateActivation(layer_name, kind, out);
}

} // namespace fastbcnn
