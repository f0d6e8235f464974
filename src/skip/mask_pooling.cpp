#include "mask_pooling.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "nn/pooling.hpp"

namespace fastbcnn {

namespace {

/**
 * The 2x2 stride-2 unpadded window, 32 outputs at a time: AND the
 * window's two input rows, AND each bit with its right neighbour and
 * keep the even bits.  An odd last column or row is left out, as the
 * window never covers it.
 */
FASTBCNN_HOT void
maskPool2x2(const std::uint64_t *in, std::size_t channels,
            std::size_t in_h, std::size_t in_w, std::size_t out_h,
            std::size_t out_w, std::uint64_t *out, std::size_t out_bits)
{
    std::fill(out, out + (out_bits + 63) / 64, std::uint64_t{0});
    for (std::size_t c = 0; c < channels; ++c) {
        for (std::size_t r = 0; r < out_h; ++r) {
            const std::size_t top = (c * in_h + 2 * r) * in_w;
            const std::size_t dst = (c * out_h + r) * out_w;
            for (std::size_t x = 0; x < out_w; x += 32) {
                const std::size_t take = std::min<std::size_t>(32, out_w - x);
                const std::uint64_t both = extract64(in, top + 2 * x) &
                                           extract64(in, top + in_w + 2 * x);
                const std::uint64_t pooled =
                    packEvenBits(both & (both >> 1)) &
                    ((std::uint64_t{1} << take) - 1);
                orBits(out, dst + x, pooled, take);
            }
        }
    }
}

} // namespace

BitVolume
maskPool(const BitVolume &mask, std::size_t kernel, std::size_t stride,
         std::size_t pad)
{
    FASTBCNN_CHECK(kernel > 0 && stride > 0, "bad pooling geometry");
    const std::size_t h = mask.height() + 2 * pad;
    const std::size_t w = mask.width() + 2 * pad;
    FASTBCNN_CHECK(h >= kernel && w >= kernel,
                   "pool window larger than padded mask");
    const std::size_t out_h = (h - kernel) / stride + 1;
    const std::size_t out_w = (w - kernel) / stride + 1;
    BitVolume out(mask.channels(), out_h, out_w);
    if (kernel == 2 && stride == 2 && pad == 0) {
        out.assignWords([&](std::uint64_t *words, std::size_t bits) {
            maskPool2x2(mask.words(), mask.channels(), mask.height(),
                        mask.width(), out_h, out_w, words, bits);
        });
        return out;
    }
    for (std::size_t c = 0; c < mask.channels(); ++c) {
        for (std::size_t r = 0; r < out_h; ++r) {
            for (std::size_t col = 0; col < out_w; ++col) {
                bool all_dropped = true;
                for (std::size_t i = 0; i < kernel && all_dropped; ++i) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * stride + i) -
                        static_cast<std::ptrdiff_t>(pad);
                    for (std::size_t j = 0; j < kernel; ++j) {
                        const std::ptrdiff_t in_c =
                            static_cast<std::ptrdiff_t>(col * stride + j)
                            - static_cast<std::ptrdiff_t>(pad);
                        const bool in_range =
                            in_r >= 0 && in_c >= 0 &&
                            in_r < static_cast<std::ptrdiff_t>(
                                mask.height()) &&
                            in_c < static_cast<std::ptrdiff_t>(
                                mask.width());
                        // Padding positions are constant zero, which
                        // behaves as "dropped" for pooling purposes.
                        const bool dropped =
                            !in_range ||
                            mask.get(c, static_cast<std::size_t>(in_r),
                                     static_cast<std::size_t>(in_c));
                        if (!dropped) {
                            all_dropped = false;
                            break;
                        }
                    }
                }
                out.set(c, r, col, all_dropped);
            }
        }
    }
    return out;
}

BitVolume
maskAtNode(const BcnnTopology &topo, NodeId id, const MaskSet &masks)
{
    const Network &net = topo.network();
    auto zero_mask_of = [&](const Shape &s) {
        FASTBCNN_CHECK(s.rank() == 3, "mask resolution needs CHW");
        return BitVolume(s.dim(0), s.dim(1), s.dim(2));
    };
    if (id == Network::inputNode)
        return zero_mask_of(net.inputShape());

    const Layer &layer = net.layer(id);
    switch (layer.kind()) {
      case LayerKind::Dropout: {
        auto it = masks.find(layer.name());
        if (it == masks.end())
            return zero_mask_of(net.shapeOf(id));
        return it->second;
      }
      case LayerKind::MaxPool2d:
      case LayerKind::AvgPool2d: {
        const auto &pool = static_cast<const Pool2dBase &>(layer);
        BitVolume producer =
            maskAtNode(topo, net.inputsOf(id)[0], masks);
        return maskPool(producer, pool.kernelSize(), pool.stride(),
                        pool.padding());
      }
      case LayerKind::Concat: {
        const Shape &out = net.shapeOf(id);
        BitVolume result(out.dim(0), out.dim(1), out.dim(2));
        std::size_t ch = 0;
        for (NodeId producer : net.inputsOf(id)) {
            BitVolume part = maskAtNode(topo, producer, masks);
            for (std::size_t c = 0; c < part.channels(); ++c) {
                for (std::size_t r = 0; r < part.height(); ++r) {
                    for (std::size_t w = 0; w < part.width(); ++w) {
                        if (part.get(c, r, w))
                            result.set(ch + c, r, w, true);
                    }
                }
            }
            ch += part.channels();
        }
        return result;
      }
      case LayerKind::ReLU:
      case LayerKind::LocalResponseNorm:
        // Shape-preserving and zero-preserving: the mask passes through.
        return maskAtNode(topo, net.inputsOf(id)[0], masks);
      default:
        // Value-mixing layers destroy per-position dropout knowledge.
        return zero_mask_of(net.shapeOf(id));
    }
}

BitVolume
effectiveInputMask(const BcnnTopology &topo, NodeId conv,
                   const MaskSet &masks)
{
    return maskAtNode(topo, topo.network().inputsOf(conv)[0], masks);
}

} // namespace fastbcnn
