#include "conv2d.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/check.hpp"

namespace fastbcnn {

Conv2d::Conv2d(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t kernel_size,
               std::size_t stride, std::size_t padding)
    : Layer(std::move(name)), inChannels_(in_channels),
      outChannels_(out_channels), kernelSize_(kernel_size),
      stride_(stride), padding_(padding),
      weights_(out_channels, in_channels, kernel_size),
      bias_(Shape({out_channels}))
{
    if (in_channels == 0 || out_channels == 0 || kernel_size == 0 ||
        stride == 0) {
        fatal("Conv2d '%s': channels, kernel size and stride must be "
              "positive", this->name().c_str());
    }
}

Shape
Conv2d::outputShape(const std::vector<Shape> &input_shapes) const
{
    FASTBCNN_CHECK(input_shapes.size() == 1, "Conv2d takes one input");
    const Shape &in = input_shapes[0];
    if (in.rank() != 3 || in.dim(0) != inChannels_) {
        fatal("Conv2d '%s': expected CHW input with %zu channels, got %s",
              name().c_str(), inChannels_, in.toString().c_str());
    }
    const std::size_t h = in.dim(1), w = in.dim(2);
    if (h + 2 * padding_ < kernelSize_ || w + 2 * padding_ < kernelSize_) {
        fatal("Conv2d '%s': kernel %zu larger than padded input %zux%zu",
              name().c_str(), kernelSize_, h + 2 * padding_,
              w + 2 * padding_);
    }
    const std::size_t out_h = (h + 2 * padding_ - kernelSize_) / stride_
                              + 1;
    const std::size_t out_w = (w + 2 * padding_ - kernelSize_) / stride_
                              + 1;
    return Shape({outChannels_, out_h, out_w});
}

FASTBCNN_HOT float
Conv2d::computeNeuron(const Tensor &input, std::size_t m, std::size_t r,
                      std::size_t c) const
{
    const std::size_t h = input.shape().dim(1);
    const std::size_t w = input.shape().dim(2);
    FASTBCNN_DCHECK(input.shape().dim(0) == inChannels_ &&
                        m < outChannels_ &&
                        r * stride_ + kernelSize_ <= h + 2 * padding_ &&
                        c * stride_ + kernelSize_ <= w + 2 * padding_,
                    "computeNeuron index out of range");
    // Raw pointers over the in-range tap window: the window is the
    // same for every input channel, so the per-tap bounds checks of
    // the checked accessors reduce to two index ranges per neuron.
    using Idx = std::ptrdiff_t;
    const Idx k = static_cast<Idx>(kernelSize_);
    const Idx y0 = static_cast<Idx>(r * stride_) - static_cast<Idx>(padding_);
    const Idx x0 = static_cast<Idx>(c * stride_) - static_cast<Idx>(padding_);
    const Idx i0 = std::max<Idx>(0, -y0);
    const Idx j0 = std::max<Idx>(0, -x0);
    const Idx i1 = std::min<Idx>(k, static_cast<Idx>(h) - y0);
    const Idx j1 = std::min<Idx>(k, static_cast<Idx>(w) - x0);
    // Channel m's weights lie one packed lane apart per tap.
    constexpr Idx lanes = simd::ConvWeights::kLanes;
    const float *in = input.data().data();
    const float *wm = weights_.channel(m);
    float acc = bias_.data()[m];
    for (std::size_t n = 0; n < inChannels_; ++n) {
        const float *wk = wm + static_cast<Idx>(n) * k * k * lanes;
        const float *plane = in + n * h * w;
        for (Idx i = i0; i < i1; ++i) {
            const float *row = plane + (y0 + i) * static_cast<Idx>(w);
            for (Idx j = j0; j < j1; ++j)
                acc += wk[(i * k + j) * lanes] * row[x0 + j];
        }
    }
    return acc;
}

void
Conv2d::setWeights(std::span<const float> mckk)
{
    FASTBCNN_CHECK_EQ(mckk.size(), weights_.size());
    weights_.assign(mckk.data());
}

void
Conv2d::flipWeightBit(std::size_t index, unsigned bit)
{
    FASTBCNN_CHECK_LT(index, weights_.size());
    const auto word = std::bit_cast<std::uint32_t>(weights_.at(index)) ^
                      (1u << (bit & 31u));
    weights_.set(index, std::bit_cast<float>(word));
}

Tensor
Conv2d::forward(const std::vector<const Tensor *> &inputs,
                ForwardHooks *hooks) const
{
    FASTBCNN_CHECK(inputs.size() == 1 && inputs[0] != nullptr,
                   "Conv2d takes one input");
    const Tensor &input = *inputs[0];
    const Shape out_shape = outputShape({input.shape()});
    Tensor out(out_shape);
    const std::size_t in_h = input.shape().dim(1);
    const std::size_t in_w = input.shape().dim(2);
    const std::size_t out_h = out_shape.dim(1);
    const std::size_t out_w = out_shape.dim(2);

    // Hot loops live in the dispatched SIMD kernel layer (the checked
    // per-neuron path is computeNeuron(), kept as the reference; every
    // dispatch level accumulates taps in its exact order).
    simd::active().packedConvForward(input.data().data(), weights_,
                                     bias_.data().data(),
                                     out.data().data(), in_h, in_w, out_h,
                                     out_w, stride_, padding_);
    if (hooks)
        hooks->onActivation(name(), kind(), out);
    return out;
}

} // namespace fastbcnn
