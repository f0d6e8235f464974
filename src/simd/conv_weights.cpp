/**
 * @file
 * ConvWeights: the packed conv weight layout shared by every dispatch
 * level (see simd.hpp).  Packing is pure data movement and runs when
 * weights are set; the conv kernels only read the result.
 */

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "simd/simd.hpp"

namespace fastbcnn::simd {

ConvWeights::ConvWeights(std::size_t out_channels,
                         std::size_t in_channels, std::size_t kernel)
    : out_(out_channels), in_(in_channels), kernel_(kernel),
      w_(blocks() * taps() * kLanes, 1.0f),
      zeros_(blocks() * taps(), TapZeros::All)
{
    for (std::size_t m = 0; m < out_; ++m) {
        for (std::size_t t = 0; t < taps(); ++t)
            w_[lane(m) + t * kLanes] = 0.0f;
    }
}

ConvWeights::ConvWeights(std::size_t out_channels,
                         std::size_t in_channels, std::size_t kernel,
                         const float *mckk)
    : out_(out_channels), in_(in_channels), kernel_(kernel),
      w_(blocks() * taps() * kLanes, 1.0f)
{
    assign(mckk);
}

void
ConvWeights::assign(const float *mckk)
{
    // Block by block, so the packed vectors are written in order.
    float *dst = w_.data();
    for (std::size_t b = 0; b < blocks(); ++b) {
        const std::size_t lanes = std::min(kLanes, out_ - b * kLanes);
        const float *src = mckk + b * kLanes * taps();
        for (std::size_t t = 0; t < taps(); ++t, dst += kLanes) {
            for (std::size_t l = 0; l < lanes; ++l)
                dst[l] = src[l * taps() + t];
        }
    }
    classify();
}

void
ConvWeights::set(std::size_t index, float value)
{
    FASTBCNN_CHECK_LT(index, size());
    float &slot_value = w_[slot(index)];
    if (!std::isfinite(slot_value))
        --nonFinite_;
    if (!std::isfinite(value))
        ++nonFinite_;
    slot_value = value;
    if (!zeros_.empty()) {
        const std::size_t block = index / taps() / kLanes;
        const std::size_t tap = index % taps();
        zeros_[block * taps() + tap] = classOf(block, tap);
    } else if (value == 0.0f) {
        classify();
    }
}

std::vector<float>
ConvWeights::mckk() const
{
    std::vector<float> out(size());
    for (std::size_t m = 0; m < out_; ++m) {
        const float *src = w_.data() + lane(m);
        for (std::size_t t = 0; t < taps(); ++t)
            out[m * taps() + t] = src[t * kLanes];
    }
    return out;
}

TapZeros
ConvWeights::classOf(std::size_t block, std::size_t tap) const
{
    const std::size_t lanes = std::min(kLanes, out_ - block * kLanes);
    const float *v = w_.data() + (block * taps() + tap) * kLanes;
    const auto zero = static_cast<std::size_t>(
        std::count(v, v + lanes, 0.0f));
    return zero == lanes ? TapZeros::All
           : zero > 0    ? TapZeros::Some
                         : TapZeros::None;
}

void
ConvWeights::classify()
{
    // Pad lanes hold 1.0f, so counting every slot counts real weights.
    nonFinite_ = static_cast<std::size_t>(std::count_if(
        w_.begin(), w_.end(), [](float v) { return !std::isfinite(v); }));
    zeros_.clear();
    if (std::find(w_.begin(), w_.end(), 0.0f) == w_.end()) {
        zeros_.shrink_to_fit();
        return;
    }
    zeros_.resize(blocks() * taps());
    for (std::size_t b = 0; b < blocks(); ++b) {
        for (std::size_t t = 0; t < taps(); ++t)
            zeros_[b * taps() + t] = classOf(b, t);
    }
}

} // namespace fastbcnn::simd
