#include "nw_counter.hpp"

#include <vector>

#include "common/check.hpp"
#include "simd/simd.hpp"

namespace fastbcnn {

CountVolume::CountVolume(std::size_t channels, std::size_t height,
                         std::size_t width)
    : channels_(channels), height_(height), width_(width),
      data_(channels * height * width, 0)
{
}

std::uint16_t &
CountVolume::at(std::size_t c, std::size_t r, std::size_t col)
{
    FASTBCNN_CHECK(c < channels_ && r < height_ && col < width_,
                   "CountVolume index out of range");
    return data_[(c * height_ + r) * width_ + col];
}

std::uint16_t
CountVolume::at(std::size_t c, std::size_t r, std::size_t col) const
{
    FASTBCNN_CHECK(c < channels_ && r < height_ && col < width_,
                   "CountVolume index out of range");
    return data_[(c * height_ + r) * width_ + col];
}

std::uint16_t
CountVolume::atFlat(std::size_t i) const
{
    FASTBCNN_CHECK_LT(i, data_.size());
    return data_[i];
}

CountVolume
countDroppedNwInputs(const Conv2d &conv, const BitVolume &input_mask,
                     const LayerIndicators &indicators)
{
    FASTBCNN_CHECK_EQ(input_mask.channels(), conv.inChannels());
    const std::size_t k = conv.kernelSize();
    const std::size_t s = conv.stride();
    const std::size_t p = conv.padding();
    const std::size_t in_h = input_mask.height();
    const std::size_t in_w = input_mask.width();
    const std::size_t out_h = (in_h + 2 * p - k) / s + 1;
    const std::size_t out_w = (in_w + 2 * p - k) / s + 1;

    CountVolume counts(conv.outChannels(), out_h, out_w);
    // Eq. 5 lives in the dispatched SIMD kernel layer: the vector
    // level cuts each output position's receptive field out of the
    // mask as one bit row and ANDs and popcounts it against each
    // kernel's indicator bits.  Scratch is hoisted here so the hot
    // kernels never allocate.
    std::vector<const std::uint64_t *> ind_words(conv.outChannels());
    for (std::size_t m = 0; m < conv.outChannels(); ++m) {
        const BitVolume &ind = indicators.kernel(m);
        FASTBCNN_DCHECK(ind.channels() == conv.inChannels() &&
                        ind.height() == k && ind.width() == k,
                        "indicator volume shape mismatch");
        ind_words[m] = ind.words();
    }
    std::vector<std::uint64_t> scratch(simd::countNwInputsScratchWords(
        conv.inChannels(), in_h, in_w, out_h, out_w, k, p));
    simd::active().countNwInputs(
        input_mask.words(), ind_words.data(), counts.data(),
        scratch.data(), conv.inChannels(), conv.outChannels(), in_h, in_w,
        out_h, out_w, k, s, p);
    return counts;
}

} // namespace fastbcnn
