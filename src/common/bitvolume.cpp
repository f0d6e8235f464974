#include "bitvolume.hpp"

#include <algorithm>

#include "check.hpp"
#include "math_util.hpp"
#include "simd/simd.hpp"

namespace fastbcnn {

BitVolume::BitVolume(std::size_t channels, std::size_t height,
                     std::size_t width)
    : channels_(channels), height_(height), width_(width),
      // +1: the guard word the SIMD layer's window extraction may read.
      words_(ceilDiv<std::size_t>(channels * height * width, 64) + 1, 0)
{
}

bool
BitVolume::get(std::size_t c, std::size_t r, std::size_t col) const
{
    return getFlat(flatIndex(c, r, col));
}

void
BitVolume::set(std::size_t c, std::size_t r, std::size_t col, bool value)
{
    setFlat(flatIndex(c, r, col), value);
}

bool
BitVolume::getFlat(std::size_t idx) const
{
    FASTBCNN_DCHECK(idx < size(), "BitVolume flat index out of range");
    return (words_[idx / 64] >> (idx % 64)) & 1ull;
}

void
BitVolume::setFlat(std::size_t idx, bool value)
{
    FASTBCNN_DCHECK(idx < size(), "BitVolume flat index out of range");
    const std::uint64_t mask = 1ull << (idx % 64);
    if (value)
        words_[idx / 64] |= mask;
    else
        words_[idx / 64] &= ~mask;
}

std::size_t
BitVolume::popcount() const
{
    return simd::active().popcountWords(words_.data(), wordCount());
}

void
BitVolume::clear()
{
    std::fill(words_.begin(), words_.end(), 0ull);
}

void
BitVolume::fill(bool value)
{
    std::fill_n(words_.begin(), wordCount(), value ? ~0ull : 0ull);
    clearPadding();
}

void
BitVolume::clearPadding()
{
    // Keeps popcount() exact; the guard word past wordCount() is never
    // written.
    const std::size_t used = size() % 64;
    if (used != 0)
        words_[wordCount() - 1] &= (1ull << used) - 1;
}

void
BitVolume::orWith(const BitVolume &other)
{
    FASTBCNN_CHECK(channels_ == other.channels_ &&
                   height_ == other.height_ && width_ == other.width_,
                   "BitVolume shape mismatch in orWith");
    for (std::size_t i = 0; i < wordCount(); ++i)
        words_[i] |= other.words_[i];
}

bool
BitVolume::operator==(const BitVolume &other) const
{
    return channels_ == other.channels_ && height_ == other.height_ &&
           width_ == other.width_ &&
           std::equal(words_.begin(), words_.begin() + wordCount(),
                      other.words_.begin());
}

} // namespace fastbcnn
