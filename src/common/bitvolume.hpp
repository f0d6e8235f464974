/**
 * @file
 * Packed bit containers for dropout masks, zero-neuron indices and
 * weight-sign indicator planes.
 *
 * The hardware stores all of these as single bits (Section V-B2 of the
 * paper: "the information of kernels is compressed as indicator bits");
 * packing them 64-per-word keeps the functional simulator's memory
 * footprint proportional to what the accelerator's mini-buffers hold
 * and makes popcounts (the counting lanes) cheap.
 */

#ifndef FASTBCNN_COMMON_BITVOLUME_HPP
#define FASTBCNN_COMMON_BITVOLUME_HPP

#include <bit>
#include <cstddef>
#include <cstdint>

#include "aligned.hpp"
#include "check.hpp"

namespace fastbcnn {

/**
 * @return the 64 bits of the packed bit array @p w from bit @p pos
 * on.  Reads the next word too unless @p pos is word-aligned, so the
 * array needs one readable word past the word of its last bit (a
 * BitVolume's guard word).
 */
inline std::uint64_t
extract64(const std::uint64_t *w, std::size_t pos)
{
    const std::size_t sh = pos & 63;
    const std::uint64_t lo = w[pos >> 6] >> sh;
    return sh == 0 ? lo : lo | (w[(pos >> 6) + 1] << (64 - sh));
}

/**
 * OR the low @p count bits of @p bits (its higher bits zero) into the
 * packed bit array @p w from bit @p pos on, touching no word past the
 * one that takes bit pos + count - 1.
 */
inline void
orBits(std::uint64_t *w, std::size_t pos, std::uint64_t bits,
       std::size_t count)
{
    const std::size_t sh = pos & 63;
    w[pos >> 6] |= bits << sh;
    if (sh + count > 64)
        w[(pos >> 6) + 1] |= bits >> (64 - sh);
}

/** @return bits 0, 2, ..., 62 of @p v packed into bits 0-31. */
inline std::uint64_t
packEvenBits(std::uint64_t v)
{
    v &= 0x5555555555555555ull;
    v = (v | (v >> 1)) & 0x3333333333333333ull;
    v = (v | (v >> 2)) & 0x0f0f0f0f0f0f0f0full;
    v = (v | (v >> 4)) & 0x00ff00ff00ff00ffull;
    v = (v | (v >> 8)) & 0x0000ffff0000ffffull;
    return (v | (v >> 16)) & 0x00000000ffffffffull;
}

/**
 * A dense 3-D bit tensor with (channel, row, column) indexing.
 *
 * Bits are stored row-major in 64-bit words.  A 2-D plane is simply a
 * BitVolume with one channel.
 */
class BitVolume
{
  public:
    /** Construct an empty volume (all dimensions zero). */
    BitVolume() = default;

    /**
     * Construct a zero-filled volume.
     *
     * @param channels number of channels (C)
     * @param height   rows per channel (H)
     * @param width    columns per row (W)
     */
    BitVolume(std::size_t channels, std::size_t height, std::size_t width);

    /** @return number of channels. */
    std::size_t channels() const { return channels_; }
    /** @return rows per channel. */
    std::size_t height() const { return height_; }
    /** @return columns per row. */
    std::size_t width() const { return width_; }
    /** @return total number of bits held. */
    std::size_t size() const { return channels_ * height_ * width_; }
    /** @return true when the volume holds no bits. */
    bool empty() const { return size() == 0; }

    /** Read the bit at (c, r, col); bounds-checked via FASTBCNN_DCHECK. */
    bool get(std::size_t c, std::size_t r, std::size_t col) const;

    /** Write the bit at (c, r, col). */
    void set(std::size_t c, std::size_t r, std::size_t col, bool value);

    /** Read by flat index (c*H*W + r*W + col). */
    bool getFlat(std::size_t idx) const;

    /** Write by flat index. */
    void setFlat(std::size_t idx, bool value);

    /** @return number of set bits in the whole volume. */
    std::size_t popcount() const;

    /** @return number of 64-bit words backing size() bits. */
    std::size_t wordCount() const { return (size() + 63) / 64; }

    /**
     * @return the packed words (64-byte-aligned).  One zero guard word
     * is allocated past wordCount() so the SIMD layer's 64-bit window
     * extraction may read one word beyond the last data word; bits at
     * and past size() are always zero.
     */
    const std::uint64_t *words() const { return words_.data(); }

    /**
     * Overwrite every bit: @p write(words, size()) sets the wordCount()
     * data words, and the padding bits past size() are cleared after
     * it, so they and the guard word stay zero.  Mask sampling fills a
     * fresh volume straight from Brng::fill() this way.
     */
    template <class Write>
    void assignWords(Write &&write)
    {
        write(words_.data(), size());
        clearPadding();
    }

    /** Set every bit to zero, keeping the shape. */
    void clear();

    /** Set every bit to @p value, keeping the shape. */
    void fill(bool value);

    /**
     * Call @p f(flat index) for every set bit, in ascending order, a
     * word at a time (count trailing zeros, then clear the lowest set
     * bit); bits past size() are zero, so no index reaches size().
     */
    template <class F>
    void forEachSet(F f) const
    {
        for (std::size_t w = 0; w < wordCount(); ++w) {
            for (std::uint64_t bits = words_[w]; bits != 0;
                 bits &= bits - 1) {
                f(w * 64 +
                  static_cast<std::size_t>(std::countr_zero(bits)));
            }
        }
    }

    /** Element-wise OR with @p other (shapes must match). */
    void orWith(const BitVolume &other);

    /** @return true when shapes and all bits are equal. */
    bool operator==(const BitVolume &other) const;

  private:
    /** Zero the bits past size() in the last data word. */
    void clearPadding();

    std::size_t flatIndex(std::size_t c, std::size_t r,
                          std::size_t col) const
    {
        FASTBCNN_DCHECK(c < channels_ && r < height_ && col < width_,
                        "BitVolume index out of range");
        return (c * height_ + r) * width_ + col;
    }

    std::size_t channels_ = 0;
    std::size_t height_ = 0;
    std::size_t width_ = 0;
    // wordCount() data words plus one always-zero guard word, aligned
    // to a cache line for the SIMD kernel layer (DESIGN.md §14).
    AlignedVector<std::uint64_t> words_;
};

} // namespace fastbcnn

#endif // FASTBCNN_COMMON_BITVOLUME_HPP
