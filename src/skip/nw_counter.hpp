/**
 * @file
 * Counting of dropped nw-inputs per output neuron (Fig. 9): the binary
 * convolution of the input dropout mask with each kernel's indicator
 * bits.  This is the prediction unit's data product; the central
 * predictor then compares the counts against per-kernel thresholds.
 */

#ifndef FASTBCNN_SKIP_NW_COUNTER_HPP
#define FASTBCNN_SKIP_NW_COUNTER_HPP

#include <cstdint>
#include <vector>

#include "indicator.hpp"
#include "mask_pooling.hpp"

namespace fastbcnn {

/** A dense (M, R, C) grid of 16-bit counters. */
class CountVolume
{
  public:
    CountVolume() = default;

    /** Construct a zeroed (channels, height, width) grid. */
    CountVolume(std::size_t channels, std::size_t height,
                std::size_t width);

    /** @return number of channels. */
    std::size_t channels() const { return channels_; }
    /** @return rows. */
    std::size_t height() const { return height_; }
    /** @return columns. */
    std::size_t width() const { return width_; }

    /** Element access. */
    std::uint16_t &at(std::size_t c, std::size_t r, std::size_t col);
    /** Element access (const). */
    std::uint16_t at(std::size_t c, std::size_t r, std::size_t col) const;

    /** Flat element access (c*H*W + r*W + col order). */
    std::uint16_t atFlat(std::size_t i) const;

    /** @return total element count. */
    std::size_t size() const { return data_.size(); }

    /** @return the flat counters (c*H*W + r*W + col order). */
    std::uint16_t *data() { return data_.data(); }
    /** @return the flat counters (const). */
    const std::uint16_t *data() const { return data_.data(); }

  private:
    std::size_t channels_ = 0;
    std::size_t height_ = 0;
    std::size_t width_ = 0;
    std::vector<std::uint16_t> data_;
};

/**
 * Count the dropped nw-inputs N_d for every output neuron of a conv
 * block: N_d(m, r, c) = Σ_{n,i,j} mask(n, r·s+i−p, c·s+j−p) AND
 * indicator_m(n, i, j).  Zero-padding positions contribute nothing
 * (they were already zero without dropout).
 *
 * @param conv       the block's convolution layer (geometry source)
 * @param input_mask the effective input dropout mask (N, H, W)
 * @param indicators the layer's weight-sign indicator planes
 */
CountVolume countDroppedNwInputs(const Conv2d &conv,
                                 const BitVolume &input_mask,
                                 const LayerIndicators &indicators);

} // namespace fastbcnn

#endif // FASTBCNN_SKIP_NW_COUNTER_HPP
