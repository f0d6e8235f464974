/**
 * @file
 * 32-bit linear feedback shift register, modelled after the hardware
 * BRNG of Fast-BCNN (Fig. 8 (b)): taps at positions 25, 26, 30 and 32,
 * i.e. the maximal-length polynomial x^32 + x^30 + x^26 + x^25 + 1.
 */

#ifndef FASTBCNN_RNG_LFSR_HPP
#define FASTBCNN_RNG_LFSR_HPP

#include <cstdint>

namespace fastbcnn {

/**
 * A Fibonacci-style 32-bit LFSR.
 *
 * Each step() shifts the register by one and feeds back the XOR of the
 * tapped bits; the "leftmost" (most significant) bit is read out as a
 * uniformly distributed random bit, exactly as the paper's hardware
 * does.  The all-zero state is forbidden (the register would lock up),
 * so a zero seed is silently remapped.
 */
class Lfsr32
{
  public:
    /** Tap positions (1-indexed from the LSB end, per Fig. 8 (b)). */
    static constexpr unsigned tap1 = 32;
    static constexpr unsigned tap2 = 30;
    static constexpr unsigned tap3 = 26;
    static constexpr unsigned tap4 = 25;

    /**
     * Construct with a seed, which becomes the register contents; 0 is
     * remapped to a fixed non-zero state.
     */
    explicit Lfsr32(std::uint32_t seed = 0xace1u);

    /** Advance one cycle and @return the output bit (0 or 1). */
    std::uint32_t step();

    /** @return the current register contents (for tests). */
    std::uint32_t state() const { return state_; }

  private:
    std::uint32_t state_;
};

} // namespace fastbcnn

#endif // FASTBCNN_RNG_LFSR_HPP
