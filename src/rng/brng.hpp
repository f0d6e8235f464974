/**
 * @file
 * Bernoulli random number generators producing dropout bits.
 *
 * Two implementations:
 *  - LfsrBrng: the hardware design from Section V-B3 — eight 32-bit
 *    LFSRs, one output bit each, combined into an 8-bit uniform value
 *    and compared against the threshold t = 2^8 * drop_rate.
 *  - SoftwareBrng: a std::mt19937-backed reference, the "software
 *    approach" column of Table III.
 */

#ifndef FASTBCNN_RNG_BRNG_HPP
#define FASTBCNN_RNG_BRNG_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>

#include "lfsr.hpp"

namespace fastbcnn {

/**
 * Abstract Bernoulli bit source.  nextBit() == true means "this neuron
 * is dropped" (dropout bit 1), matching the paper's convention.
 */
class Brng
{
  public:
    virtual ~Brng() = default;

    /** Draw one dropout bit. */
    virtual bool nextBit() = 0;

    /**
     * Draw the next @p nbits dropout bits into @p words, LSB-first:
     * draw i lands in bit i % 64 of words[i / 64].  Writes exactly
     * ceil(nbits / 64) words; the bits past @p nbits in the last one
     * are zero.  The stream is the one nextBit() yields, so fill() and
     * nextBit() may be interleaved freely.  This default loops
     * nextBit(); LfsrBrng overrides it word-parallel.
     */
    virtual void fill(std::uint64_t *words, std::size_t nbits);

    /** @return the configured drop probability. */
    virtual double dropRate() const = 0;
};

/**
 * Hardware LFSR-based BRNG (Fig. 8 (b)).
 *
 * Eight LFSRs step in lockstep; their output bits form an 8-bit
 * uniform integer u in [0, 255].  The dropout bit is (u < t) with
 * t = round(2^8 * drop_rate).
 */
class LfsrBrng : public Brng
{
  public:
    /**
     * @param drop_rate Bernoulli probability of producing a 1
     * @param seed      distinct seeds are derived per LFSR from this
     */
    explicit LfsrBrng(double drop_rate, std::uint32_t seed = 0x1234u);

    bool nextBit() override;

    /**
     * Word-parallel draw, bit-identical to nextBit(): each register
     * yields up to 25 outputs per shift-and-xor (its nearest tap is 25
     * back), 64 outputs per register form eight bit planes, and u < t
     * is evaluated bit-sliced over the planes, 64 draws at a time.
     */
    void fill(std::uint64_t *words, std::size_t nbits) override;

    double dropRate() const override { return dropRate_; }

    /** @return the 8-bit comparison threshold t = 2^8 * drop_rate. */
    std::uint32_t threshold() const { return threshold_; }

    /** Draw the raw 8-bit uniform value (advances the generator). */
    std::uint32_t nextUniform8();

  private:
    double dropRate_;
    std::uint32_t threshold_;
    std::array<Lfsr32, 8> lfsrs_;
};

/** Software mt19937-based BRNG (Table III comparison column). */
class SoftwareBrng : public Brng
{
  public:
    explicit SoftwareBrng(double drop_rate, std::uint64_t seed = 42);

    bool nextBit() override;
    double dropRate() const override { return dropRate_; }

  private:
    double dropRate_;
    std::mt19937_64 engine_;
    std::bernoulli_distribution dist_;
};

/**
 * Measure the empirical drop rate of @p brng over @p n draws
 * (the Table III experiment): Brng::fill() in blocks, then popcount.
 */
double measureDropRate(Brng &brng, std::size_t n);

} // namespace fastbcnn

#endif // FASTBCNN_RNG_BRNG_HPP
