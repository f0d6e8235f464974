#include "brng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace fastbcnn {

namespace {

/** @return @p x with its 32 bits in reverse order. */
std::uint32_t
reverseBits(std::uint32_t x)
{
    x = (x >> 1 & 0x55555555u) | (x & 0x55555555u) << 1;
    x = (x >> 2 & 0x33333333u) | (x & 0x33333333u) << 2;
    x = (x >> 4 & 0x0f0f0f0fu) | (x & 0x0f0f0f0fu) << 4;
    x = (x >> 8 & 0x00ff00ffu) | (x & 0x00ff00ffu) << 8;
    return x >> 16 | x << 16;
}

/**
 * Advance a bit-reversed Lfsr32 register @p r by @p c <= 25 cycles and
 * @return its c output bits, the k-th output in bit k.
 *
 * Lfsr32 shifts each new stream bit x[m] in at bit 0 and outputs bit
 * 31, so bit j of the reversed register holds x[now - 31 + j]: the
 * next c outputs are bits 1..c, and the recurrence
 * x[m] = x[m-32] ^ x[m-30] ^ x[m-26] ^ x[m-25] gives the next c stream
 * bits as bits 0..c-1 of r ^ r>>2 ^ r>>6 ^ r>>7, valid while c <= 25
 * (the nearest tap).  They enter at the top as the register shifts
 * down by c.
 */
inline std::uint32_t
advanceReversed(std::uint32_t &r, unsigned c)
{
    const std::uint32_t mask = (1u << c) - 1u;
    const std::uint32_t out = r >> 1 & mask;
    const std::uint32_t fb = (r ^ r >> 2 ^ r >> 6 ^ r >> 7) & mask;
    r = r >> c | fb << (32 - c);
    return out;
}

/** advanceReversed() by 64 cycles, as 25 + 25 + 14 spelled out. */
inline std::uint64_t
advanceReversedWord(std::uint32_t &r)
{
    std::uint64_t out = advanceReversed(r, 25);
    out |= static_cast<std::uint64_t>(advanceReversed(r, 25)) << 25;
    out |= static_cast<std::uint64_t>(advanceReversed(r, 14)) << 50;
    return out;
}

/** advanceReversed() by @p n < 64 cycles, in steps of at most 25. */
std::uint64_t
advanceReversedTail(std::uint32_t &r, unsigned n)
{
    std::uint64_t out = 0;
    for (unsigned done = 0; done < n;) {
        const unsigned c = std::min(n - done, 25u);
        out |= static_cast<std::uint64_t>(advanceReversed(r, c)) << done;
        done += c;
    }
    return out;
}

/**
 * Bit-sliced u < t for 64 draws at once: bit k of @p planes[i] is bit
 * i of draw k's u.  Walks t from its top bit down, keeping the draws
 * whose u still equals t's prefix.
 */
inline std::uint64_t
lessThan(const std::array<std::uint64_t, 8> &planes, std::uint32_t t)
{
    if (t > 255)
        return ~0ull;
    std::uint64_t lt = 0;
    std::uint64_t eq = ~0ull;
    for (int i = 7; i >= 0; --i) {
        if (t >> i & 1u) {
            lt |= eq & ~planes[i];
            eq &= planes[i];
        } else {
            eq &= ~planes[i];
        }
    }
    return lt;
}

} // namespace

void
Brng::fill(std::uint64_t *words, std::size_t nbits)
{
    for (std::size_t w = 0; w * 64 < nbits; ++w) {
        const std::size_t n = std::min<std::size_t>(64, nbits - w * 64);
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < n; ++b)
            word |= static_cast<std::uint64_t>(nextBit()) << b;
        words[w] = word;
    }
}

LfsrBrng::LfsrBrng(double drop_rate, std::uint32_t seed)
    : dropRate_(drop_rate),
      threshold_(static_cast<std::uint32_t>(
          std::lround(256.0 * drop_rate))),
      lfsrs_{Lfsr32(seed * 2654435761u + 1), Lfsr32(seed * 40503u + 3),
             Lfsr32(seed ^ 0xdeadbeefu), Lfsr32(seed + 0x9e3779b9u),
             Lfsr32(~seed), Lfsr32(seed << 7 | 5u),
             Lfsr32(seed * 48271u + 11), Lfsr32(seed ^ 0x5bd1e995u)}
{
    FASTBCNN_CHECK(drop_rate >= 0.0 && drop_rate <= 1.0,
                   "drop rate must be a probability");
    // Warm up so correlated seeds decorrelate before first use.
    for (int i = 0; i < 64; ++i)
        (void)nextUniform8();
}

std::uint32_t
LfsrBrng::nextUniform8()
{
    std::uint32_t u = 0;
    for (std::size_t i = 0; i < lfsrs_.size(); ++i)
        u |= lfsrs_[i].step() << i;
    return u;
}

bool
LfsrBrng::nextBit()
{
    return nextUniform8() < threshold_;
}

void
LfsrBrng::fill(std::uint64_t *words, std::size_t nbits)
{
    std::array<std::uint32_t, 8> regs{};
    for (std::size_t i = 0; i < regs.size(); ++i)
        regs[i] = reverseBits(lfsrs_[i].state());

    std::array<std::uint64_t, 8> planes{};
    const std::size_t full = nbits / 64;
    for (std::size_t w = 0; w < full; ++w) {
        for (std::size_t i = 0; i < regs.size(); ++i)
            planes[i] = advanceReversedWord(regs[i]);
        words[w] = lessThan(planes, threshold_);
    }
    if (const unsigned tail = static_cast<unsigned>(nbits % 64)) {
        for (std::size_t i = 0; i < regs.size(); ++i)
            planes[i] = advanceReversedTail(regs[i], tail);
        words[full] = lessThan(planes, threshold_) & ((1ull << tail) - 1);
    }

    // Hand the advanced state back so nextBit() continues the stream.
    // A running register is never all zero, so Lfsr32 takes it as is.
    for (std::size_t i = 0; i < regs.size(); ++i)
        lfsrs_[i] = Lfsr32(reverseBits(regs[i]));
}

SoftwareBrng::SoftwareBrng(double drop_rate, std::uint64_t seed)
    : dropRate_(drop_rate), engine_(seed), dist_(drop_rate)
{
    FASTBCNN_CHECK(drop_rate >= 0.0 && drop_rate <= 1.0,
                   "drop rate must be a probability");
}

bool
SoftwareBrng::nextBit()
{
    return dist_(engine_);
}

double
measureDropRate(Brng &brng, std::size_t n)
{
    FASTBCNN_CHECK(n > 0, "need at least one draw");
    std::array<std::uint64_t, 64> block{};
    std::size_t ones = 0;
    for (std::size_t done = 0; done < n; done += 64 * block.size()) {
        const std::size_t k = std::min(n - done, 64 * block.size());
        brng.fill(block.data(), k);
        for (std::size_t w = 0; w * 64 < k; ++w)
            ones += static_cast<std::size_t>(std::popcount(block[w]));
    }
    return static_cast<double>(ones) / static_cast<double>(n);
}

} // namespace fastbcnn
