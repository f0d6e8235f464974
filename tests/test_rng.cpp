/**
 * @file
 * Unit tests for the LFSR and the Bernoulli generators, including the
 * Table III empirical drop-rate experiment as a test invariant.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "bayes/hooks.hpp"
#include "bayes/mc_runner.hpp"
#include "common/crc32.hpp"
#include "common/math_util.hpp"
#include "fault/fault.hpp"
#include "models/zoo.hpp"
#include "rng/brng.hpp"

using namespace fastbcnn;

TEST(Lfsr32, ZeroSeedRemapped)
{
    Lfsr32 lfsr(0);
    EXPECT_NE(lfsr.state(), 0u);
}

TEST(Lfsr32, NeverLocksUp)
{
    Lfsr32 lfsr(1);
    for (int i = 0; i < 100000; ++i) {
        lfsr.step();
        ASSERT_NE(lfsr.state(), 0u);
    }
}

TEST(Lfsr32, OutputIsBit)
{
    Lfsr32 lfsr(0xdeadbeef);
    for (int i = 0; i < 1000; ++i) {
        const std::uint32_t b = lfsr.step();
        ASSERT_TRUE(b == 0 || b == 1);
    }
}

TEST(Lfsr32, OutputRoughlyBalanced)
{
    Lfsr32 lfsr(0xace1);
    std::size_t ones = 0;
    const std::size_t n = 100000;
    for (std::size_t i = 0; i < n; ++i)
        ones += lfsr.step();
    const double rate = static_cast<double>(ones) / n;
    EXPECT_NEAR(rate, 0.5, 0.01);
}

TEST(Lfsr32, StatesDoNotRepeatQuickly)
{
    // The taps (25, 26, 30, 32) give a maximal-length sequence, so no
    // state may recur within a modest window.
    Lfsr32 lfsr(42);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 20000; ++i) {
        lfsr.step();
        ASSERT_TRUE(seen.insert(lfsr.state()).second)
            << "state repeated after " << i << " steps";
    }
}

TEST(Lfsr32, DeterministicForSeed)
{
    Lfsr32 a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.step(), b.step());
}

TEST(LfsrBrng, ThresholdMatchesDropRate)
{
    EXPECT_EQ(LfsrBrng(0.5).threshold(), 128u);
    EXPECT_EQ(LfsrBrng(0.2).threshold(), 51u);
    EXPECT_EQ(LfsrBrng(0.1).threshold(), 26u);
    EXPECT_EQ(LfsrBrng(0.0).threshold(), 0u);
    EXPECT_EQ(LfsrBrng(1.0).threshold(), 256u);
}

TEST(LfsrBrng, Uniform8Range)
{
    LfsrBrng brng(0.3);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(brng.nextUniform8(), 256u);
}

TEST(LfsrBrng, ExtremeRates)
{
    LfsrBrng never(0.0);
    LfsrBrng always(1.0);
    for (int i = 0; i < 500; ++i) {
        EXPECT_FALSE(never.nextBit());
        EXPECT_TRUE(always.nextBit());
    }
}

TEST(LfsrBrng, InvalidRateFatal)
{
    EXPECT_DEATH(LfsrBrng(1.5), "probability");
    EXPECT_DEATH(LfsrBrng(-0.1), "probability");
}

/** Table III: empirical drop rate at 2000 and 4000 draws. */
class BrngRateTest
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>>
{
};

TEST_P(BrngRateTest, LfsrRateNearNominal)
{
    const auto [p, n] = GetParam();
    LfsrBrng brng(p, 0x1234);
    // Table III reports |error| < 0.01 at 2000 draws for the LFSR.
    EXPECT_NEAR(measureDropRate(brng, n), p, 0.03);
}

TEST_P(BrngRateTest, SoftwareRateNearNominal)
{
    const auto [p, n] = GetParam();
    SoftwareBrng brng(p, 42);
    EXPECT_NEAR(measureDropRate(brng, n), p, 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    TableThree, BrngRateTest,
    ::testing::Combine(::testing::Values(0.5, 0.3, 0.2, 0.1),
                       ::testing::Values(std::size_t(2000),
                                         std::size_t(4000))));

TEST(MakeBrng, DispatchesKind)
{
    auto lfsr = makeBrng(BrngKind::Lfsr, 0.3, 1);
    auto sw = makeBrng(BrngKind::Software, 0.3, 1);
    EXPECT_NE(dynamic_cast<LfsrBrng *>(lfsr.get()), nullptr);
    EXPECT_NE(dynamic_cast<SoftwareBrng *>(sw.get()), nullptr);
    EXPECT_DOUBLE_EQ(lfsr->dropRate(), 0.3);
}

TEST(MakeBrng, SeedChangesStream)
{
    auto a = makeBrng(BrngKind::Lfsr, 0.5, 1);
    auto b = makeBrng(BrngKind::Lfsr, 0.5, 2);
    int diff = 0;
    for (int i = 0; i < 256; ++i)
        diff += a->nextBit() != b->nextBit() ? 1 : 0;
    EXPECT_GT(diff, 0);
}

TEST(SeedMixing, Splitmix64IsBijectiveOnSamples)
{
    // splitmix64 is a bijection; a million-free spot check: no
    // collisions across a mixed bag of structured seeds.
    std::set<std::uint64_t> seeds;
    for (std::uint64_t s = 0; s < 64; ++s) {
        seeds.insert(s);
        seeds.insert(s << 32);
        seeds.insert(s << 56);
        seeds.insert(~s);
    }
    std::set<std::uint64_t> outputs;
    for (std::uint64_t s : seeds)
        outputs.insert(splitmix64(s));
    EXPECT_EQ(outputs.size(), seeds.size());
}

TEST(SeedMixing, HighWordReachesThe32BitSeed)
{
    // Regression: the old derivation truncated seed * constant to 32
    // bits, so seeds differing only in the high word collided.
    EXPECT_NE(mixSeedTo32(1), mixSeedTo32(1 + (1ull << 32)));
    EXPECT_NE(mixSeedTo32(0), mixSeedTo32(1ull << 63));
    EXPECT_NE(mixSeedTo32(0), 0u);
}

TEST(SeedMixing, SampleSeedsDistinctAcrossRunsAndIndices)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t run = 0; run < 8; ++run) {
        for (std::uint64_t t = 0; t < 64; ++t)
            seen.insert(sampleSeed(run, t));
    }
    EXPECT_EQ(seen.size(), 8u * 64u);
}

namespace {

/** Drop rates whose thresholds cover t = 0, 1, 77, 128, 255 and 256. */
constexpr double fillRates[] = {0.0, 1.0 / 256, 0.3, 0.5, 255.0 / 256,
                                1.0};

/** The next @p n draws of @p brng, one nextBit() each, packed LSB-first. */
std::vector<std::uint64_t>
perBit(Brng &brng, std::size_t n)
{
    std::vector<std::uint64_t> words(ceilDiv<std::size_t>(n, 64), 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (brng.nextBit())
            words[i / 64] |= 1ull << (i % 64);
    }
    return words;
}

/**
 * The next @p n draws of @p brng through fill(), into a buffer whose
 * word past ceil(n / 64) is a sentinel fill() must leave alone.
 */
std::vector<std::uint64_t>
filled(Brng &brng, std::size_t n)
{
    const std::size_t count = ceilDiv<std::size_t>(n, 64);
    std::vector<std::uint64_t> words(count + 1, ~0ull);
    brng.fill(words.data(), n);
    EXPECT_EQ(words[count], ~0ull) << "fill wrote past " << n << " bits";
    words.pop_back();
    return words;
}

} // namespace

TEST(LfsrBrngFill, EqualsNextBitForEveryLength)
{
    // perBit() leaves the bits past n zero, so equal words also pin
    // fill()'s zero tail; the draw after each fill pins the state
    // write-back.
    std::vector<std::size_t> lengths;
    for (std::size_t n = 1; n <= 1000; ++n)
        lengths.push_back(n);
    lengths.push_back(138000);
    for (std::size_t ri = 0; ri < std::size(fillRates); ++ri) {
        const double p = fillRates[ri];
        for (std::size_t n : lengths) {
            const auto seed = static_cast<std::uint32_t>(n * 7 + ri);
            LfsrBrng fast(p, seed), slow(p, seed);
            ASSERT_EQ(filled(fast, n), perBit(slow, n))
                << "p = " << p << ", n = " << n;
            ASSERT_EQ(fast.nextUniform8(), slow.nextUniform8())
                << "p = " << p << ", n = " << n;
        }
    }
}

TEST(LfsrBrngFill, EqualsNextBitFromAnyStartState)
{
    for (double p : fillRates) {
        for (std::size_t prior = 0; prior <= 70; ++prior) {
            for (std::size_t n : {1u, 25u, 63u, 64u, 65u, 130u, 1000u}) {
                LfsrBrng fast(p, 0xbeefu), slow(p, 0xbeefu);
                for (std::size_t i = 0; i < prior; ++i)
                    ASSERT_EQ(fast.nextBit(), slow.nextBit());
                ASSERT_EQ(filled(fast, n), perBit(slow, n))
                    << "p = " << p << ", prior = " << prior
                    << ", n = " << n;
                ASSERT_EQ(fast.nextUniform8(), slow.nextUniform8());
            }
        }
    }
}

TEST(LfsrBrngFill, InterleavesWithNextBit)
{
    for (double p : fillRates) {
        for (std::size_t a : {1u, 37u, 64u, 300u}) {
            for (std::size_t between : {0u, 1u, 5u, 64u}) {
                LfsrBrng fast(p, 99), slow(p, 99);
                ASSERT_EQ(filled(fast, a), perBit(slow, a));
                for (std::size_t i = 0; i < between; ++i)
                    ASSERT_EQ(fast.nextBit(), slow.nextBit());
                ASSERT_EQ(filled(fast, 129), perBit(slow, 129));
                ASSERT_EQ(fast.nextUniform8(), slow.nextUniform8())
                    << "p = " << p << ", a = " << a
                    << ", between = " << between;
            }
        }
    }
}

TEST(BrngFill, BaseFillKeepsPerBitStreams)
{
    // SoftwareBrng and the StuckBrng decorator draw through the base
    // per-bit fill(); the stuck draw (index 100) lands mid-word.
    for (double p : fillRates) {
        for (std::size_t n : {1u, 64u, 99u, 100u, 101u, 1000u}) {
            SoftwareBrng sw_fast(p, 5), sw_slow(p, 5);
            ASSERT_EQ(filled(sw_fast, n), perBit(sw_slow, n));
            ASSERT_EQ(sw_fast.nextBit(), sw_slow.nextBit());
            for (bool stuck : {false, true}) {
                StuckBrng fast(std::make_unique<LfsrBrng>(p, 3), 100,
                               stuck);
                StuckBrng slow(std::make_unique<LfsrBrng>(p, 3), 100,
                               stuck);
                ASSERT_EQ(filled(fast, n), perBit(slow, n))
                    << "p = " << p << ", n = " << n;
                ASSERT_EQ(fast.nextBit(), slow.nextBit());
            }
        }
    }
}

TEST(BrngFill, MeasureDropRateCountsTheSameStream)
{
    for (std::size_t n : {1u, 64u, 4000u, 5000u}) {
        LfsrBrng fast(0.3, 17), slow(0.3, 17);
        const std::vector<std::uint64_t> bits = perBit(slow, n);
        std::size_t ones = 0;
        for (std::uint64_t w : bits)
            ones += static_cast<std::size_t>(std::popcount(w));
        EXPECT_DOUBLE_EQ(measureDropRate(fast, n),
                         static_cast<double>(ones) /
                             static_cast<double>(n));
        EXPECT_EQ(fast.nextUniform8(), slow.nextUniform8());
    }
}

namespace {

/**
 * CRC-32 of every mask sampleMasks() draws over @p net for MC samples
 * t = 0, 1 of runs seeded 1, 2 and 3, in MaskSet order (name, then the
 * mask's words as little-endian bytes).
 */
std::uint32_t
maskStreamCrc(const Network &net)
{
    std::uint32_t crc = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (std::uint64_t t = 0; t < 2; ++t) {
            const auto brng =
                makeBrng(BrngKind::Lfsr, 0.3, sampleSeed(seed, t));
            for (const auto &[name, mask] : sampleMasks(net, *brng)) {
                crc = crc32(name, crc);
                for (std::size_t w = 0; w < mask.wordCount(); ++w) {
                    unsigned char bytes[8];
                    for (int b = 0; b < 8; ++b)
                        bytes[b] = static_cast<unsigned char>(
                            mask.words()[w] >> (8 * b));
                    crc = crc32(bytes, sizeof bytes, crc);
                }
            }
        }
    }
    return crc;
}

} // namespace

TEST(MaskStream, GoldenCrcPinsTheLfsrStream)
{
    // Computed with the per-bit nextBit() sampler: catches fill() and
    // nextBit() drifting from the Lfsr32 stream together.
    ModelOptions vgg;
    vgg.widthMultiplier = 0.5;
    EXPECT_EQ(maskStreamCrc(buildLenet5()), 0x46bf5134u);
    EXPECT_EQ(maskStreamCrc(buildVgg16(vgg)), 0xad7ed800u);
}
