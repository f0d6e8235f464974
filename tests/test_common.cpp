/**
 * @file
 * Unit tests for the common module: bit containers, tables, stats,
 * math helpers and logging.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "common/bitvolume.hpp"
#include "common/math_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

using namespace fastbcnn;

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0);
    EXPECT_EQ(ceilDiv(1, 4), 1);
    EXPECT_EQ(ceilDiv(4, 4), 1);
    EXPECT_EQ(ceilDiv(5, 4), 2);
    EXPECT_EQ(ceilDiv<std::uint64_t>(512, 4), 128u);
    EXPECT_EQ(ceilDiv<std::uint64_t>(3, 32), 1u);
}

TEST(MathUtil, RoundUp)
{
    EXPECT_EQ(roundUp(0, 8), 0);
    EXPECT_EQ(roundUp(1, 8), 8);
    EXPECT_EQ(roundUp(8, 8), 8);
    EXPECT_EQ(roundUp(9, 8), 16);
}

TEST(MathUtil, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(65));
    EXPECT_TRUE(isPowerOfTwo(1ull << 63));
}

TEST(MathUtil, ClampValue)
{
    EXPECT_EQ(clampValue(5, 0, 10), 5);
    EXPECT_EQ(clampValue(-1, 0, 10), 0);
    EXPECT_EQ(clampValue(11, 0, 10), 10);
}

TEST(MathUtil, NearlyEqual)
{
    EXPECT_TRUE(nearlyEqual(1.0f, 1.0f, 0.0f));
    EXPECT_TRUE(nearlyEqual(1.0f, 1.0099f, 0.01f));
    EXPECT_FALSE(nearlyEqual(1.0f, 1.02f, 0.01f));
    // Scale grows with the larger magnitude.
    EXPECT_TRUE(nearlyEqual(100.0f, 100.9f, 0.01f));
    // Small values compare against a floor of 1.
    EXPECT_TRUE(nearlyEqual(0.0f, 0.005f, 0.01f));
    EXPECT_FALSE(nearlyEqual(0.0f, 0.02f, 0.01f));
}

TEST(BitVolume, DefaultEmpty)
{
    BitVolume v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.size(), 0u);
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVolume, SetGetRoundTrip)
{
    BitVolume v(3, 4, 5);
    EXPECT_EQ(v.size(), 60u);
    EXPECT_FALSE(v.get(2, 3, 4));
    v.set(2, 3, 4, true);
    EXPECT_TRUE(v.get(2, 3, 4));
    EXPECT_EQ(v.popcount(), 1u);
    v.set(2, 3, 4, false);
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVolume, FlatMatchesIndexed)
{
    BitVolume v(2, 3, 4);
    v.set(1, 2, 3, true);
    EXPECT_TRUE(v.getFlat((1 * 3 + 2) * 4 + 3));
    v.setFlat(0, true);
    EXPECT_TRUE(v.get(0, 0, 0));
}

TEST(BitVolume, FillRespectsPadding)
{
    // 70 bits spans two words; fill(true) must not set the padding
    // bits of the last word or popcount() would overcount.
    BitVolume v(1, 7, 10);
    v.fill(true);
    EXPECT_EQ(v.popcount(), 70u);
    v.fill(false);
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVolume, OrWith)
{
    BitVolume a(1, 1, 8), b(1, 1, 8);
    a.setFlat(0, true);
    b.setFlat(7, true);
    a.orWith(b);
    EXPECT_EQ(a.popcount(), 2u);
    EXPECT_TRUE(a.getFlat(0));
    EXPECT_TRUE(a.getFlat(7));
}

TEST(BitVolume, ForEachSetVisitsEachSetBitOnce)
{
    // Sizes that end mid-word, so the padding bits past size() are
    // part of the last word the visitor reads.
    std::mt19937_64 rng(17);
    for (std::size_t n = 1; n <= 200; ++n) {
        if (n % 64 == 0)
            continue;
        for (double density : {0.0, 0.3, 1.0}) {
            BitVolume v(1, 1, n);
            if (density == 1.0) {
                v.fill(true);
            } else {
                std::bernoulli_distribution bit(density);
                for (std::size_t i = 0; i < n; ++i)
                    v.setFlat(i, bit(rng));
            }
            std::vector<std::size_t> visited;
            v.forEachSet([&](std::size_t i) { visited.push_back(i); });
            std::vector<std::size_t> want;
            for (std::size_t i = 0; i < n; ++i) {
                if (v.getFlat(i))
                    want.push_back(i);
            }
            ASSERT_EQ(visited, want) << "n " << n << " density " << density;
        }
    }
}

TEST(BitVolume, Equality)
{
    BitVolume a(2, 2, 2), b(2, 2, 2), c(1, 2, 4);
    EXPECT_TRUE(a == b);
    b.setFlat(3, true);
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == c);  // same bit count, different shape
}

#if FASTBCNN_ENABLE_DCHECKS
TEST(BitVolume, OutOfRangePanics)
{
    BitVolume v(1, 2, 2);
    EXPECT_DEATH(v.get(1, 0, 0), "out of range");
    EXPECT_DEATH(v.setFlat(4, true), "out of range");
}
#endif

/** Property test: BitVolume agrees with a std::vector<bool> model. */
class BitVolumeProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BitVolumeProperty, MatchesReferenceModel)
{
    const std::size_t seed = GetParam();
    std::mt19937_64 rng(seed);
    const std::size_t c = 1 + rng() % 5;
    const std::size_t h = 1 + rng() % 17;
    const std::size_t w = 1 + rng() % 33;
    BitVolume v(c, h, w);
    std::vector<bool> model(c * h * w, false);
    for (int step = 0; step < 500; ++step) {
        const std::size_t i = rng() % model.size();
        const bool bit = rng() % 2 == 0;
        v.setFlat(i, bit);
        model[i] = bit;
    }
    std::size_t expected = 0;
    for (std::size_t i = 0; i < model.size(); ++i) {
        EXPECT_EQ(v.getFlat(i), model[i]);
        expected += model[i] ? 1 : 0;
    }
    EXPECT_EQ(v.popcount(), expected);
}

INSTANTIATE_TEST_SUITE_P(Randomized, BitVolumeProperty,
                         ::testing::Range<std::size_t>(0, 8));

TEST(Table, AlignsAndCounts)
{
    Table t({"a", "long header"});
    t.addRow({"1", "2"});
    t.addSeparator();
    t.addRow({"333", "4"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("long header"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, Csv)
{
    Table t({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only one"}), "row width");
}

TEST(Format, Printf)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%.2f", 3.14159), "3.14");
    EXPECT_EQ(format("empty"), "empty");
}

TEST(StatGroup, CountersAndGauges)
{
    StatGroup g("pe0");
    g.add("cycles", 10);
    g.add("cycles", 5);
    EXPECT_EQ(g.counter("cycles"), 15u);
    EXPECT_EQ(g.counter("absent"), 0u);
}

TEST(Logging, LevelRoundTrip)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(before);
}
