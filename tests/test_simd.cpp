/**
 * @file
 * SimdDispatch: pins the runtime-dispatched kernel layer's central
 * promise — the AVX2 table, when compiled in and supported, produces
 * bit-identical float outputs and bit-identical skip counts to the
 * scalar reference on any input, including non-multiple-of-
 * width shapes, padding/stride edges, NaN/signed-zero values and
 * empty / full dropout masks.  Also covers the 64-byte storage
 * alignment contract, the FASTBCNN_SIMD level parsing, and (in the
 * SimdDispatchConcurrency suite, picked up by the TSan CI regex)
 * thread-safety of level swaps against concurrent kernel callers and
 * of one packed conv layer shared by concurrent callers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bayes/hooks.hpp"
#include "common/aligned.hpp"
#include "common/bitvolume.hpp"
#include "data/synthetic.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "rng/brng.hpp"
#include "simd/kernels_internal.hpp"
#include "simd/simd.hpp"
#include "skip/predictive_inference.hpp"
#include "tensor/tensor.hpp"

using namespace fastbcnn;

namespace {

std::vector<simd::SimdLevel>
availableLevels()
{
    std::vector<simd::SimdLevel> levels;
    for (int l = 0; l < simd::kSimdLevelCount; ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        if (simd::levelAvailable(level))
            levels.push_back(level);
    }
    return levels;
}

/** Forces a dispatch level for one scope, restoring the previous. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(simd::SimdLevel level)
        : saved_(simd::activeLevel())
    {
        simd::setLevel(level);
    }
    ~ScopedLevel() { simd::setLevel(saved_); }

  private:
    simd::SimdLevel saved_;
};

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed, float zero_fraction = 0.0f)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
    std::uniform_real_distribution<float> zero(0.0f, 1.0f);
    std::vector<float> v(n);
    for (float &x : v)
        x = zero(rng) < zero_fraction ? 0.0f : dist(rng);
    return v;
}

BitVolume
randomBits(std::size_t c, std::size_t h, std::size_t w,
           std::uint64_t seed, double density)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    BitVolume v(c, h, w);
    for (std::size_t i = 0; i < v.size(); ++i)
        v.setFlat(i, dist(rng) < density);
    return v;
}

bool
bitIdentical(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(float)) == 0);
}

/**
 * Bit identity up to NaN payload: IEEE 754 leaves which operand's
 * payload (and sign) a NaN result carries to the implementation, and
 * the compiler may commute a scalar add, so a NaN only has to be a NaN.
 */
bool
bitIdenticalOrBothNan(const std::vector<float> &a,
                      const std::vector<float> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i]))
            continue;
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
            return false;
    }
    return true;
}

} // namespace

TEST(SimdDispatch, LevelNamesRoundTrip)
{
    for (int l = 0; l < simd::kSimdLevelCount; ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        simd::SimdLevel parsed;
        ASSERT_TRUE(
            simd::simdLevelFromName(simd::simdLevelName(level), parsed));
        EXPECT_EQ(parsed, level);
    }
    simd::SimdLevel parsed;
    EXPECT_FALSE(simd::simdLevelFromName("avx512", parsed));
    // A retired level name is rejected like any unknown one.
    EXPECT_FALSE(simd::simdLevelFromName("sse4", parsed));
    EXPECT_FALSE(simd::simdLevelFromName("", parsed));
    EXPECT_FALSE(simd::simdLevelFromName("Scalar", parsed));
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndSetLevelClamps)
{
    EXPECT_TRUE(simd::levelAvailable(simd::SimdLevel::Scalar));
    const simd::SimdLevel detected = simd::detectedLevel();
    {
        ScopedLevel force(simd::SimdLevel::Scalar);
        EXPECT_EQ(simd::activeLevel(), simd::SimdLevel::Scalar);
    }
    {
        // Requesting the strongest level installs something available,
        // never something the CPU/build cannot run.
        ScopedLevel force(simd::SimdLevel::Avx2);
        EXPECT_TRUE(simd::levelAvailable(simd::activeLevel()));
        EXPECT_LE(static_cast<int>(simd::activeLevel()),
                  static_cast<int>(detected));
    }
    EXPECT_TRUE(simd::levelAvailable(detected));
}

TEST(SimdDispatch, DenseBitIdenticalAcrossLevels)
{
    const std::size_t in_sizes[] = {1, 2, 7, 8, 9, 16, 23, 40, 129};
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    std::uint64_t seed = 202;
    for (std::size_t in_f : in_sizes) {
        const std::size_t out_f = 5;
        const auto w = randomFloats(out_f * in_f, seed++);
        const auto bias = randomFloats(out_f, seed++);
        const auto x = randomFloats(in_f, seed++);
        std::vector<float> expect(out_f);
        ref.denseForward(w.data(), bias.data(), x.data(),
                         expect.data(), out_f, in_f);
        for (simd::SimdLevel level : availableLevels()) {
            std::vector<float> got(out_f);
            simd::kernelsFor(level).denseForward(
                w.data(), bias.data(), x.data(), got.data(), out_f,
                in_f);
            EXPECT_TRUE(bitIdentical(expect, got))
                << "dense mismatch at level "
                << simd::simdLevelName(level) << " in=" << in_f;
        }
    }
}

TEST(SimdDispatch, PoolBitIdenticalAcrossLevels)
{
    const struct {
        std::size_t ch, h, w, k, s, p;
    } shapes[] = {
        {3, 8, 8, 2, 2, 0},  {2, 9, 11, 3, 1, 1}, {1, 7, 13, 2, 2, 0},
        {2, 10, 10, 3, 2, 1}, {1, 6, 23, 2, 1, 0}, {2, 5, 5, 5, 1, 2},
    };
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    std::uint64_t seed = 303;
    for (const auto &sh : shapes) {
        const std::size_t out_h = (sh.h + 2 * sh.p - sh.k) / sh.s + 1;
        const std::size_t out_w = (sh.w + 2 * sh.p - sh.k) / sh.s + 1;
        const auto in = randomFloats(sh.ch * sh.h * sh.w, seed++);
        const float init =
            sh.p > 0 ? 0.0f : -std::numeric_limits<float>::infinity();
        std::vector<float> expect_max(sh.ch * out_h * out_w);
        std::vector<float> expect_avg(sh.ch * out_h * out_w);
        ref.poolMax(in.data(), expect_max.data(), sh.ch, sh.h, sh.w,
                    out_h, out_w, sh.k, sh.s, sh.p, init);
        ref.poolAvg(in.data(), expect_avg.data(), sh.ch, sh.h, sh.w,
                    out_h, out_w, sh.k, sh.s, sh.p);
        for (simd::SimdLevel level : availableLevels()) {
            std::vector<float> got_max(expect_max.size());
            std::vector<float> got_avg(expect_avg.size());
            simd::kernelsFor(level).poolMax(
                in.data(), got_max.data(), sh.ch, sh.h, sh.w, out_h,
                out_w, sh.k, sh.s, sh.p, init);
            simd::kernelsFor(level).poolAvg(
                in.data(), got_avg.data(), sh.ch, sh.h, sh.w, out_h,
                out_w, sh.k, sh.s, sh.p);
            EXPECT_TRUE(bitIdentical(expect_max, got_max))
                << "max-pool mismatch at level "
                << simd::simdLevelName(level) << " " << sh.h << "x"
                << sh.w << " k" << sh.k << " s" << sh.s;
            EXPECT_TRUE(bitIdentical(expect_avg, got_avg))
                << "avg-pool mismatch at level "
                << simd::simdLevelName(level) << " " << sh.h << "x"
                << sh.w << " k" << sh.k << " s" << sh.s;
        }
    }
}

TEST(SimdDispatch, ReluBitIdenticalIncludingNanAndSignedZero)
{
    std::vector<float> in = {
        1.5f, -2.0f, 0.0f, -0.0f,
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), 3.25f, -0.5f, 7.0f,
        -1e30f};
    const auto more = randomFloats(50, 404);
    in.insert(in.end(), more.begin(), more.end());
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    std::vector<float> expect(in.size());
    ref.relu(in.data(), expect.data(), in.size());
    // The scalar contract: NaN and -0 both map to +0.
    EXPECT_EQ(std::memcmp(&expect[3], &expect[2], sizeof(float)), 0);
    EXPECT_EQ(expect[4], 0.0f);
    for (simd::SimdLevel level : availableLevels()) {
        std::vector<float> got(in.size());
        simd::kernelsFor(level).relu(in.data(), got.data(), in.size());
        EXPECT_TRUE(bitIdentical(expect, got))
            << "relu mismatch at level " << simd::simdLevelName(level);
    }
}

TEST(SimdDispatch, PopcountsAgreeAcrossLevels)
{
    const BitVolume a = randomBits(3, 9, 21, 505, 0.4);
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    const std::size_t words = a.wordCount();
    const std::size_t expect_total =
        ref.popcountWords(a.words(), words);
    for (simd::SimdLevel level : availableLevels()) {
        EXPECT_EQ(simd::kernelsFor(level).popcountWords(a.words(), words),
                  expect_total)
            << simd::simdLevelName(level);
    }
    // The method itself dispatches through the active table.
    EXPECT_EQ(a.popcount(), expect_total);
}

namespace {

/** One generated conv geometry of the conv / count sweeps. */
struct GenShape {
    std::size_t in_c, out_c, h, w, k, s, p;
    std::size_t outH() const { return (h + 2 * p - k) / s + 1; }
    std::size_t outW() const { return (w + 2 * p - k) / s + 1; }
};

/**
 * Shapes that hit every SIMD tail: widths 1-17, stride 1/2, padding
 * 0-2, kernel 1/3/5, channel counts that are not multiples of 8.  A
 * few fixed wide shapes put planes past one 64-bit word, so the count
 * kernel's row loop runs its second and third 64-column chunks.
 */
std::vector<GenShape>
generatedShapes()
{
    std::vector<GenShape> shapes = {
        {1, 3, 7, 66, 3, 1, 1},  {2, 3, 3, 64, 1, 1, 0},
        {2, 5, 3, 65, 3, 1, 0},  {3, 9, 4, 130, 3, 2, 2},
        {2, 7, 5, 130, 5, 1, 2}, {1, 2, 2, 129, 1, 2, 0},
    };
    std::mt19937_64 rng(4242);
    for (std::size_t w = 1; w <= 17; ++w) {
        for (std::size_t s : {1u, 2u}) {
            for (std::size_t p = 0; p <= 2; ++p) {
                for (std::size_t k : {1u, 3u, 5u}) {
                    const std::size_t h = 1 + rng() % 9;
                    if (w + 2 * p < k || h + 2 * p < k)
                        continue;
                    const std::size_t in_c = 1 + rng() % 5;
                    const std::size_t out_c = 1 + rng() % 11;
                    shapes.push_back({in_c, out_c, h, w, k, s, p});
                }
            }
        }
    }
    return shapes;
}

/** Random floats salted with NaN, +-Inf, denormals and -0.0, about
 *  one special per @p every values. */
std::vector<float>
adversarialFloats(std::size_t n, std::uint64_t seed, std::size_t every = 23)
{
    std::vector<float> v = randomFloats(n, seed, 0.1f);
    const float specials[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), -0.0f};
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    for (float &x : v) {
        if (rng() % every == 0)
            x = specials[rng() % std::size(specials)];
    }
    return v;
}

} // namespace

TEST(SimdDispatch, ConvBitIdenticalAcrossLevels)
{
    // The vector conv runs 8 output channels per block and 8 output
    // positions (or 1 position x 8 blocks) per tile, so the sweep
    // fills, overfills and underfills both: out channels 1/7/8/9/17
    // over every generated geometry, shapes whose N*K^2 taps overflow
    // one weight chunk, 1x1 outputs, one-position tiles whose last
    // group slides back over the previous one (120 channels = 15
    // blocks), and kernels too wide for a one-position tile (12) or
    // for the vector path at all (33).  The weights are packed once;
    // every level runs twice on the same packed form, which calls
    // must only read.
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    const std::size_t out_counts[] = {1, 7, 8, 9, 17};
    std::vector<GenShape> shapes = {{120, 9, 6, 6, 3, 1, 1},
                                    {16, 120, 5, 5, 5, 1, 0},
                                    {24, 72, 3, 3, 3, 1, 1},
                                    {45, 17, 7, 5, 5, 2, 2},
                                    {120, 17, 3, 3, 3, 1, 0},
                                    {16, 17, 5, 5, 5, 1, 0},
                                    {2, 9, 12, 13, 12, 1, 0},
                                    {1, 2, 33, 34, 33, 1, 0}};
    std::size_t next = 0;
    for (GenShape sh : generatedShapes()) {
        sh.out_c = out_counts[next++ % std::size(out_counts)];
        shapes.push_back(sh);
    }
    const float inf = std::numeric_limits<float>::infinity();
    std::uint64_t seed = 101;
    std::size_t cases = 0;
    for (const GenShape &sh : shapes) {
        const std::size_t out_h = sh.outH(), out_w = sh.outW();
        const std::size_t taps = sh.in_c * sh.k * sh.k;
        // Specials at about one per two outputs' receptive fields, so
        // most outputs stay finite and still pin the rounding.
        const auto in = adversarialFloats(sh.in_c * sh.h * sh.w, seed++,
                                          2 * taps);
        auto w = randomFloats(sh.out_c * taps, seed++, 0.3f);
        auto bias = randomFloats(sh.out_c, seed++);
        bias[0] = -0.0f;  // a -0.0 bias must survive skipped taps
        // A whole zero lane, and (with a second block) one whole
        // zero block; the last channel gets an Inf and a NaN weight,
        // which turn any padding tap added as w * 0 into a NaN.
        const std::size_t zero_lane = sh.out_c / 2;
        std::fill_n(w.begin() + zero_lane * taps, taps, 0.0f);
        if (sh.out_c > 8) {
            std::fill(w.begin() + 8 * taps,
                      w.begin() + std::min<std::size_t>(16, sh.out_c) * taps,
                      0.0f);
        }
        float *last = w.data() + (sh.out_c - 1) * taps;
        last[0] = inf;
        last[taps - 1] = std::numeric_limits<float>::quiet_NaN();
        const simd::ConvWeights packed(sh.out_c, sh.in_c, sh.k, w.data());
        const std::size_t n_out = sh.out_c * out_h * out_w;
        std::vector<float> expect(n_out);
        ref.packedConvForward(in.data(), packed, bias.data(),
                              expect.data(), sh.h, sh.w, out_h, out_w,
                              sh.s, sh.p);
        for (simd::SimdLevel level : availableLevels()) {
            std::vector<float> first;
            for (int call = 0; call < 2; ++call) {
                // A guard plane past the end catches stores of pad
                // lanes.
                std::vector<float> got(n_out + out_h * out_w * 8 + 8,
                                       std::numeric_limits<float>::max());
                simd::kernelsFor(level).packedConvForward(
                    in.data(), packed, bias.data(), got.data(), sh.h, sh.w,
                    out_h, out_w, sh.s, sh.p);
                const bool guard_intact = std::all_of(
                    got.begin() + n_out, got.end(), [](float v) {
                        return v == std::numeric_limits<float>::max();
                    });
                got.resize(n_out);
                ASSERT_TRUE(guard_intact &&
                            bitIdenticalOrBothNan(expect, got))
                    << "conv mismatch at level "
                    << simd::simdLevelName(level) << " call " << call
                    << " " << sh.in_c << "x" << sh.h << "x" << sh.w
                    << " -> " << sh.out_c << " k" << sh.k << " s" << sh.s
                    << " p" << sh.p;
                if (call == 0)
                    first = got;
                else
                    ASSERT_TRUE(bitIdentical(first, got));
            }
        }
        ++cases;
    }
    EXPECT_GT(cases, 250u);
}

namespace {

/**
 * Conv input of @p c x @p h x @p w with about @p zero_ratio of its
 * values zero, half of them -0.0; the rest are finite and nonzero.
 * Channel 0 is all zeros when @p zero_channel is set.
 */
std::vector<float>
zeroMixedInput(std::size_t c, std::size_t h, std::size_t w,
               std::uint64_t seed, double zero_ratio, bool zero_channel)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_real_distribution<float> dist(0.25f, 2.0f);
    std::vector<float> v(c * h * w);
    for (std::size_t i = 0; i < v.size(); ++i) {
        const bool zero = u(rng) < zero_ratio || (zero_channel && i < h * w);
        const float sign = (rng() & 1) != 0 ? -1.0f : 1.0f;
        v[i] = sign * (zero ? 0.0f : dist(rng));
    }
    return v;
}

/** The zero-skipping AVX2 conv against the scalar level on one case:
 *  @return true when zero skipping ran (its preconditions held). */
bool
zeroSkipMatchesScalar(const GenShape &sh, const std::vector<float> &in,
                      const simd::ConvWeights &w,
                      const std::vector<float> &bias)
{
    const std::size_t out_h = sh.outH(), out_w = sh.outW();
    const std::size_t n_out = sh.out_c * out_h * out_w;
    std::vector<float> expect(n_out), got(n_out), table(n_out);
    simd::kernelsFor(simd::SimdLevel::Scalar)
        .packedConvForward(in.data(), w, bias.data(), expect.data(), sh.h,
                           sh.w, out_h, out_w, sh.s, sh.p);
    const bool ran = simd::detail::avx2ConvForwardOn(
        true, in.data(), w, bias.data(), got.data(), sh.h, sh.w, out_h,
        out_w, sh.s, sh.p);
    simd::kernelsFor(simd::SimdLevel::Avx2)
        .packedConvForward(in.data(), w, bias.data(), table.data(), sh.h,
                           sh.w, out_h, out_w, sh.s, sh.p);
    EXPECT_TRUE(bitIdenticalOrBothNan(expect, got))
        << "zero-skip conv " << sh.in_c << "x" << sh.h << "x" << sh.w
        << " -> " << sh.out_c << " k" << sh.k << " s" << sh.s << " p"
        << sh.p;
    EXPECT_TRUE(bitIdenticalOrBothNan(expect, table));
    return ran;
}

} // namespace

TEST(SimdDispatch, ConvZeroSkipBitIdenticalToScalar)
{
    // The AVX2 conv's zero-skipping path against the scalar level:
    // every generated geometry (widths 1-17, stride 2, padding) at
    // zero ratios 0 to 1 with mixed +-0.0 and an all-zero channel,
    // over out channels 1/7/8/9/17/64/120 (groups of 1, 4 and 8
    // blocks, and slid-back groups).  Weights are finite (with some
    // zeros) and biases non-negative, so skipping may run in every
    // case, and it must.
    if (!simd::levelAvailable(simd::SimdLevel::Avx2))
        GTEST_SKIP() << "AVX2 not available";
    const std::size_t out_counts[] = {1, 7, 8, 9, 17, 64, 120};
    const double ratios[] = {0.0, 0.5, 0.75, 0.95, 1.0};
    std::uint64_t seed = 301;
    std::size_t cases = 0, next = 0;
    for (GenShape sh : generatedShapes()) {
        sh.out_c = out_counts[next++ % std::size(out_counts)];
        const double ratio = ratios[next % std::size(ratios)];
        const std::size_t taps = sh.in_c * sh.k * sh.k;
        const simd::ConvWeights w(
            sh.out_c, sh.in_c, sh.k,
            randomFloats(sh.out_c * taps, seed++, 0.2f).data());
        std::vector<float> bias = randomFloats(sh.out_c, seed++, 0.2f);
        for (float &b : bias)
            b = std::fabs(b);
        const auto in = zeroMixedInput(sh.in_c, sh.h, sh.w, seed++, ratio,
                                       next % 3 == 0);
        EXPECT_TRUE(zeroSkipMatchesScalar(sh, in, w, bias));
        ++cases;
    }
    EXPECT_GT(cases, 250u);
}

TEST(SimdDispatch, ConvZeroSkipSelectedOnSparseLayerInputs)
{
    // Paper-model layer shapes at the census zero ratios: zero
    // skipping is selected where it pays (B-VGG16 x0.5 layers fed by
    // dropout, about 3 inputs in 4 zero, a whole plane of zeros
    // included), not on a dense input, and equals the scalar level
    // either way.
    if (!simd::levelAvailable(simd::SimdLevel::Avx2))
        GTEST_SKIP() << "AVX2 not available";
    struct Case {
        GenShape sh;
        double ratio;
        bool selected;
    };
    const Case cases[] = {{{32, 32, 32, 32, 3, 1, 1}, 0.75, true},
                          {{64, 64, 16, 16, 3, 1, 1}, 0.75, true},
                          {{128, 128, 8, 8, 3, 1, 1}, 0.75, true},
                          {{256, 256, 4, 4, 3, 1, 1}, 0.75, true},
                          {{256, 256, 2, 2, 3, 1, 1}, 0.95, true},
                          {{64, 64, 16, 16, 3, 2, 1}, 0.75, true},
                          {{64, 64, 16, 16, 3, 1, 1}, 1.0, true},
                          {{64, 64, 16, 16, 3, 1, 1}, 0.0, false},
                          {{3, 32, 32, 32, 3, 1, 1}, 0.0, false}};
    std::uint64_t seed = 501;
    for (const Case &c : cases) {
        const GenShape &sh = c.sh;
        const simd::ConvWeights w(
            sh.out_c, sh.in_c, sh.k,
            randomFloats(sh.out_c * sh.in_c * sh.k * sh.k, seed++).data());
        const auto bias = randomFloats(sh.out_c, seed++);
        const auto in =
            zeroMixedInput(sh.in_c, sh.h, sh.w, seed++, c.ratio, true);
        EXPECT_EQ(simd::detail::avx2ZeroSkipSelected(
                      in.data(), w, bias.data(), sh.h, sh.w, sh.outH(),
                      sh.outW(), sh.s, sh.p),
                  c.selected)
            << sh.in_c << "x" << sh.h << "x" << sh.w << " -> " << sh.out_c
            << " s" << sh.s << " at zero ratio " << c.ratio;
        EXPECT_TRUE(zeroSkipMatchesScalar(sh, in, w, bias));
    }
}

TEST(SimdDispatch, ConvZeroSkipFallsBackToDense)
{
    // Each bit-identity precondition alone sends a call dense: one
    // -0.0 bias lane (a skipped w * +0.0 would turn it into +0.0), one
    // Inf or NaN weight (w * 0 is NaN), one non-finite input (a zero
    // weight's lane would see NaN).  The output still equals the
    // scalar level, NaN for NaN.
    if (!simd::levelAvailable(simd::SimdLevel::Avx2))
        GTEST_SKIP() << "AVX2 not available";
    const GenShape sh{64, 65, 8, 8, 3, 1, 1};
    const std::size_t n_w = sh.out_c * sh.in_c * sh.k * sh.k;
    const auto weights = randomFloats(n_w, 601, 0.1f);
    const auto bias = randomFloats(sh.out_c, 602);
    const auto in = zeroMixedInput(sh.in_c, sh.h, sh.w, 603, 0.75, true);
    const auto selected = [&](const simd::ConvWeights &w,
                              const std::vector<float> &b,
                              const std::vector<float> &x) {
        return simd::detail::avx2ZeroSkipSelected(x.data(), w, b.data(),
                                                  sh.h, sh.w, sh.outH(),
                                                  sh.outW(), sh.s, sh.p);
    };
    const simd::ConvWeights clean(sh.out_c, sh.in_c, sh.k, weights.data());
    ASSERT_TRUE(selected(clean, bias, in));

    auto neg_zero_bias = bias;
    neg_zero_bias[9] = -0.0f;  // one lane of the second block
    EXPECT_FALSE(selected(clean, neg_zero_bias, in));
    EXPECT_FALSE(zeroSkipMatchesScalar(sh, in, clean, neg_zero_bias));

    for (const float bad : {std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()}) {
        auto poisoned = weights;
        poisoned[64 * sh.in_c * sh.k * sh.k + 5] = bad;  // last channel
        const simd::ConvWeights w(sh.out_c, sh.in_c, sh.k, poisoned.data());
        EXPECT_FALSE(w.allFinite());
        EXPECT_FALSE(selected(w, bias, in));
        EXPECT_FALSE(zeroSkipMatchesScalar(sh, in, w, bias));

        auto bad_in = in;
        bad_in[sh.h * sh.w + 3] = bad;
        EXPECT_FALSE(selected(clean, bias, bad_in));
        EXPECT_FALSE(zeroSkipMatchesScalar(sh, bad_in, clean, bias));
    }
}

TEST(SimdDispatch, CountNwInputsAgreesAcrossLevels)
{
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    std::uint64_t seed = 707;
    for (const GenShape &sh : generatedShapes()) {
        const std::size_t out_h = sh.outH(), out_w = sh.outW();
        std::vector<BitVolume> ind;
        std::vector<const std::uint64_t *> ind_words;
        for (std::size_t m = 0; m < sh.out_c; ++m)
            ind.push_back(randomBits(sh.in_c, sh.k, sh.k, seed++, 0.5));
        for (const BitVolume &v : ind)
            ind_words.push_back(v.words());
        std::vector<std::uint64_t> scratch(simd::countNwInputsScratchWords(
            sh.in_c, sh.h, sh.w, out_h, out_w, sh.k, sh.p));
        for (double density : {0.0, 0.3, 0.72, 1.0}) {
            const BitVolume mask =
                randomBits(sh.in_c, sh.h, sh.w, seed++, density);
            std::vector<std::uint16_t> expect(sh.out_c * out_h * out_w,
                                              0xabcd);
            ref.countNwInputs(mask.words(), ind_words.data(),
                              expect.data(), scratch.data(), sh.in_c,
                              sh.out_c, sh.h, sh.w, out_h, out_w, sh.k,
                              sh.s, sh.p);
            for (simd::SimdLevel level : availableLevels()) {
                std::vector<std::uint16_t> got(expect.size(), 0x1234);
                simd::kernelsFor(level).countNwInputs(
                    mask.words(), ind_words.data(), got.data(),
                    scratch.data(), sh.in_c, sh.out_c, sh.h, sh.w, out_h,
                    out_w, sh.k, sh.s, sh.p);
                ASSERT_EQ(expect, got)
                    << "count mismatch at level "
                    << simd::simdLevelName(level) << " " << sh.in_c
                    << "x" << sh.h << "x" << sh.w << " k" << sh.k << " s"
                    << sh.s << " p" << sh.p << " density " << density;
            }
        }
    }
}

TEST(SimdDispatch, CountNwInputsSaturatesAt0xffff)
{
    // 7300 channels x 3x3 taps = 65700 > 0xffff dropped nw-inputs in
    // the single output of a 3x3 plane: every level clamps to exactly
    // 0xffff.
    const std::size_t n = 7300, k = 3, p = 0;
    BitVolume mask(n, k, k);
    mask.fill(true);
    BitVolume ind(n, k, k);
    ind.fill(true);
    const std::uint64_t *ind_words[] = {ind.words()};
    std::vector<std::uint64_t> scratch(
        simd::countNwInputsScratchWords(n, k, k, 1, 1, k, p));
    for (simd::SimdLevel level : availableLevels()) {
        std::uint16_t got = 0;
        simd::kernelsFor(level).countNwInputs(mask.words(), ind_words,
                                              &got, scratch.data(), n, 1,
                                              k, k, 1, 1, k, 1, p);
        EXPECT_EQ(got, 0xffffu) << simd::simdLevelName(level);
    }
}

TEST(SimdDispatch, CountNwInputsEdgeCasesMatchScalar)
{
    // N * K * K straddling the 64- and 128-bit word boundaries of the
    // bit rows for K = 1, 3, 5, on 1x1 and 2x2 output planes, a plane
    // of 81 positions (two plane words), stride 2 with padding 2 and
    // stride 3.
    // Kernel 0's indicators are all zero, kernel 1's all one and
    // kernel 2's random; the masks are all zero, all one and random.
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    std::uint64_t seed = 4040;
    std::size_t cases = 0;
    for (std::size_t k : {1u, 3u, 5u}) {
        std::vector<std::size_t> channels;
        for (std::size_t taps : {63u, 64u, 65u, 127u, 128u, 129u}) {
            const std::size_t n = std::max<std::size_t>(1, taps / (k * k));
            for (std::size_t c : {n, n + 1}) {
                if (std::find(channels.begin(), channels.end(), c) ==
                    channels.end())
                    channels.push_back(c);
            }
        }
        struct Geometry {
            std::size_t h, w, s, p;
        };
        const Geometry geometries[] = {
            {k, k, 1, 0},          // 1x1 output
            {k + 1, k + 1, 1, 0},  // 2x2 output
            {9, 9, 1, k / 2},      // 81 positions
            {7, 6, 2, 2},          // stride 2, padding 2
            {10, 11, 3, 1},        // stride 3: one extract per tap
        };
        for (std::size_t n : channels) {
            std::vector<BitVolume> ind;
            ind.emplace_back(n, k, k);
            ind.emplace_back(n, k, k);
            ind.back().fill(true);
            ind.push_back(randomBits(n, k, k, seed++, 0.5));
            std::vector<const std::uint64_t *> ind_words;
            for (const BitVolume &v : ind)
                ind_words.push_back(v.words());
            for (const Geometry &g : geometries) {
                const std::size_t out_h = (g.h + 2 * g.p - k) / g.s + 1;
                const std::size_t out_w = (g.w + 2 * g.p - k) / g.s + 1;
                std::vector<std::uint64_t> scratch(
                    simd::countNwInputsScratchWords(n, g.h, g.w, out_h,
                                                    out_w, k, g.p));
                std::vector<BitVolume> masks;
                masks.emplace_back(n, g.h, g.w);
                masks.emplace_back(n, g.h, g.w);
                masks.back().fill(true);
                masks.push_back(randomBits(n, g.h, g.w, seed++, 0.3));
                for (const BitVolume &mask : masks) {
                    std::vector<std::uint16_t> expect(3 * out_h * out_w,
                                                      0xabcd);
                    ref.countNwInputs(mask.words(), ind_words.data(),
                                      expect.data(), scratch.data(), n, 3,
                                      g.h, g.w, out_h, out_w, k, g.s, g.p);
                    for (simd::SimdLevel level : availableLevels()) {
                        std::vector<std::uint16_t> got(expect.size(),
                                                       0x1234);
                        simd::kernelsFor(level).countNwInputs(
                            mask.words(), ind_words.data(), got.data(),
                            scratch.data(), n, 3, g.h, g.w, out_h, out_w,
                            k, g.s, g.p);
                        ASSERT_EQ(expect, got)
                            << simd::simdLevelName(level) << " n" << n
                            << " k" << k << " " << g.h << "x" << g.w
                            << " s" << g.s << " p" << g.p << " mask bits "
                            << mask.popcount();
                    }
                    ++cases;
                }
            }
        }
    }
    EXPECT_GE(cases, 3u * 5u * 3u * 5u);

    // A 33x33 kernel, wider than one extract serves for every tap.
    const std::size_t n = 2, k = 33, h = 35, w = 36, p = 1;
    const std::size_t out_h = h + 2 * p - k + 1, out_w = w + 2 * p - k + 1;
    const BitVolume mask = randomBits(n, h, w, seed++, 0.3);
    const BitVolume ind = randomBits(n, k, k, seed++, 0.5);
    const std::uint64_t *ind_words[] = {ind.words()};
    std::vector<std::uint64_t> scratch(
        simd::countNwInputsScratchWords(n, h, w, out_h, out_w, k, p));
    std::vector<std::uint16_t> expect(out_h * out_w);
    ref.countNwInputs(mask.words(), ind_words, expect.data(),
                      scratch.data(), n, 1, h, w, out_h, out_w, k, 1, p);
    for (simd::SimdLevel level : availableLevels()) {
        std::vector<std::uint16_t> got(expect.size());
        simd::kernelsFor(level).countNwInputs(
            mask.words(), ind_words, got.data(), scratch.data(), n, 1, h, w,
            out_h, out_w, k, 1, p);
        EXPECT_EQ(expect, got) << "k33 at " << simd::simdLevelName(level);
    }
}

namespace {

/** SamplingHooks that also records every conv output, in order. */
class ConvRecorder : public SamplingHooks
{
  public:
    using SamplingHooks::SamplingHooks;
    void onActivation(const std::string &, LayerKind kind,
                      const Tensor &out) override
    {
        if (kind == LayerKind::Conv2d)
            maps.insert(maps.end(), out.data().begin(), out.data().end());
    }
    std::vector<float> maps;
};

} // namespace

TEST(SimdDispatch, NetworkForwardBitIdenticalAcrossLevels)
{
    Network net("simd-net", Shape({2, 12, 12}));
    net.add(std::make_unique<Conv2d>("c1", 2, 4, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    net.add(std::make_unique<Conv2d>("c2", 4, 3, 3, 1, 0));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<AvgPool2d>("p2", 2));
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("fc", 3 * 2 * 2, 7));
    std::uint64_t seed = 808;
    for (const char *name : {"c1", "c2"}) {
        auto &conv =
            dynamic_cast<Conv2d &>(net.layer(net.findNode(name)));
        conv.setWeights(randomFloats(conv.weights().size(), seed++, 0.25f));
        const auto b = randomFloats(conv.bias().numel(), seed++);
        std::copy(b.begin(), b.end(), conv.bias().data().begin());
    }
    auto &fc = dynamic_cast<Linear &>(net.layer(net.findNode("fc")));
    const auto w = randomFloats(fc.weights().numel(), seed++);
    std::copy(w.begin(), w.end(), fc.weights().data().begin());
    const auto b = randomFloats(fc.bias().numel(), seed++);
    std::copy(b.begin(), b.end(), fc.bias().data().begin());

    const Tensor input(Shape({2, 12, 12}),
                       randomFloats(2 * 12 * 12, seed++));
    std::vector<float> expect;
    {
        ScopedLevel force(simd::SimdLevel::Scalar);
        const Tensor out = net.forward(input);
        expect.assign(out.data().begin(), out.data().end());
    }
    for (simd::SimdLevel level : availableLevels()) {
        ScopedLevel force(level);
        const Tensor out = net.forward(input);
        const std::vector<float> got(out.data().begin(),
                                     out.data().end());
        EXPECT_TRUE(bitIdentical(expect, got))
            << "network forward mismatch at level "
            << simd::simdLevelName(level);
    }

    // The paper models at real channel counts (every conv fills whole
    // 8-channel blocks, late B-VGG16 planes are 4x4 and 2x2, B-LeNet-5
    // c3 has a 1x1 output), one MC sample with fixed-seed dropout
    // masks: every level reproduces every conv map and the logits.
    ModelOptions vgg;
    vgg.widthMultiplier = 0.5;
    const struct {
        Network net;
        Tensor input;
    } models[] = {{buildLenet5(), makeMnistLikeImage(3, 11)},
                  {buildVgg16(vgg), makeCifarLikeImage(5, 12)}};
    for (const auto &m : models) {
        const auto forward = [&m] {
            LfsrBrng brng(0.3, 0x5eedu);
            ConvRecorder hooks(brng);
            const Tensor out = m.net.forward(m.input, &hooks);
            hooks.maps.insert(hooks.maps.end(), out.data().begin(),
                              out.data().end());
            return hooks.maps;
        };
        std::vector<float> want;
        {
            ScopedLevel force(simd::SimdLevel::Scalar);
            want = forward();
        }
        for (simd::SimdLevel level : availableLevels()) {
            ScopedLevel force(level);
            EXPECT_TRUE(bitIdentical(want, forward()))
                << m.net.name() << " forward mismatch at level "
                << simd::simdLevelName(level);
        }
    }
}

TEST(SimdDispatch, PredictiveForwardBitIdenticalAcrossLevels)
{
    // Skip mode end to end on the paper models: for 2 inputs x 2 MC
    // samples, every conv's dropped nw-input counts, the predicted and
    // mispredicted maps and the output bytes of predictiveForward are
    // the same at every level as at the scalar level.
    ModelOptions vgg;
    vgg.widthMultiplier = 0.5;
    struct Model {
        Network net;
        bool cifar;
    };
    const Model models[] = {{buildLenet5(), false},
                            {buildVgg16(vgg), true}};
    for (const Model &model : models) {
        const BcnnTopology topo(model.net);
        const IndicatorSet indicators(topo);
        const ThresholdSet thresholds(topo, 24);
        for (std::uint64_t seed : {1u, 2u}) {
            const Tensor input = model.cifar
                                     ? makeCifarLikeImage(seed, 40 + seed)
                                     : makeMnistLikeImage(seed, 40 + seed);
            for (std::uint32_t sample = 0; sample < 2; ++sample) {
                LfsrBrng brng(0.3, 0x5eedu + 16 * seed + sample);
                const MaskSet masks = sampleMasks(model.net, brng);
                struct Run {
                    std::vector<std::uint16_t> counts;
                    std::vector<BitVolume> predicted, mispredicted;
                    std::vector<float> output;
                };
                const auto run = [&] {
                    Run r;
                    const ZeroMaps zero = computeZeroMaps(topo, input);
                    for (const ConvBlock &b : topo.blocks()) {
                        const auto &conv = static_cast<const Conv2d &>(
                            model.net.layer(b.conv));
                        const CountVolume c = countDroppedNwInputs(
                            conv, effectiveInputMask(topo, b.conv, masks),
                            indicators.of(b.conv));
                        r.counts.insert(r.counts.end(), c.data(),
                                        c.data() + c.size());
                    }
                    PredictiveResult res =
                        predictiveForward(topo, indicators, zero,
                                          thresholds, input, masks);
                    for (auto &[id, map] : res.predicted)
                        r.predicted.push_back(map);
                    for (auto &[id, map] : res.mispredicted)
                        r.mispredicted.push_back(map);
                    r.output.assign(res.output.data().begin(),
                                    res.output.data().end());
                    return r;
                };
                Run want;
                {
                    ScopedLevel force(simd::SimdLevel::Scalar);
                    want = run();
                }
                std::size_t predicted = 0, missed = 0;
                for (const BitVolume &v : want.predicted)
                    predicted += v.popcount();
                for (const BitVolume &v : want.mispredicted)
                    missed += v.popcount();
                EXPECT_GT(predicted, 0u) << model.net.name();
                EXPECT_GT(missed, 0u) << model.net.name();
                for (simd::SimdLevel level : availableLevels()) {
                    if (level == simd::SimdLevel::Scalar)
                        continue;
                    ScopedLevel force(level);
                    const Run got = run();
                    const std::string where =
                        model.net.name() + " at " +
                        simd::simdLevelName(level) + ", seed " +
                        std::to_string(seed) + ", sample " +
                        std::to_string(sample);
                    EXPECT_EQ(want.counts, got.counts) << where;
                    EXPECT_TRUE(want.predicted == got.predicted) << where;
                    EXPECT_TRUE(want.mispredicted == got.mispredicted)
                        << where;
                    EXPECT_TRUE(bitIdentical(want.output, got.output))
                        << where;
                }
            }
        }
    }
}

TEST(SimdAlignment, TensorStorageIs64ByteAligned)
{
    for (std::size_t n : {1u, 7u, 64u, 1000u}) {
        const Tensor t(Shape({n}));
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data().data()) %
                      kCacheLineBytes,
                  0u)
            << "n=" << n;
    }
    const Tensor from_vec(Shape({5}), std::vector<float>(5, 1.0f));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                  from_vec.data().data()) %
                  kCacheLineBytes,
              0u);
}

TEST(SimdAlignment, BitVolumeStorageIs64ByteAlignedWithGuardWord)
{
    for (std::size_t bits : {1u, 63u, 64u, 65u, 1000u}) {
        BitVolume v(1, 1, bits);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.words()) %
                      kCacheLineBytes,
                  0u)
            << "bits=" << bits;
        // The guard word past wordCount() is readable and zero, and
        // stays zero after fill(true).
        v.fill(true);
        EXPECT_EQ(v.words()[v.wordCount()], 0u) << "bits=" << bits;
        EXPECT_EQ(v.popcount(), bits);
    }
}

TEST(SimdDispatchConcurrency, LevelSwapsAreSafeAgainstKernelCallers)
{
    // Worker threads hammer dense + popcount kernels through the
    // active table while the main thread keeps swapping levels; every
    // result must equal the scalar reference no matter which level a
    // call lands on (bit-identity makes mixed-level runs benign).
    const std::size_t in_f = 67, out_f = 9;
    const auto w = randomFloats(out_f * in_f, 909);
    const auto bias = randomFloats(out_f, 910);
    const auto x = randomFloats(in_f, 911);
    const BitVolume bits = randomBits(2, 13, 29, 912, 0.5);
    std::vector<float> expect(out_f);
    simd::kernelsFor(simd::SimdLevel::Scalar)
        .denseForward(w.data(), bias.data(), x.data(), expect.data(),
                      out_f, in_f);
    const std::size_t expect_pop =
        simd::kernelsFor(simd::SimdLevel::Scalar)
            .popcountWords(bits.words(), bits.wordCount());

    std::atomic<bool> mismatch{false};
    std::vector<std::thread> workers;
    workers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&] {
            for (int iter = 0; iter < 200; ++iter) {
                std::vector<float> got(out_f);
                simd::active().denseForward(w.data(), bias.data(),
                                            x.data(), got.data(),
                                            out_f, in_f);
                if (!bitIdentical(expect, got) ||
                    bits.popcount() != expect_pop) {
                    mismatch.store(true);
                }
            }
        });
    }
    const auto levels = availableLevels();
    const simd::SimdLevel saved = simd::activeLevel();
    for (int swap = 0; swap < 400; ++swap)
        simd::setLevel(levels[swap % levels.size()]);
    for (std::thread &worker : workers)
        worker.join();
    simd::setLevel(saved);
    EXPECT_FALSE(mismatch.load());
}

TEST(SimdDispatchConcurrency, ThreadsShareOnePackedConv)
{
    // One packed layer serves concurrent calls at every level: a call
    // only reads the packed weights and zero classes.  A 4x4 plane
    // runs one-position tiles, a 12x12 plane eight-position tiles;
    // the zero weights make every call read the zero classes.  A
    // third input, about 3 in 4 values zero, sends the AVX2 calls
    // through zero skipping.
    const std::size_t in_c = 32, out_c = 64, k = 3;
    const simd::ConvWeights packed(
        out_c, in_c, k,
        randomFloats(out_c * in_c * k * k, 914, 0.1f).data());
    const auto bias = randomFloats(out_c, 915);
    struct Case {
        std::size_t hw;
        std::vector<float> in, expect;
    };
    std::vector<Case> cases;
    for (std::size_t hw : {4u, 12u, 8u}) {
        const float zeros = hw == 8 ? 0.75f : 0.0f;
        Case c{hw, randomFloats(in_c * hw * hw, 916 + hw, zeros),
               std::vector<float>(out_c * hw * hw)};
        simd::kernelsFor(simd::SimdLevel::Scalar)
            .packedConvForward(c.in.data(), packed, bias.data(),
                               c.expect.data(), hw, hw, hw, hw, 1, 1);
        cases.push_back(std::move(c));
    }
    if (simd::levelAvailable(simd::SimdLevel::Avx2)) {
        const Case &sparse = cases.back();
        ASSERT_TRUE(simd::detail::avx2ZeroSkipSelected(
            sparse.in.data(), packed, bias.data(), 8, 8, 8, 8, 1, 1));
    }
    const auto levels = availableLevels();
    std::atomic<bool> mismatch{false};
    std::vector<std::thread> workers;
    workers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            for (int iter = 0; iter < 50; ++iter) {
                const Case &c = cases[(iter + t) % cases.size()];
                std::vector<float> got(c.expect.size());
                simd::kernelsFor(levels[(iter / 2 + t) % levels.size()])
                    .packedConvForward(c.in.data(), packed, bias.data(),
                                       got.data(), c.hw, c.hw, c.hw, c.hw,
                                       1, 1);
                if (!bitIdentical(c.expect, got))
                    mismatch.store(true);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    EXPECT_FALSE(mismatch.load());
}
