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
 * thread-safety of level swaps against concurrent kernel callers.
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
#include "simd/simd.hpp"
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
    const BitVolume b = randomBits(3, 9, 21, 606, 0.7);
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    const std::size_t words = a.wordCount();
    const std::size_t expect_total =
        ref.popcountWords(a.words(), words);
    const std::size_t expect_and =
        ref.andPopcountWords(a.words(), b.words(), words);
    // Channel ranges start at arbitrary (word-misaligned) bit offsets.
    const std::size_t plane = a.height() * a.width();
    for (simd::SimdLevel level : availableLevels()) {
        const simd::SimdKernels &k = simd::kernelsFor(level);
        EXPECT_EQ(k.popcountWords(a.words(), words), expect_total)
            << simd::simdLevelName(level);
        EXPECT_EQ(k.andPopcountWords(a.words(), b.words(), words),
                  expect_and)
            << simd::simdLevelName(level);
        for (std::size_t c = 0; c < a.channels(); ++c) {
            EXPECT_EQ(k.popcountBits(a.words(), c * plane, plane),
                      ref.popcountBits(a.words(), c * plane, plane))
                << simd::simdLevelName(level) << " channel " << c;
        }
        // Zero-length and sub-word ranges.
        EXPECT_EQ(k.popcountBits(a.words(), 7, 0), 0u);
        EXPECT_EQ(k.popcountBits(a.words(), 3, 5),
                  ref.popcountBits(a.words(), 3, 5));
        EXPECT_EQ(k.popcountBits(a.words(), 60, 10),
                  ref.popcountBits(a.words(), 60, 10));
    }
    // The methods themselves dispatch through the active table.
    EXPECT_EQ(a.popcount(), expect_total);
    EXPECT_EQ(a.andPopcount(b), expect_and);
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
    // one packed weight chunk, 1x1 outputs, and kernels too wide for a
    // one-position tile (12) or for the vector path at all (33).
    const simd::SimdKernels &ref =
        simd::kernelsFor(simd::SimdLevel::Scalar);
    const std::size_t out_counts[] = {1, 7, 8, 9, 17};
    std::vector<GenShape> shapes = {{120, 9, 6, 6, 3, 1, 1},
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
        const std::size_t n_out = sh.out_c * out_h * out_w;
        std::vector<float> expect(n_out);
        ref.convForward(in.data(), w.data(), bias.data(), expect.data(),
                        sh.in_c, sh.out_c, sh.h, sh.w, out_h, out_w, sh.k,
                        sh.s, sh.p);
        for (simd::SimdLevel level : availableLevels()) {
            // A guard plane past the end catches stores of pad lanes.
            std::vector<float> got(n_out + out_h * out_w * 8 + 8,
                                   std::numeric_limits<float>::max());
            simd::kernelsFor(level).convForward(
                in.data(), w.data(), bias.data(), got.data(), sh.in_c,
                sh.out_c, sh.h, sh.w, out_h, out_w, sh.k, sh.s, sh.p);
            const bool guard_intact = std::all_of(
                got.begin() + n_out, got.end(), [](float v) {
                    return v == std::numeric_limits<float>::max();
                });
            got.resize(n_out);
            ASSERT_TRUE(guard_intact && bitIdenticalOrBothNan(expect, got))
                << "conv mismatch at level " << simd::simdLevelName(level)
                << " " << sh.in_c << "x" << sh.h << "x" << sh.w << " -> "
                << sh.out_c << " k" << sh.k << " s" << sh.s << " p"
                << sh.p;
        }
        ++cases;
    }
    EXPECT_GT(cases, 250u);
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
        std::vector<std::uint8_t> scratch(simd::countNwInputsScratchBytes(
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
    std::vector<std::uint8_t> scratch(
        simd::countNwInputsScratchBytes(n, k, k, 1, 1, k, p));
    for (simd::SimdLevel level : availableLevels()) {
        std::uint16_t got = 0;
        simd::kernelsFor(level).countNwInputs(mask.words(), ind_words,
                                              &got, scratch.data(), n, 1,
                                              k, k, 1, 1, k, 1, p);
        EXPECT_EQ(got, 0xffffu) << simd::simdLevelName(level);
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
        const auto w =
            randomFloats(conv.weights().numel(), seed++, 0.25f);
        std::copy(w.begin(), w.end(), conv.weights().data().begin());
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

#if FASTBCNN_ENABLE_DCHECKS
TEST(SimdDispatchDeathTest, AndPopcountMismatchedShapesDie)
{
    // Different word counts trip the word-count DCHECK_EQ.
    const BitVolume a(1, 1, 65);
    const BitVolume b(1, 1, 64);
    EXPECT_DEATH((void)a.andPopcount(b), "wordCount");
    // Same word count but different shapes trip the shape DCHECK.
    const BitVolume c(1, 2, 32);
    const BitVolume d(2, 1, 32);
    EXPECT_DEATH((void)c.andPopcount(d), "shape mismatch");
}
#endif

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
