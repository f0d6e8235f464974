/**
 * @file
 * Unit and property tests for the NN substrate: every layer against
 * hand-computed or brute-force references, plus Network DAG checks.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>

#include "common/bitvolume.hpp"
#include "common/math_util.hpp"
#include "nn/activations.hpp"
#include "nn/concat.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"

using namespace fastbcnn;

namespace {

Tensor
randomTensor(const Shape &shape, std::uint64_t seed, bool nonneg = false)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> g(0.0f, 1.0f);
    Tensor t(shape);
    for (float &v : t.data()) {
        v = g(rng);
        if (nonneg)
            v = std::max(v, 0.0f);
    }
    return t;
}

void
randomizeConv(Conv2d &conv, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> g(0.0f, 0.5f);
    for (float &w : conv.weights().data())
        w = g(rng);
    for (float &b : conv.bias().data())
        b = g(rng);
}

} // namespace

TEST(Conv2d, IdentityKernel)
{
    Conv2d conv("c", 1, 1, 1);
    conv.weights()(0, 0, 0, 0) = 1.0f;
    Tensor in = randomTensor(Shape({1, 3, 3}), 1);
    Tensor out = conv.forward({&in}, nullptr);
    EXPECT_TRUE(out.allClose(in));
}

TEST(Conv2d, HandComputed3x3)
{
    // 1 input channel, 1 output channel, all-ones 3x3 kernel over a
    // 3x3 input of 1..9 with no padding: single output = 45 + bias.
    Conv2d conv("c", 1, 1, 3);
    conv.weights().fill(1.0f);
    conv.bias()(0) = 0.5f;
    Tensor in(Shape({1, 3, 3}),
              {1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor out = conv.forward({&in}, nullptr);
    ASSERT_TRUE(out.shape() == Shape({1, 1, 1}));
    EXPECT_FLOAT_EQ(out(0, 0, 0), 45.5f);
}

TEST(Conv2d, PaddingShape)
{
    Conv2d conv("c", 3, 8, 3, 1, 1);
    EXPECT_TRUE(conv.outputShape({Shape({3, 32, 32})}) ==
                Shape({8, 32, 32}));
}

TEST(Conv2d, StrideShape)
{
    Conv2d conv("c", 1, 1, 3, 2, 0);
    EXPECT_TRUE(conv.outputShape({Shape({1, 7, 7})}) ==
                Shape({1, 3, 3}));
}

TEST(Conv2d, BadInputFatal)
{
    Conv2d conv("c", 3, 4, 3);
    EXPECT_DEATH(conv.outputShape({Shape({2, 8, 8})}), "channels");
    EXPECT_DEATH(conv.outputShape({Shape({3, 2, 2})}), "larger");
}

TEST(Conv2d, ZeroParamFatal)
{
    EXPECT_DEATH(Conv2d("c", 0, 1, 3), "positive");
    EXPECT_DEATH(Conv2d("c", 1, 1, 3, 0), "positive");
}

/** Property: the fast forward path equals the checked per-neuron
 *  reference over random geometries. */
class ConvProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ConvProperty, ForwardMatchesComputeNeuron)
{
    std::mt19937_64 rng(GetParam());
    const std::size_t n = 1 + rng() % 5;
    const std::size_t m = 1 + rng() % 6;
    const std::size_t k = 1 + rng() % 3 * 2;  // 1, 3, or 5... odd-ish
    const std::size_t stride = 1 + rng() % 2;
    const std::size_t pad = rng() % (k / 2 + 1);
    const std::size_t h = k + rng() % 6;
    const std::size_t w = k + rng() % 6;

    Conv2d conv("c", n, m, k, stride, pad);
    randomizeConv(conv, GetParam() * 13 + 1);
    Tensor in = randomTensor(Shape({n, h, w}), GetParam() * 7 + 3);
    Tensor out = conv.forward({&in}, nullptr);
    const Shape os = out.shape();
    for (std::size_t mm = 0; mm < os.dim(0); ++mm) {
        for (std::size_t r = 0; r < os.dim(1); ++r) {
            for (std::size_t c = 0; c < os.dim(2); ++c) {
                ASSERT_TRUE(nearlyEqual(out(mm, r, c),
                                        conv.computeNeuron(in, mm, r,
                                                           c),
                                        1e-4f))
                    << "neuron (" << mm << "," << r << "," << c << ")";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Randomized, ConvProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(ReLU, ClampsNegatives)
{
    ReLU relu("r");
    Tensor in(Shape({4}), {-1.0f, 0.0f, 2.0f, -0.5f});
    Tensor out = relu.forward({&in}, nullptr);
    EXPECT_FLOAT_EQ(out(0), 0.0f);
    EXPECT_FLOAT_EQ(out(1), 0.0f);
    EXPECT_FLOAT_EQ(out(2), 2.0f);
    EXPECT_FLOAT_EQ(out(3), 0.0f);
}

TEST(Softmax, NormalizesAndOrders)
{
    Softmax sm("s");
    Tensor in(Shape({3}), {1.0f, 3.0f, 2.0f});
    Tensor out = sm.forward({&in}, nullptr);
    EXPECT_NEAR(out.sum(), 1.0, 1e-6);
    EXPECT_GT(out(1), out(2));
    EXPECT_GT(out(2), out(0));
}

TEST(Softmax, StableForLargeLogits)
{
    Softmax sm("s");
    Tensor in(Shape({2}), {1000.0f, 1000.0f});
    Tensor out = sm.forward({&in}, nullptr);
    EXPECT_NEAR(out(0), 0.5, 1e-6);
}

TEST(Softmax, RequiresRank1)
{
    Softmax sm("s");
    EXPECT_DEATH(sm.outputShape({Shape({1, 2, 2})}), "rank-1");
}

TEST(MaxPool2d, HandComputed)
{
    MaxPool2d pool("p", 2);
    Tensor in(Shape({1, 2, 4}),
              {1, 5, 2, 0,
               3, 4, 1, 7});
    Tensor out = pool.forward({&in}, nullptr);
    ASSERT_TRUE(out.shape() == Shape({1, 1, 2}));
    EXPECT_FLOAT_EQ(out(0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out(0, 0, 1), 7.0f);
}

TEST(MaxPool2d, PaddedWindowTreatsPaddingAsZero)
{
    MaxPool2d pool("p", 3, 1, 1);
    Tensor in(Shape({1, 2, 2}), {-1.0f, -2.0f, -3.0f, -4.0f});
    Tensor out = pool.forward({&in}, nullptr);
    // Every padded window contains zero padding, which dominates the
    // all-negative inputs.
    for (std::size_t i = 0; i < out.numel(); ++i)
        EXPECT_FLOAT_EQ(out.at(i), 0.0f);
}

TEST(AvgPool2d, HandComputed)
{
    AvgPool2d pool("p", 2);
    Tensor in(Shape({1, 2, 2}), {1, 2, 3, 6});
    Tensor out = pool.forward({&in}, nullptr);
    EXPECT_FLOAT_EQ(out(0, 0, 0), 3.0f);
}

TEST(GlobalAvgPool, ReducesToChannels)
{
    GlobalAvgPool gap("g");
    Tensor in(Shape({2, 2, 2}), {1, 1, 1, 1, 2, 2, 2, 6});
    Tensor out = gap.forward({&in}, nullptr);
    ASSERT_TRUE(out.shape() == Shape({2}));
    EXPECT_FLOAT_EQ(out(0), 1.0f);
    EXPECT_FLOAT_EQ(out(1), 3.0f);
}

TEST(Dropout, IdentityWithoutHooks)
{
    Dropout drop("d", 0.3);
    Tensor in = randomTensor(Shape({2, 3, 3}), 5);
    Tensor out = drop.forward({&in}, nullptr);
    EXPECT_TRUE(out.allClose(in));
}

namespace {

/** Hooks returning one fixed mask for every dropout layer. */
class FixedMaskHooks : public ForwardHooks
{
  public:
    explicit FixedMaskHooks(const BitVolume &mask) : mask_(&mask) {}
    const BitVolume *dropoutMask(const std::string &,
                                 const Shape &) override
    {
        return mask_;
    }

  private:
    const BitVolume *mask_;
};

} // namespace

TEST(Dropout, AppliesMask)
{
    Dropout drop("d", 0.3);
    Tensor in(Shape({1, 2, 2}), {1, 2, 3, 4});
    BitVolume mask(1, 2, 2);
    mask.set(0, 0, 1, true);
    mask.set(0, 1, 0, true);
    FixedMaskHooks hooks(mask);
    Tensor out = drop.forward({&in}, &hooks);
    EXPECT_FLOAT_EQ(out(0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out(0, 0, 1), 0.0f);
    EXPECT_FLOAT_EQ(out(0, 1, 0), 0.0f);
    EXPECT_FLOAT_EQ(out(0, 1, 1), 4.0f);
}

TEST(Dropout, WordAtATimeMatchesPerBitReference)
{
    // Sizes around the 64-bit word edges, NaNs on dropped and kept
    // positions alike: kept values pass through bit for bit, dropped
    // ones become +0.0f.
    Dropout drop("d", 0.3);
    const Shape shapes[] = {Shape({1, 1, 1}),  Shape({1, 1, 63}),
                            Shape({1, 1, 64}), Shape({1, 1, 65}),
                            Shape({3, 5, 7}),  Shape({2, 9, 11}),
                            Shape({4, 16, 16})};
    std::mt19937_64 rng(77);
    std::uint64_t seed = 31;
    for (const Shape &shape : shapes) {
        for (double density : {0.0, 0.3, 1.0}) {
            Tensor in = randomTensor(shape, seed++);
            for (float &v : in.data()) {
                if (rng() % 5 == 0)
                    v = std::numeric_limits<float>::quiet_NaN();
            }
            BitVolume mask(shape.dim(0), shape.dim(1), shape.dim(2));
            std::bernoulli_distribution bit(density);
            for (std::size_t i = 0; i < mask.size(); ++i)
                mask.setFlat(i, bit(rng));
            std::vector<float> expect(in.data().begin(), in.data().end());
            for (std::size_t i = 0; i < expect.size(); ++i) {
                if (mask.getFlat(i))
                    expect[i] = 0.0f;
            }
            FixedMaskHooks hooks(mask);
            const Tensor out = drop.forward({&in}, &hooks);
            ASSERT_EQ(out.numel(), expect.size());
            EXPECT_EQ(std::memcmp(out.data().data(), expect.data(),
                                  expect.size() * sizeof(float)),
                      0)
                << shape.toString() << " density " << density;
        }
    }
}

TEST(Dropout, InvalidRateFatal)
{
    EXPECT_DEATH(Dropout("d", 1.0), "outside");
    EXPECT_DEATH(Dropout("d", -0.1), "outside");
}

TEST(Linear, HandComputed)
{
    Linear fc("fc", 2, 2);
    fc.weights().data()[0] = 1.0f;  // w(0,0)
    fc.weights().data()[1] = 2.0f;  // w(0,1)
    fc.weights().data()[2] = -1.0f; // w(1,0)
    fc.weights().data()[3] = 0.5f;  // w(1,1)
    fc.bias()(0) = 0.1f;
    Tensor in(Shape({2}), {3.0f, 4.0f});
    Tensor out = fc.forward({&in}, nullptr);
    EXPECT_FLOAT_EQ(out(0), 11.1f);
    EXPECT_FLOAT_EQ(out(1), -1.0f);
}

TEST(Flatten, PreservesOrder)
{
    Flatten fl("f");
    Tensor in(Shape({1, 2, 2}), {1, 2, 3, 4});
    Tensor out = fl.forward({&in}, nullptr);
    ASSERT_TRUE(out.shape() == Shape({4}));
    EXPECT_FLOAT_EQ(out(2), 3.0f);
}

TEST(Concat, JoinsChannels)
{
    Concat cat("cat", 2);
    Tensor a(Shape({1, 2, 2}), {1, 2, 3, 4});
    Tensor b(Shape({2, 2, 2}), {5, 6, 7, 8, 9, 10, 11, 12});
    Tensor out = cat.forward({&a, &b}, nullptr);
    ASSERT_TRUE(out.shape() == Shape({3, 2, 2}));
    EXPECT_FLOAT_EQ(out(0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out(1, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out(2, 1, 1), 12.0f);
}

TEST(Concat, SpatialMismatchFatal)
{
    Concat cat("cat", 2);
    EXPECT_DEATH(cat.outputShape({Shape({1, 2, 2}), Shape({1, 3, 3})}),
                 "mismatch");
}

TEST(LocalResponseNorm, ShrinksLargeActivations)
{
    LocalResponseNorm lrn("lrn", 5, 1.0f, 0.75f, 2.0f);
    Tensor in(Shape({1, 1, 1}), {10.0f});
    Tensor out = lrn.forward({&in}, nullptr);
    EXPECT_LT(out(0, 0, 0), 10.0f);
    EXPECT_GT(out(0, 0, 0), 0.0f);
}

TEST(Network, SequentialShapeInference)
{
    Network net("n", Shape({1, 8, 8}));
    net.add(std::make_unique<Conv2d>("c1", 1, 4, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    EXPECT_TRUE(net.outputShape() == Shape({4, 4, 4}));
    EXPECT_EQ(net.size(), 3u);
    EXPECT_EQ(net.findNode("r1"), 1u);
}

TEST(Network, DagWithConcat)
{
    Network net("n", Shape({2, 4, 4}));
    NodeId a = net.add(std::make_unique<Conv2d>("a", 2, 3, 1),
                       {Network::inputNode});
    NodeId b = net.add(std::make_unique<Conv2d>("b", 2, 5, 1),
                       {Network::inputNode});
    net.add(std::make_unique<Concat>("cat", 2), {a, b});
    EXPECT_TRUE(net.outputShape() == Shape({8, 4, 4}));
}

TEST(Network, DuplicateNameFatal)
{
    Network net("n", Shape({1, 4, 4}));
    net.add(std::make_unique<ReLU>("r"));
    EXPECT_DEATH(net.add(std::make_unique<ReLU>("r")), "duplicate");
}

TEST(Network, UnknownProducerFatal)
{
    Network net("n", Shape({1, 4, 4}));
    EXPECT_DEATH(net.add(std::make_unique<ReLU>("r"), {5}), "unknown");
}

TEST(Network, InputShapeChecked)
{
    Network net("n", Shape({1, 4, 4}));
    net.add(std::make_unique<ReLU>("r"));
    Tensor wrong(Shape({1, 5, 5}));
    EXPECT_DEATH(net.forward(wrong), "does not match");
}

TEST(Network, TotalMacs)
{
    Network net("n", Shape({1, 4, 4}));
    net.add(std::make_unique<Conv2d>("c", 1, 2, 3, 1, 1));  // 2*16*9
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("fc", 32, 10));        // 320
    EXPECT_EQ(net.totalMacs(), 2u * 16 * 9 + 320);
}

TEST(Network, ForwardDeterministic)
{
    Network net("n", Shape({1, 6, 6}));
    auto conv = std::make_unique<Conv2d>("c", 1, 3, 3);
    randomizeConv(*conv, 9);
    net.add(std::move(conv));
    net.add(std::make_unique<ReLU>("r"));
    Tensor in = randomTensor(Shape({1, 6, 6}), 11);
    Tensor a = net.forward(in);
    Tensor b = net.forward(in);
    EXPECT_TRUE(a.allClose(b, 0.0f));
}

TEST(LayerKindName, CoversAll)
{
    EXPECT_STREQ(layerKindName(LayerKind::Conv2d), "Conv2d");
    EXPECT_STREQ(layerKindName(LayerKind::Dropout), "Dropout");
    EXPECT_STREQ(layerKindName(LayerKind::Concat), "Concat");
    EXPECT_STREQ(layerKindName(LayerKind::LocalResponseNorm),
                 "LocalResponseNorm");
}
