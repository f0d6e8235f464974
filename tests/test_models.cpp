/**
 * @file
 * Tests for the model zoo builders, weight initialisation and the
 * activation-sparsity calibration.
 */

#include <gtest/gtest.h>

#include "bayes/hooks.hpp"
#include "bayes/topology.hpp"
#include "data/synthetic.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"

using namespace fastbcnn;

namespace {

ModelOptions
scaled(double width, std::size_t classes = 10)
{
    ModelOptions opts;
    opts.widthMultiplier = width;
    opts.numClasses = classes;
    return opts;
}

} // namespace

TEST(Zoo, LenetShapes)
{
    Network net = buildLenet5(scaled(1.0));
    EXPECT_EQ(net.name(), "B-LeNet-5");
    EXPECT_TRUE(net.inputShape() == Shape({1, 28, 28}));
    EXPECT_TRUE(net.outputShape() == Shape({10}));
    BcnnTopology topo(net);
    ASSERT_EQ(topo.blocks().size(), 3u);
    // Classic LeNet geometry: 6x28x28, 16x10x10, 120x1x1.
    EXPECT_TRUE(topo.blocks()[0].outShape == Shape({6, 28, 28}));
    EXPECT_TRUE(topo.blocks()[1].outShape == Shape({16, 10, 10}));
    EXPECT_TRUE(topo.blocks()[2].outShape == Shape({120, 1, 1}));
}

TEST(Zoo, Vgg16Shapes)
{
    Network net = buildVgg16(scaled(1.0, 100));
    EXPECT_TRUE(net.inputShape() == Shape({3, 32, 32}));
    EXPECT_TRUE(net.outputShape() == Shape({100}));
    BcnnTopology topo(net);
    ASSERT_EQ(topo.blocks().size(), 13u);  // the 13 conv layers
    EXPECT_TRUE(topo.blocks()[0].outShape == Shape({64, 32, 32}));
    EXPECT_TRUE(topo.blocks()[12].outShape == Shape({512, 2, 2}));
}

TEST(Zoo, GooglenetShapes)
{
    Network net = buildGooglenet(scaled(0.25, 100));
    EXPECT_TRUE(net.outputShape() == Shape({100}));
    BcnnTopology topo(net);
    // Stem (3 convs) + 9 inception modules x 6 convs each.
    EXPECT_EQ(topo.blocks().size(), 3u + 9u * 6u);
}

TEST(Zoo, GooglenetConcatChannels)
{
    Network net = buildGooglenet(scaled(1.0, 100));
    // Inception 3a output: 64 + 128 + 32 + 32 = 256 channels at 16x16.
    const NodeId cat = net.findNode("i3a_concat");
    EXPECT_TRUE(net.shapeOf(cat) == Shape({256, 16, 16}));
    // 5b output: 384 + 384 + 128 + 128 = 1024 at 4x4.
    const NodeId cat5b = net.findNode("i5b_concat");
    EXPECT_TRUE(net.shapeOf(cat5b) == Shape({1024, 4, 4}));
}

TEST(Zoo, WidthScaling)
{
    Network full = buildVgg16(scaled(1.0));
    Network half = buildVgg16(scaled(0.5));
    BcnnTopology tf(full), th(half);
    EXPECT_TRUE(tf.blocks()[0].outShape == Shape({64, 32, 32}));
    EXPECT_TRUE(th.blocks()[0].outShape == Shape({32, 32, 32}));
    EXPECT_GT(full.totalMacs(), half.totalMacs() * 3);
}

TEST(Zoo, WidthNeverScalesToZero)
{
    Network net = buildGooglenet(scaled(0.01));
    BcnnTopology topo(net);
    for (const ConvBlock &b : topo.blocks())
        EXPECT_GE(b.outShape.dim(0), 1u);
}

TEST(Zoo, BuildModelDispatch)
{
    EXPECT_EQ(buildModel(ModelKind::LeNet5).name(), "B-LeNet-5");
    ModelOptions small = scaled(0.25, 100);
    EXPECT_EQ(buildModel(ModelKind::Vgg16, small).name(), "B-VGG16");
    EXPECT_EQ(buildModel(ModelKind::GoogLeNet, small).name(),
              "B-GoogLeNet");
    EXPECT_STREQ(modelKindName(ModelKind::Vgg16), "B-VGG16");
}

TEST(Init, Deterministic)
{
    ModelOptions opts = scaled(1.0);
    opts.init.seed = 77;
    Network a = buildLenet5(opts);
    Network b = buildLenet5(opts);
    const auto &ca = static_cast<const Conv2d &>(
        a.layer(a.findNode("c1_conv")));
    const auto &cb = static_cast<const Conv2d &>(
        b.layer(b.findNode("c1_conv")));
    EXPECT_EQ(ca.weights().mckk(), cb.weights().mckk());
    EXPECT_TRUE(ca.bias().allClose(cb.bias(), 0.0f));
}

TEST(Init, SeedChangesWeights)
{
    ModelOptions a = scaled(1.0), b = scaled(1.0);
    a.init.seed = 1;
    b.init.seed = 2;
    Network na = buildLenet5(a);
    Network nb = buildLenet5(b);
    const auto &ca = static_cast<const Conv2d &>(
        na.layer(na.findNode("c1_conv")));
    const auto &cb = static_cast<const Conv2d &>(
        nb.layer(nb.findNode("c1_conv")));
    EXPECT_NE(ca.weights().mckk(), cb.weights().mckk());
}

TEST(Init, BiasesAreNegative)
{
    Network net = buildLenet5(scaled(1.0));
    const auto &conv = static_cast<const Conv2d &>(
        net.layer(net.findNode("c1_conv")));
    for (float b : conv.bias().data())
        EXPECT_LT(b, 0.0f);
}

TEST(Sparsity, CalibrationHitsTarget)
{
    Network net = buildLenet5(scaled(1.0));
    std::vector<Tensor> probes{makeMnistLikeImage(1, 1),
                               makeMnistLikeImage(7, 2)};
    SparsityOptions opts;
    opts.targetZeroRatio = 0.6;
    opts.channelJitter = 0.0;
    calibrateSparsity(net, probes, opts);

    // Measure the post-ReLU zero ratio on the probe inputs.
    BcnnTopology topo(net);
    for (const Tensor &probe : probes) {
        std::vector<Tensor> out(net.size());
        for (NodeId id = 0; id < net.size(); ++id)
            out[id] = net.forwardNode(id, probe, out, nullptr);
        for (const ConvBlock &b : topo.blocks()) {
            const Tensor &relu = out[b.relu];
            if (relu.numel() < 200)
                continue;  // tiny planes have coarse quantiles
            const double zero =
                static_cast<double>(relu.zeroCount()) /
                static_cast<double>(relu.numel());
            EXPECT_NEAR(zero, 0.6, 0.12)
                << net.layer(b.conv).name();
        }
    }
}

TEST(Sparsity, InvalidOptionsFatal)
{
    Network net = buildLenet5(scaled(0.5));
    EXPECT_DEATH(calibrateSparsity(net, {}), "at least one");
    SparsityOptions bad;
    bad.targetZeroRatio = 1.0;
    EXPECT_DEATH(calibrateSparsity(net, {makeMnistLikeImage(0, 0)},
                                   bad),
                 "target zero ratio");
}

TEST(Sparsity, DropRatePlumbing)
{
    ModelOptions opts = scaled(1.0);
    opts.dropRate = 0.42;
    Network net = buildLenet5(opts);
    BcnnTopology topo(net);
    for (const ConvBlock &b : topo.blocks()) {
        const auto &drop = static_cast<const Dropout &>(
            net.layer(b.dropout));
        EXPECT_DOUBLE_EQ(drop.dropRate(), 0.42);
    }
}
