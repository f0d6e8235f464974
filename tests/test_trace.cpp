/**
 * @file
 * Tests for trace capture: geometry, skip-count consistency, the
 * Cnvlutin work model, census statistics and functional outcomes.
 */

#include <gtest/gtest.h>

#include <random>

#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/pooling.hpp"
#include "trace/trace.hpp"

using namespace fastbcnn;

namespace {

struct Fixture {
    Network net;
    BcnnTopology topo;
    IndicatorSet indicators;
    ThresholdSet thresholds;

    explicit Fixture(int alpha)
        : net(build()), topo(net), indicators(topo),
          thresholds(topo, alpha)
    {}

    static Network
    build()
    {
        Network net("tiny", Shape({1, 8, 8}));
        net.add(std::make_unique<Conv2d>("c1", 1, 3, 3, 1, 1));
        net.add(std::make_unique<ReLU>("r1"));
        net.add(std::make_unique<Dropout>("d1", 0.3));
        net.add(std::make_unique<MaxPool2d>("p1", 2));
        net.add(std::make_unique<Conv2d>("c2", 3, 4, 3));
        net.add(std::make_unique<ReLU>("r2"));
        net.add(std::make_unique<Dropout>("d2", 0.3));
        InitOptions init;
        init.seed = 5;
        initializeWeights(net, init);
        return net;
    }
};

Tensor
randomInput(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> g(0.3f, 1.0f);
    Tensor t(Shape({1, 8, 8}));
    for (float &v : t.data())
        v = g(rng);
    return t;
}

TraceOptions
fastOptions(std::size_t samples = 4)
{
    TraceOptions opts;
    opts.samples = samples;
    opts.brng = BrngKind::Software;
    return opts;
}

} // namespace

TEST(Trace, BlockGeometry)
{
    Fixture f(4);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(1), fastOptions());
    const InferenceTrace &t = b.trace;
    ASSERT_EQ(t.blocks.size(), 2u);
    EXPECT_EQ(t.blocks[0].name, "c1");
    EXPECT_EQ(t.blocks[0].outChannels, 3u);
    EXPECT_EQ(t.blocks[0].outH, 8u);
    EXPECT_EQ(t.blocks[0].plane(), 64u);
    EXPECT_EQ(t.blocks[0].neurons(), 192u);
    EXPECT_EQ(t.blocks[0].macsPerNeuron(), 9u);
    EXPECT_EQ(t.blocks[1].inChannels, 3u);
    EXPECT_EQ(t.blocks[1].outH, 2u);
    EXPECT_EQ(t.samples, 4u);
    EXPECT_EQ(t.perSample.size(), 4u);
}

TEST(Trace, DroppedCountsNearDropRate)
{
    Fixture f(0);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(2), fastOptions(20));
    std::uint64_t dropped = 0, total = 0;
    for (const SampleTrace &s : b.trace.perSample) {
        dropped += s.blocks[0].totalDropped();
        total += b.trace.blocks[0].neurons();
    }
    const double rate = static_cast<double>(dropped) /
                        static_cast<double>(total);
    EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(Trace, SkipIsUnionOfDroppedAndPredicted)
{
    Fixture f(6);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(3), fastOptions());
    for (const SampleTrace &s : b.trace.perSample) {
        for (std::size_t bi = 0; bi < s.blocks.size(); ++bi) {
            const BlockSampleTrace &bst = s.blocks[bi];
            for (std::size_t m = 0; m < bst.skipped.size(); ++m) {
                EXPECT_GE(bst.skipped[m],
                          std::max(bst.dropped[m], bst.predicted[m]));
                EXPECT_LE(bst.skipped[m],
                          bst.dropped[m] + bst.predicted[m]);
                EXPECT_LE(bst.skipped[m],
                          b.trace.blocks[bi].plane());
            }
        }
    }
}

TEST(Trace, AlphaZeroPredictsNothing)
{
    Fixture f(0);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(4), fastOptions());
    for (const SampleTrace &s : b.trace.perSample) {
        for (const BlockSampleTrace &bst : s.blocks) {
            EXPECT_EQ(bst.totalPredicted(), 0u);
            EXPECT_EQ(bst.correctPredictions, 0u);
            EXPECT_EQ(bst.falsePredictions, 0u);
        }
    }
}

TEST(Trace, PredictionBookkeepingConsistent)
{
    Fixture f(8);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(5), fastOptions());
    for (const SampleTrace &s : b.trace.perSample) {
        for (const BlockSampleTrace &bst : s.blocks) {
            EXPECT_EQ(bst.correctPredictions + bst.falsePredictions,
                      bst.totalPredicted());
        }
    }
}

TEST(Trace, CnvWorkBounds)
{
    Fixture f(4);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(6), fastOptions());
    for (const SampleTrace &s : b.trace.perSample) {
        for (std::size_t bi = 0; bi < s.blocks.size(); ++bi) {
            const BlockSampleTrace &bst = s.blocks[bi];
            const std::uint64_t macs = bst.cnvMacsPerChannel;
            for (std::size_t i = 0; i < traceTnValues.size(); ++i) {
                const std::uint64_t lane = bst.cnvLaneCyclesPerChannel[i];
                // The slowest lane is at least the average and at most
                // the whole window's nonzeros.
                EXPECT_GE(lane * traceTnValues[i], macs);
                EXPECT_LE(lane, macs);
            }
            // More lanes can only reduce the bottleneck cycles.
            for (std::size_t i = 1; i < traceTnValues.size(); ++i) {
                EXPECT_LE(bst.cnvLaneCyclesPerChannel[i],
                          bst.cnvLaneCyclesPerChannel[i - 1]);
            }
        }
    }
}

TEST(Trace, FirstLayerCnvForcedDense)
{
    Fixture f(4);
    const Tensor in = randomInput(7);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds, in,
                               fastOptions());
    // Layer 1 is forced dense: its mac count must equal the dense MAC
    // count of the block regardless of input zeros.
    const BlockInfo &b0 = b.trace.blocks[0];
    std::uint64_t dense = 0;
    // Count in-range window positions (padding=1, 3x3 over 8x8).
    for (std::size_t r = 0; r < b0.outH; ++r) {
        for (std::size_t c = 0; c < b0.outW; ++c) {
            for (std::size_t i = 0; i < 3; ++i) {
                for (std::size_t j = 0; j < 3; ++j) {
                    const std::ptrdiff_t ir =
                        static_cast<std::ptrdiff_t>(r + i) - 1;
                    const std::ptrdiff_t ic =
                        static_cast<std::ptrdiff_t>(c + j) - 1;
                    if (ir >= 0 && ic >= 0 && ir < 8 && ic < 8)
                        ++dense;
                }
            }
        }
    }
    for (const SampleTrace &s : b.trace.perSample)
        EXPECT_EQ(s.blocks[0].cnvMacsPerChannel, dense);
}

TEST(Trace, CensusRatiosSane)
{
    Fixture f(8);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(8), fastOptions(10));
    const auto census = censusOf(b.trace);
    ASSERT_EQ(census.size(), 2u);
    for (const BlockCensus &c : census) {
        EXPECT_GE(c.zeroRatio, 0.0);
        EXPECT_LE(c.zeroRatio, 1.0);
        EXPECT_LE(c.unaffectedRatio, c.zeroRatio + 1e-12);
        EXPECT_NEAR(c.affectedRatio,
                    c.zeroRatio - c.unaffectedRatio, 1e-9);
        EXPECT_GE(c.skipRatio, c.droppedRatio - 1e-12);
        EXPECT_GE(c.skipRatio, c.predictedRatio - 1e-12);
        EXPECT_LE(c.skipRatio,
                  c.droppedRatio + c.predictedRatio + 1e-12);
        EXPECT_GE(c.predictionAccuracy, 0.0);
        EXPECT_LE(c.predictionAccuracy, 1.0);
    }
}

TEST(Trace, FirstBlockPredictionsAlwaysCorrect)
{
    // Block 0 has no upstream dropout, so every zero neuron is truly
    // unaffected and predictions there can never be wrong.
    Fixture f(1 << 10);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(9), fastOptions());
    for (const SampleTrace &s : b.trace.perSample)
        EXPECT_EQ(s.blocks[0].falsePredictions, 0u);
}

TEST(Trace, FunctionalOutputsAreDistributions)
{
    Fixture f(6);
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(10), fastOptions());
    (void)b;
    // The tiny fixture has no softmax head; just check the functional
    // block is populated and shapes agree.
    EXPECT_TRUE(b.functional.exactMean.shape() ==
                b.functional.fbMean.shape());
    EXPECT_EQ(b.functional.exactSummary.mean.numel(),
              b.functional.exactMean.numel());
}

TEST(Trace, CaptureFunctionalOptional)
{
    Fixture f(6);
    TraceOptions opts = fastOptions();
    opts.captureFunctional = false;
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds,
                               randomInput(11), opts);
    EXPECT_TRUE(b.functional.exactMean.empty());
    EXPECT_EQ(b.trace.perSample.size(), opts.samples);
}

TEST(Trace, CensusIdenticalWithAndWithoutFunctionalCapture)
{
    // With functional capture the census reads its prediction bits
    // from predictiveForward(); without it, it forms them itself.
    for (int alpha : {2, 6}) {
        Fixture f(alpha);
        const Tensor in = randomInput(14);
        TraceOptions on = fastOptions(8);
        on.brng = BrngKind::Lfsr;
        TraceOptions off = on;
        off.captureFunctional = false;
        const TraceBundle a =
            buildTrace(f.topo, f.indicators, f.thresholds, in, on);
        const TraceBundle b =
            buildTrace(f.topo, f.indicators, f.thresholds, in, off);
        ASSERT_FALSE(a.functional.fbMean.empty());
        ASSERT_EQ(a.trace.perSample.size(), b.trace.perSample.size());
        std::uint64_t predicted = 0;
        for (std::size_t t = 0; t < a.trace.perSample.size(); ++t) {
            for (std::size_t bi = 0; bi < 2; ++bi) {
                const BlockSampleTrace &x = a.trace.perSample[t].blocks[bi];
                const BlockSampleTrace &y = b.trace.perSample[t].blocks[bi];
                EXPECT_EQ(x.dropped, y.dropped);
                EXPECT_EQ(x.predicted, y.predicted);
                EXPECT_EQ(x.skipped, y.skipped);
                EXPECT_EQ(x.cnvLaneCyclesPerChannel,
                          y.cnvLaneCyclesPerChannel);
                EXPECT_EQ(x.cnvMacsPerChannel, y.cnvMacsPerChannel);
                EXPECT_EQ(x.actualUnaffected, y.actualUnaffected);
                EXPECT_EQ(x.correctPredictions, y.correctPredictions);
                EXPECT_EQ(x.falsePredictions, y.falsePredictions);
                predicted += x.totalPredicted();
            }
        }
        EXPECT_GT(predicted, 0u) << "alpha " << alpha;
        const std::vector<BlockCensus> ca = censusOf(a.trace);
        const std::vector<BlockCensus> cb = censusOf(b.trace);
        ASSERT_EQ(ca.size(), cb.size());
        for (std::size_t bi = 0; bi < ca.size(); ++bi) {
            EXPECT_EQ(ca[bi].name, cb[bi].name);
            EXPECT_EQ(ca[bi].neurons, cb[bi].neurons);
            EXPECT_EQ(ca[bi].zeroRatio, cb[bi].zeroRatio);
            EXPECT_EQ(ca[bi].unaffectedRatio, cb[bi].unaffectedRatio);
            EXPECT_EQ(ca[bi].affectedRatio, cb[bi].affectedRatio);
            EXPECT_EQ(ca[bi].unaffectedOfZero, cb[bi].unaffectedOfZero);
            EXPECT_EQ(ca[bi].droppedRatio, cb[bi].droppedRatio);
            EXPECT_EQ(ca[bi].predictedRatio, cb[bi].predictedRatio);
            EXPECT_EQ(ca[bi].skipRatio, cb[bi].skipRatio);
            EXPECT_EQ(ca[bi].predictionAccuracy,
                      cb[bi].predictionAccuracy);
        }
    }
}

TEST(Trace, ZeroSamplesFatal)
{
    Fixture f(4);
    TraceOptions opts = fastOptions(0);
    EXPECT_DEATH(buildTrace(f.topo, f.indicators, f.thresholds,
                            randomInput(12), opts),
                 "at least one");
}

TEST(Trace, DeterministicForSeed)
{
    Fixture f(6);
    const Tensor in = randomInput(13);
    TraceBundle a = buildTrace(f.topo, f.indicators, f.thresholds, in,
                               fastOptions());
    TraceBundle b = buildTrace(f.topo, f.indicators, f.thresholds, in,
                               fastOptions());
    for (std::size_t t = 0; t < a.trace.perSample.size(); ++t) {
        for (std::size_t bi = 0; bi < 2; ++bi) {
            EXPECT_EQ(a.trace.perSample[t].blocks[bi].totalSkipped(),
                      b.trace.perSample[t].blocks[bi].totalSkipped());
        }
    }
}
