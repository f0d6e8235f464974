/**
 * @file
 * Tests for the skipping machinery: indicator bits, mask pooling,
 * nw-input counting (against brute force), the predictor, predictive
 * inference invariants and Algorithm 1.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/concat.hpp"
#include "nn/dropout.hpp"
#include "nn/pooling.hpp"
#include "simd/simd.hpp"
#include "skip/predictive_inference.hpp"
#include "skip/threshold_optimizer.hpp"

using namespace fastbcnn;

namespace {

Network
tinyBcnn(std::uint64_t seed = 3, double drop_rate = 0.3)
{
    Network net("tiny", Shape({1, 8, 8}));
    net.add(std::make_unique<Conv2d>("c1", 1, 3, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", drop_rate));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    net.add(std::make_unique<Conv2d>("c2", 3, 4, 3));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", drop_rate));
    InitOptions init;
    init.seed = seed;
    initializeWeights(net, init);
    return net;
}

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

BitVolume
randomMask(std::size_t c, std::size_t h, std::size_t w,
           std::uint64_t seed, double p = 0.3)
{
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution bit(p);
    BitVolume m(c, h, w);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.setFlat(i, bit(rng));
    return m;
}

} // namespace

TEST(Indicator, MatchesWeightSigns)
{
    Conv2d conv("c", 2, 2, 3);
    conv.weights().fill(1.0f);
    conv.weights()(1, 0, 1, 2) = -0.5f;
    conv.weights()(1, 1, 0, 0) = 0.0f;  // w <= 0 counts as negative
    LayerIndicators ind(conv);
    EXPECT_EQ(ind.kernels(), 2u);
    EXPECT_EQ(ind.negativeCount(0), 0u);
    EXPECT_EQ(ind.negativeCount(1), 2u);
    EXPECT_TRUE(ind.kernel(1).get(0, 1, 2));
    EXPECT_TRUE(ind.kernel(1).get(1, 0, 0));
    EXPECT_FALSE(ind.kernel(0).get(0, 0, 0));
    EXPECT_EQ(ind.storageBits(), 2u * 2 * 9);
}

TEST(Indicator, SetCoversAllBlocks)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet set(topo);
    for (const ConvBlock &b : topo.blocks())
        EXPECT_NO_FATAL_FAILURE(set.of(b.conv));
    EXPECT_GT(set.storageBits(), 0u);
    EXPECT_DEATH(set.of(9999), "no indicators");
}

TEST(MaskPool, AllDroppedWindowOnly)
{
    // 2x2 pool: the pooled bit is 1 only when all four bits are 1.
    BitVolume m(1, 2, 4);
    m.set(0, 0, 0, true);
    m.set(0, 0, 1, true);
    m.set(0, 1, 0, true);
    m.set(0, 1, 1, true);  // window 0 fully dropped
    m.set(0, 0, 2, true);  // window 1 partially dropped
    BitVolume out = maskPool(m, 2, 2, 0);
    ASSERT_EQ(out.width(), 2u);
    EXPECT_TRUE(out.get(0, 0, 0));
    EXPECT_FALSE(out.get(0, 0, 1));
}

TEST(MaskPool, PaddingCountsAsDropped)
{
    // 3x3/s1/p1 over a 1x1 mask: the window is 8 padding positions
    // plus the single real bit, so the pooled bit equals that bit.
    BitVolume m(1, 1, 1);
    BitVolume out0 = maskPool(m, 3, 1, 1);
    EXPECT_FALSE(out0.get(0, 0, 0));
    m.set(0, 0, 0, true);
    BitVolume out1 = maskPool(m, 3, 1, 1);
    EXPECT_TRUE(out1.get(0, 0, 0));
}

TEST(MaskPool, PropertyMatchesBruteForce)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        BitVolume m = randomMask(2, 6, 6, seed, 0.5);
        const std::size_t k = 2 + seed % 2, s = 1 + seed % 2;
        BitVolume out = maskPool(m, k, s, 0);
        for (std::size_t c = 0; c < out.channels(); ++c) {
            for (std::size_t r = 0; r < out.height(); ++r) {
                for (std::size_t col = 0; col < out.width(); ++col) {
                    bool all = true;
                    for (std::size_t i = 0; i < k; ++i) {
                        for (std::size_t j = 0; j < k; ++j)
                            all &= m.get(c, r * s + i, col * s + j);
                    }
                    ASSERT_EQ(out.get(c, r, col), all);
                }
            }
        }
    }
}

TEST(MaskAtNode, ResolvesThroughPoolAndRelu)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    MaskSet masks;
    masks.emplace("d1", randomMask(3, 8, 8, 4, 0.5));

    // c2 consumes p1(d1(...)): its effective input mask must be the
    // mask-pooled d1 mask.
    BitVolume expected = maskPool(masks.at("d1"), 2, 2, 0);
    BitVolume got = effectiveInputMask(topo, net.findNode("c2"), masks);
    EXPECT_TRUE(got == expected);

    // c1 consumes the raw input: all-zero mask.
    BitVolume first = effectiveInputMask(topo, net.findNode("c1"),
                                         masks);
    EXPECT_EQ(first.popcount(), 0u);
}

TEST(MaskAtNode, ConcatJoinsMasks)
{
    Network net("cat", Shape({1, 4, 4}));
    NodeId a = net.add(std::make_unique<Conv2d>("ca", 1, 2, 1),
                       {Network::inputNode});
    NodeId ra = net.add(std::make_unique<ReLU>("ra"), {a});
    NodeId da = net.add(std::make_unique<Dropout>("da", 0.3), {ra});
    NodeId b = net.add(std::make_unique<Conv2d>("cb", 1, 1, 1),
                       {Network::inputNode});
    NodeId rb = net.add(std::make_unique<ReLU>("rb"), {b});
    NodeId db = net.add(std::make_unique<Dropout>("db", 0.3), {rb});
    NodeId cat = net.add(std::make_unique<Concat>("cat", 2), {da, db});
    net.add(std::make_unique<Conv2d>("c2", 3, 1, 1), {cat});
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", 0.3));
    BcnnTopology topo(net);

    MaskSet masks;
    masks.emplace("da", randomMask(2, 4, 4, 1, 0.5));
    masks.emplace("db", randomMask(1, 4, 4, 2, 0.5));
    BitVolume got = effectiveInputMask(topo, net.findNode("c2"), masks);
    ASSERT_EQ(got.channels(), 3u);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_EQ(got.get(0, r, c), masks.at("da").get(0, r, c));
            EXPECT_EQ(got.get(1, r, c), masks.at("da").get(1, r, c));
            EXPECT_EQ(got.get(2, r, c), masks.at("db").get(0, r, c));
        }
    }
}

TEST(NwCounter, MatchesBruteForce)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        std::mt19937_64 rng(seed);
        const std::size_t n = 1 + rng() % 3;
        const std::size_t m = 1 + rng() % 3;
        const std::size_t k = 1 + (rng() % 2) * 2;
        const std::size_t pad = rng() % 2;
        Conv2d conv("c", n, m, k, 1, pad);
        std::normal_distribution<float> g(0.0f, 1.0f);
        for (float &w : conv.weights().data())
            w = g(rng);
        const std::size_t h = 5, w = 6;
        BitVolume mask = randomMask(n, h, w, seed * 7 + 1, 0.4);
        LayerIndicators ind(conv);
        CountVolume counts = countDroppedNwInputs(conv, mask, ind);

        const std::size_t out_h = h + 2 * pad - k + 1;
        const std::size_t out_w = w + 2 * pad - k + 1;
        ASSERT_EQ(counts.height(), out_h);
        ASSERT_EQ(counts.width(), out_w);
        for (std::size_t mm = 0; mm < m; ++mm) {
            for (std::size_t r = 0; r < out_h; ++r) {
                for (std::size_t c = 0; c < out_w; ++c) {
                    std::uint32_t expected = 0;
                    for (std::size_t nn = 0; nn < n; ++nn) {
                        for (std::size_t i = 0; i < k; ++i) {
                            for (std::size_t j = 0; j < k; ++j) {
                                const std::ptrdiff_t ir =
                                    static_cast<std::ptrdiff_t>(r + i) -
                                    static_cast<std::ptrdiff_t>(pad);
                                const std::ptrdiff_t ic =
                                    static_cast<std::ptrdiff_t>(c + j) -
                                    static_cast<std::ptrdiff_t>(pad);
                                if (ir < 0 || ic < 0 ||
                                    ir >= static_cast<std::ptrdiff_t>(
                                              h) ||
                                    ic >= static_cast<std::ptrdiff_t>(
                                              w)) {
                                    continue;
                                }
                                if (mask.get(nn, ir, ic) &&
                                    conv.weights()(mm, nn, i, j) <=
                                        0.0f) {
                                    ++expected;
                                }
                            }
                        }
                    }
                    ASSERT_EQ(counts.at(mm, r, c), expected);
                }
            }
        }
    }
}

TEST(Thresholds, SetGetAndMean)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    ThresholdSet set(topo, 5);
    const NodeId c1 = net.findNode("c1");
    EXPECT_EQ(set.of(c1, 0), 5);
    set.set(c1, 1, 9);
    EXPECT_EQ(set.of(c1, 1), 9);
    EXPECT_TRUE(set.has(c1));
    EXPECT_FALSE(set.has(9999));
    EXPECT_GT(set.mean(), 5.0);
    EXPECT_DEATH(set.of(9999, 0), "no thresholds");
}

TEST(Predictor, ZeroIndexGatesPrediction)
{
    BitVolume zeros(1, 2, 2);
    zeros.set(0, 0, 0, true);
    CountVolume counts(1, 2, 2);  // all counts zero
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    ThresholdSet thr(topo, 4);
    // Counts (0) < alpha (4) everywhere, but only the zero-index
    // position may be predicted.
    BitVolume pred = predictUnaffected(zeros, counts, thr,
                                       net.findNode("c1"));
    EXPECT_EQ(pred.popcount(), 1u);
    EXPECT_TRUE(pred.get(0, 0, 0));
}

TEST(Predictor, ThresholdSemantics)
{
    BitVolume zeros(1, 1, 3);
    zeros.fill(true);
    CountVolume counts(1, 1, 3);
    counts.at(0, 0, 0) = 0;
    counts.at(0, 0, 1) = 4;
    counts.at(0, 0, 2) = 5;
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    ThresholdSet thr(topo, 5);  // N_d < 5 predicted
    BitVolume pred = predictUnaffected(zeros, counts, thr,
                                       net.findNode("c1"));
    EXPECT_TRUE(pred.get(0, 0, 0));
    EXPECT_TRUE(pred.get(0, 0, 1));
    EXPECT_FALSE(pred.get(0, 0, 2));  // N_d == alpha is not predicted
}

TEST(Predictor, ActualUnaffected)
{
    BitVolume zeros(1, 1, 2);
    zeros.fill(true);
    Tensor out(Shape({1, 1, 2}), {-0.5f, 0.7f});
    BitVolume u = actualUnaffected(zeros, out);
    EXPECT_TRUE(u.get(0, 0, 0));   // still <= 0
    EXPECT_FALSE(u.get(0, 0, 1));  // flipped positive: affected
}

TEST(Predictor, ZeroMapsMatchPreInference)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    Tensor in = randomInput(2);
    ZeroMaps maps = computeZeroMaps(topo, in);
    CaptureHooks capture(nullptr,
                         [](const std::string &, LayerKind k) {
                             return k == LayerKind::ReLU;
                         });
    net.forward(in, &capture);
    for (const ConvBlock &b : topo.blocks()) {
        const Tensor &relu = capture.activation(
            net.layer(b.relu).name());
        const BitVolume &zeros = maps.at(b.conv);
        for (std::size_t i = 0; i < relu.numel(); ++i)
            ASSERT_EQ(zeros.getFlat(i), relu.at(i) == 0.0f);
    }
}

TEST(PredictiveInference, AlphaZeroIsExact)
{
    // The key functional invariant: with every threshold at 0 nothing
    // is predicted, so the prediction-mode forward equals the exact
    // replayed inference bit for bit, at every node (dropped neurons
    // included: they are zeroed by the Dropout, not at the conv).
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    Tensor in = randomInput(5);
    ZeroMaps zeros = computeZeroMaps(topo, in);
    ThresholdSet thr(topo, 0);

    SoftwareBrng brng(0.3, 21);
    SamplingHooks sample(brng);
    CaptureHooks capture(&sample);
    Tensor exact = net.forward(in, &capture);
    MaskSet masks = sample.takeMasks();

    PredictiveOptions opts;
    opts.captureNodeOutputs = true;
    PredictiveResult res = predictiveForward(topo, ind, zeros, thr, in,
                                             masks, opts);
    EXPECT_EQ(res.predictedNeurons, 0u);
    EXPECT_TRUE(res.output.allClose(exact, 0.0f));
    for (NodeId id = 0; id < net.size(); ++id) {
        const std::string &name = net.layer(id).name();
        EXPECT_TRUE(res.nodeOutputs[id].allClose(capture.activation(name),
                                                 0.0f))
            << name;
    }
}

TEST(PredictiveInference, HugeAlphaPredictsAllZeroIndexed)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    Tensor in = randomInput(6);
    ZeroMaps zeros = computeZeroMaps(topo, in);
    ThresholdSet thr(topo, 1 << 20);

    SoftwareBrng brng(0.3, 22);
    SamplingHooks sample(brng);
    net.forward(in, &sample);
    MaskSet masks = sample.takeMasks();

    PredictiveResult res = predictiveForward(topo, ind, zeros, thr, in,
                                             masks);
    // First block: predictions equal its zero map exactly.
    const ConvBlock &b0 = topo.blocks()[0];
    EXPECT_TRUE(res.predicted.at(b0.conv) == zeros.at(b0.conv));
}

TEST(PredictiveInference, UpToBlockLimitsScope)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    Tensor in = randomInput(7);
    ZeroMaps zeros = computeZeroMaps(topo, in);
    ThresholdSet thr(topo, 1 << 20);

    SoftwareBrng brng(0.3, 23);
    SamplingHooks sample(brng);
    net.forward(in, &sample);
    MaskSet masks = sample.takeMasks();

    PredictiveOptions opts;
    opts.upToBlock = 0;
    PredictiveResult res = predictiveForward(topo, ind, zeros, thr, in,
                                             masks, opts);
    EXPECT_EQ(res.predicted.count(topo.blocks()[0].conv), 1u);
    EXPECT_EQ(res.predicted.count(topo.blocks()[1].conv), 0u);
}

TEST(PredictiveInference, PredictedNeuronsAreZeroInOutput)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    Tensor in = randomInput(8);
    ZeroMaps zeros = computeZeroMaps(topo, in);
    ThresholdSet thr(topo, 8);

    SoftwareBrng brng(0.3, 24);
    SamplingHooks sample(brng);
    net.forward(in, &sample);
    MaskSet masks = sample.takeMasks();

    PredictiveOptions opts;
    opts.captureNodeOutputs = true;
    PredictiveResult res = predictiveForward(topo, ind, zeros, thr, in,
                                             masks, opts);
    for (const ConvBlock &b : topo.blocks()) {
        const Tensor &out = res.nodeOutputs[b.conv];
        const BitVolume &pred = res.predicted.at(b.conv);
        for (std::size_t i = 0; i < out.numel(); ++i) {
            if (pred.getFlat(i)) {
                ASSERT_EQ(out.at(i), 0.0f);
            }
        }
    }
}

namespace {

/**
 * Which conv outputs feed something besides the block chain: 0 = a
 * plain three-block BCNN; 1 = the first conv also feeds a side pool;
 * 2 = the first ReLU also feeds a side pool.  Widths and channel
 * counts are odd so every SIMD tail is hit.
 */
Network
branchyBcnn(int variant, std::uint64_t seed)
{
    Network net("branchy", Shape({3, 13, 11}));
    const NodeId c1 = net.add(std::make_unique<Conv2d>("c1", 3, 9, 3, 1, 1),
                              {Network::inputNode});
    const NodeId r1 = net.add(std::make_unique<ReLU>("r1"), {c1});
    const NodeId d1 = net.add(std::make_unique<Dropout>("d1", 0.3), {r1});
    NodeId next = net.add(std::make_unique<MaxPool2d>("p1", 2), {d1});
    std::size_t channels = 9;
    if (variant != 0) {
        const NodeId side = net.add(std::make_unique<MaxPool2d>("side", 2),
                                    {variant == 1 ? c1 : r1});
        next = net.add(std::make_unique<Concat>("cat", 2), {next, side});
        channels = 18;
    }
    net.add(std::make_unique<Conv2d>("c2", channels, 11, 3, 1, 1), {next});
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", 0.3));
    net.add(std::make_unique<Conv2d>("c3", 11, 7, 3, 2, 1));
    net.add(std::make_unique<ReLU>("r3"));
    net.add(std::make_unique<Dropout>("d3", 0.3));
    InitOptions init;
    init.seed = seed;
    initializeWeights(net, init);
    return net;
}

/**
 * Replays a MaskSet through Network::forward, overwrites the given
 * predicted bits of each conv output with zero before any consumer
 * reads it, and records every node's final output.
 */
class PredictedZeroHooks : public ReplayHooks
{
  public:
    PredictedZeroHooks(const Network &net, const MaskSet &masks,
                       const std::map<NodeId, BitVolume> &predicted)
        : ReplayHooks(masks), net_(&net), predicted_(&predicted),
          outputs_(net.size())
    {}

    void mutateActivation(const std::string &layer_name, LayerKind kind,
                          Tensor &out) override
    {
        const NodeId id = net_->findNode(layer_name);
        const auto it = predicted_->find(id);
        if (kind == LayerKind::Conv2d && it != predicted_->end()) {
            for (std::size_t i = 0; i < out.numel(); ++i) {
                if (it->second.getFlat(i))
                    out.at(i) = 0.0f;
            }
        }
        outputs_[id] = out;
    }

    std::vector<Tensor> takeOutputs() { return std::move(outputs_); }

  private:
    const Network *net_;
    const std::map<NodeId, BitVolume> *predicted_;
    std::vector<Tensor> outputs_;
};

/**
 * Reference of predictiveForward: Eq. 5 for every conv in scope (it
 * reads only masks, zero maps and thresholds), then the ordinary
 * replayed forward with those predicted bits zeroed at each conv.
 */
PredictiveResult
replayWithPredictedZeroed(const BcnnTopology &topo,
                          const IndicatorSet &indicators,
                          const ZeroMaps &zeros,
                          const ThresholdSet &thresholds,
                          const Tensor &input, const MaskSet &masks,
                          std::size_t up_to_block)
{
    const Network &net = topo.network();
    PredictiveResult res;
    for (const ConvBlock &b : topo.blocks()) {
        if (b.index > up_to_block)
            continue;
        const auto &conv = static_cast<const Conv2d &>(net.layer(b.conv));
        BitVolume pred = predictUnaffected(
            zeros.at(b.conv),
            countDroppedNwInputs(conv,
                                 effectiveInputMask(topo, b.conv, masks),
                                 indicators.of(b.conv)),
            thresholds, b.conv);
        res.predictedNeurons += pred.popcount();
        res.predicted.emplace(b.conv, std::move(pred));
    }
    PredictedZeroHooks hooks(net, masks, res.predicted);
    res.output = net.forward(input, &hooks);
    res.nodeOutputs = hooks.takeOutputs();
    return res;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.numel() * sizeof(float)) == 0;
}

} // namespace

TEST(PredictiveInference, EqualsReplayedForwardWithPredictedZeroed)
{
    // Skip mode is the MC-dropout sample with the predicted neurons
    // also zeroed: the ordinary replayed forward that zeroes them at
    // each in-scope conv must agree bit for bit — outputs, every
    // captured node (dropped neurons keep their dense conv and ReLU
    // values; the Dropout zeroes them), prediction maps and counts —
    // across thresholds, scopes, SIMD levels and networks where a
    // conv or ReLU output has a second consumer.
    const simd::SimdLevel saved = simd::activeLevel();
    std::size_t checked = 0, predicted = 0;
    for (int variant = 0; variant < 3; ++variant) {
        for (std::uint64_t seed = 0; seed < 12; ++seed) {
            Network net = branchyBcnn(variant, 100 + seed);
            BcnnTopology topo(net);
            IndicatorSet ind(topo);
            std::mt19937_64 rng(seed);
            std::normal_distribution<float> g(0.2f, 1.0f);
            Tensor in(net.inputShape());
            for (float &v : in.data())
                v = g(rng);
            const ZeroMaps zeros = computeZeroMaps(topo, in);
            const int alphas[] = {0, 4, 12, 1 << 20};
            const ThresholdSet thr(topo, alphas[seed % 4]);
            auto brng = makeBrng(BrngKind::Software, 0.3, 7 + seed);
            const MaskSet masks = sampleMasks(net, *brng);

            PredictiveOptions opts;
            opts.captureNodeOutputs = true;
            opts.upToBlock = seed % 5 == 2 ? 1 : opts.upToBlock;
            const PredictiveResult want = replayWithPredictedZeroed(
                topo, ind, zeros, thr, in, masks, opts.upToBlock);
            for (int l = 0; l < simd::kSimdLevelCount; ++l) {
                simd::setLevel(static_cast<simd::SimdLevel>(l));
                const PredictiveResult got = predictiveForward(
                    topo, ind, zeros, thr, in, masks, opts);
                const std::string where =
                    "variant " + std::to_string(variant) + " seed " +
                    std::to_string(seed) + " level " +
                    simd::simdLevelName(simd::activeLevel());
                ASSERT_TRUE(sameBits(got.output, want.output)) << where;
                ASSERT_EQ(got.predictedNeurons, want.predictedNeurons)
                    << where;
                ASSERT_EQ(got.predicted.size(), want.predicted.size())
                    << where;
                for (const auto &[id, map] : want.predicted)
                    ASSERT_TRUE(got.predicted.at(id) == map) << where;
                ASSERT_EQ(got.nodeOutputs.size(), want.nodeOutputs.size());
                for (NodeId id = 0; id < net.size(); ++id) {
                    ASSERT_TRUE(sameBits(got.nodeOutputs[id],
                                         want.nodeOutputs[id]))
                        << where << " node " << net.layer(id).name();
                }
                ++checked;
            }
            predicted += want.predictedNeurons;
        }
    }
    simd::setLevel(saved);
    EXPECT_EQ(checked, 3u * 12u * simd::kSimdLevelCount);
    EXPECT_GT(predicted, 0u);
}

TEST(Optimizer, MeetsConfidenceWhenFeasible)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    OptimizerOptions opts;
    opts.samples = 4;
    opts.confidence = 0.6;
    OptimizeResult res =
        tryOptimizeThresholds(topo, ind, {randomInput(9)}, opts).value();
    ASSERT_EQ(res.reports.size(), topo.blocks().size());
    for (const BlockTuneReport &r : res.reports)
        EXPECT_GE(r.achievedConfidence, opts.confidence - 1e-9);
}

TEST(Optimizer, HigherConfidenceNeverIncreasesAlpha)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    OptimizerOptions lo, hi;
    lo.samples = hi.samples = 4;
    lo.confidence = 0.55;
    hi.confidence = 0.95;
    const Tensor in = randomInput(10);
    ThresholdSet a =
        tryOptimizeThresholds(topo, ind, {in}, lo).value().thresholds;
    ThresholdSet b =
        tryOptimizeThresholds(topo, ind, {in}, hi).value().thresholds;
    // For the first block the histograms are identical in both runs
    // (no upstream cascade), so a stricter target can only keep or
    // lower each alpha.  Deeper blocks see different cascades, so the
    // guarantee is per-block-conditional and not asserted there.
    const ConvBlock &blk = topo.blocks()[0];
    for (std::size_t m = 0; m < a.layer(blk.conv).size(); ++m)
        EXPECT_LE(b.of(blk.conv, m), a.of(blk.conv, m));
}

TEST(Optimizer, InvalidInputsFatal)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    OptimizerOptions opts;
    const auto expectInvalid = [&](const std::vector<Tensor> &dataset,
                                   const char *needle) {
        Expected<OptimizeResult> res =
            tryOptimizeThresholds(topo, ind, dataset, opts);
        ASSERT_FALSE(res.hasValue()) << needle;
        EXPECT_EQ(res.error().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(res.error().toString().find(needle), std::string::npos)
            << res.error().toString();
    };
    expectInvalid({}, "at least one");
    opts.confidence = 1.5;
    expectInvalid({randomInput(1)}, "confidence");
    opts.confidence = 0.68;
    opts.step = 0;
    expectInvalid({randomInput(1)}, "step");
}

TEST(Optimizer, EvaluatePredictionReflectsThresholds)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    OptimizerOptions opts;
    opts.samples = 3;
    const std::vector<Tensor> data{randomInput(11)};
    // alpha = 0: nothing predicted, everything matches exactly.
    const auto perfect = evaluatePrediction(topo, ind,
                                            ThresholdSet(topo, 0),
                                            data, opts);
    for (const auto &[id, frac] : perfect)
        EXPECT_DOUBLE_EQ(frac, 1.0);
    // Huge alpha: mispredictions possible, fractions stay in [0, 1].
    const auto loose = evaluatePrediction(topo, ind,
                                          ThresholdSet(topo, 1 << 20),
                                          data, opts);
    for (const auto &[id, frac] : loose) {
        EXPECT_GE(frac, 0.0);
        EXPECT_LE(frac, 1.0);
        EXPECT_LE(frac, perfect.at(id) + 1e-12);
    }
}

TEST(Optimizer, EmptyTuningSetIsRecoverableError)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    // The try-path reports the degenerate tuning set as a validation
    // error instead of dying (the serving path hits this when a
    // calibration shard comes back empty).
    Expected<OptimizeResult> res =
        tryOptimizeThresholds(topo, ind, {}, {});
    ASSERT_FALSE(res.hasValue());
    EXPECT_EQ(res.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(res.error().message().find("empty tuning set"),
              std::string::npos);
}

TEST(Optimizer, FullConfidenceIsAcceptedAndConservative)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    OptimizerOptions opts;
    opts.samples = 4;
    opts.confidence = 1.0;  // p_cf = 1.0 is the inclusive upper edge
    Expected<OptimizeResult> res =
        tryOptimizeThresholds(topo, ind, {randomInput(30)}, opts);
    ASSERT_TRUE(res.hasValue()) << res.error().toString();
    // Every kernel must now be perfectly predicted on the tuning set,
    // so each achieved confidence is exactly 1.
    for (const BlockTuneReport &r : res.value().reports)
        EXPECT_DOUBLE_EQ(r.achievedConfidence, 1.0);
    // And a stricter target can never loosen a first-block alpha
    // relative to the default 0.68 run.
    OptimizerOptions dflt;
    dflt.samples = 4;
    ThresholdSet loose =
        tryOptimizeThresholds(topo, ind, {randomInput(30)}, dflt)
            .value()
            .thresholds;
    const ConvBlock &blk = topo.blocks()[0];
    for (std::size_t m = 0; m < loose.layer(blk.conv).size(); ++m)
        EXPECT_LE(res.value().thresholds.of(blk.conv, m),
                  loose.of(blk.conv, m));
}

TEST(Optimizer, AllPositiveKernelKeepsFullThreshold)
{
    // A kernel with no negative weights has N_d = 0 everywhere:
    // dropping positive-weight inputs can only lower the
    // pre-activation, so a zero output can never flip positive and
    // Algorithm 1 never needs to back its alpha off from Th.
    Network net = tinyBcnn(8);
    auto &c1 = static_cast<Conv2d &>(net.layer(net.findNode("c1")));
    for (float &w : c1.weights().data())
        w = std::abs(w) + 0.01f;
    BcnnTopology topo(net);
    IndicatorSet ind(topo);
    OptimizerOptions opts;
    opts.samples = 4;
    opts.confidence = 0.99;
    OptimizeResult res = tryOptimizeThresholds(
        topo, ind, {randomInput(31), randomInput(32)}, opts).value();
    const NodeId conv = topo.blocks()[0].conv;
    for (std::size_t m = 0; m < res.thresholds.layer(conv).size(); ++m)
        EXPECT_EQ(res.thresholds.of(conv, m), opts.initialThreshold)
            << "kernel " << m;
}
