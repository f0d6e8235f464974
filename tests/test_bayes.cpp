/**
 * @file
 * Unit tests for the Bayesian layer: hooks, uncertainty statistics,
 * topology analysis, the MC-dropout runner, and the adaptive-sample
 * early exit (convergence criterion, budget clamps, and the
 * bit-identity contract across threads x SIMD levels x precision).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>

#include "bayes/adaptive.hpp"
#include "bayes/mc_runner.hpp"
#include "bayes/topology.hpp"
#include "core/engine.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/pooling.hpp"
#include "simd/simd.hpp"

using namespace fastbcnn;

namespace {

Network
tinyBcnn(double drop_rate = 0.3)
{
    Network net("tiny", Shape({1, 6, 6}));
    net.add(std::make_unique<Conv2d>("c1", 1, 2, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", drop_rate));
    net.add(std::make_unique<Conv2d>("c2", 2, 3, 3));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", drop_rate));
    InitOptions init;
    init.seed = 3;
    init.biasShift = 0.0;  // ~50 % zeros; a large shift deadens the net
    initializeWeights(net, init);
    return net;
}

Tensor
ones(const Shape &s)
{
    Tensor t(s);
    t.fill(1.0f);
    return t;
}

} // namespace

TEST(SamplingHooks, GeneratesAndRecords)
{
    SoftwareBrng brng(0.5, 7);
    SamplingHooks hooks(brng);
    const BitVolume *m = hooks.dropoutMask("d", Shape({2, 4, 4}));
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->size(), 32u);
    EXPECT_EQ(hooks.masks().count("d"), 1u);
    EXPECT_TRUE(hooks.masks().at("d") == *m);
}

TEST(SamplingHooks, DeterministicForSeed)
{
    SoftwareBrng a(0.5, 7), b(0.5, 7);
    SamplingHooks ha(a), hb(b);
    const BitVolume *ma = ha.dropoutMask("d", Shape({1, 8, 8}));
    const BitVolume *mb = hb.dropoutMask("d", Shape({1, 8, 8}));
    EXPECT_TRUE(*ma == *mb);
}

TEST(ReplayHooks, ReplaysRecordedMask)
{
    MaskSet masks;
    masks.emplace("d", BitVolume(1, 2, 2));
    masks.at("d").set(0, 1, 1, true);
    ReplayHooks replay(masks);
    const BitVolume *m = replay.dropoutMask("d", Shape({1, 2, 2}));
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(m->get(0, 1, 1));
    EXPECT_EQ(replay.dropoutMask("other", Shape({1, 2, 2})), nullptr);
}

TEST(ReplayHooks, ReproducesForwardExactly)
{
    Network net = tinyBcnn();
    Tensor in = ones(Shape({1, 6, 6}));
    SoftwareBrng brng(0.4, 11);
    SamplingHooks sample(brng);
    Tensor a = net.forward(in, &sample);
    MaskSet masks = sample.takeMasks();
    ReplayHooks replay(masks);
    Tensor b = net.forward(in, &replay);
    EXPECT_TRUE(a.allClose(b, 0.0f));
}

TEST(CaptureHooks, FiltersByKind)
{
    Network net = tinyBcnn();
    CaptureHooks capture(nullptr,
                         [](const std::string &, LayerKind k) {
                             return k == LayerKind::Conv2d;
                         });
    net.forward(ones(Shape({1, 6, 6})), &capture);
    EXPECT_EQ(capture.activations().size(), 2u);
    EXPECT_NO_FATAL_FAILURE(capture.activation("c1"));
    EXPECT_DEATH(capture.activation("r1"), "no captured");
}

TEST(CaptureHooks, DelegatesMasks)
{
    SoftwareBrng brng(0.5, 3);
    SamplingHooks inner(brng);
    CaptureHooks capture(&inner);
    EXPECT_NE(capture.dropoutMask("d", Shape({1, 2, 2})), nullptr);
}

TEST(Uncertainty, EntropyUniformAndDelta)
{
    Tensor uniform(Shape({4}), {0.25f, 0.25f, 0.25f, 0.25f});
    EXPECT_NEAR(entropy(uniform), std::log(4.0), 1e-6);
    Tensor delta(Shape({4}), {1.0f, 0.0f, 0.0f, 0.0f});
    EXPECT_NEAR(entropy(delta), 0.0, 1e-9);
}

TEST(Uncertainty, SummaryMeanVariance)
{
    std::vector<Tensor> samples{
        Tensor(Shape({2}), {1.0f, 0.0f}),
        Tensor(Shape({2}), {0.0f, 1.0f}),
    };
    UncertaintySummary s = summarizeSamples(samples);
    EXPECT_FLOAT_EQ(s.mean(0), 0.5f);
    EXPECT_FLOAT_EQ(s.mean(1), 0.5f);
    EXPECT_FLOAT_EQ(s.variance(0), 0.25f);
    // Identical per-sample entropies (0) vs mean entropy ln 2: the
    // disagreement is purely epistemic.
    EXPECT_NEAR(s.mutualInformation, std::log(2.0), 1e-6);
    EXPECT_NEAR(s.expectedEntropy, 0.0, 1e-9);
}

TEST(Uncertainty, ArgmaxTracksLargestMean)
{
    std::vector<Tensor> samples{Tensor(Shape({3}), {0.2f, 0.5f, 0.3f})};
    UncertaintySummary s = summarizeSamples(samples);
    EXPECT_EQ(s.argmax, 1u);
    EXPECT_FLOAT_EQ(static_cast<float>(s.maxProbability), 0.5f);
}

TEST(Uncertainty, IdenticalSamplesHaveZeroMi)
{
    std::vector<Tensor> samples(
        3, Tensor(Shape({2}), {0.7f, 0.3f}));
    UncertaintySummary s = summarizeSamples(samples);
    EXPECT_NEAR(s.mutualInformation, 0.0, 1e-6);
    EXPECT_NEAR(s.variance(0), 0.0, 1e-9);
}

TEST(Topology, ExtractsBlocksInOrder)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    ASSERT_EQ(topo.blocks().size(), 2u);
    EXPECT_EQ(net.layer(topo.blocks()[0].conv).name(), "c1");
    EXPECT_EQ(net.layer(topo.blocks()[0].dropout).name(), "d1");
    EXPECT_EQ(net.layer(topo.blocks()[1].conv).name(), "c2");
    EXPECT_EQ(topo.blocks()[1].index, 1u);
    EXPECT_TRUE(topo.blocks()[1].outShape == Shape({3, 4, 4}));
}

TEST(Topology, BlockLookups)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    const ConvBlock &b = topo.blockOfDropout("d2");
    EXPECT_EQ(net.layer(b.conv).name(), "c2");
    EXPECT_EQ(&topo.blockOfConv(b.conv), &b);
    EXPECT_DEATH(topo.blockOfDropout("nope"), "no conv block");
}

TEST(Topology, PlainCnnFatal)
{
    Network net("cnn", Shape({1, 6, 6}));
    net.add(std::make_unique<Conv2d>("c", 1, 2, 3));
    net.add(std::make_unique<ReLU>("r"));
    EXPECT_DEATH(BcnnTopology{net}, "no dropout");
}

TEST(Topology, ConvWithoutReluFatal)
{
    Network net("cnn", Shape({1, 6, 6}));
    net.add(std::make_unique<Conv2d>("c", 1, 2, 3));
    net.add(std::make_unique<Dropout>("d", 0.3));
    EXPECT_DEATH(BcnnTopology{net}, "ReLU");
}

TEST(Topology, ConsumersComputed)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    const NodeId c1 = net.findNode("c1");
    ASSERT_EQ(topo.consumersOf(c1).size(), 1u);
    EXPECT_EQ(net.layer(topo.consumersOf(c1)[0]).name(), "r1");
}

TEST(McRunner, ProducesRequestedSamples)
{
    Network net = tinyBcnn();
    McOptions opts;
    opts.samples = 5;
    opts.brng = BrngKind::Software;
    McResult res = tryRunMcDropout(net, ones(Shape({1, 6, 6})), opts).value();
    EXPECT_EQ(res.outputs.size(), 5u);
    EXPECT_EQ(res.masks.size(), 5u);
}

TEST(McRunner, SamplesDifferUnderDropout)
{
    Network net = tinyBcnn(0.5);
    McOptions opts;
    opts.samples = 4;
    McResult res = tryRunMcDropout(net, ones(Shape({1, 6, 6})), opts).value();
    bool any_diff = false;
    for (std::size_t t = 1; t < res.outputs.size(); ++t)
        any_diff |= !res.outputs[t].allClose(res.outputs[0], 0.0f);
    EXPECT_TRUE(any_diff);
}

TEST(McRunner, DeterministicForSeed)
{
    Network net = tinyBcnn();
    McOptions opts;
    opts.samples = 3;
    opts.seed = 5;
    McResult a = tryRunMcDropout(net, ones(Shape({1, 6, 6})), opts).value();
    McResult b = tryRunMcDropout(net, ones(Shape({1, 6, 6})), opts).value();
    for (std::size_t t = 0; t < 3; ++t)
        EXPECT_TRUE(a.outputs[t].allClose(b.outputs[t], 0.0f));
}

TEST(McRunner, ZeroSamplesFatal)
{
    Network net = tinyBcnn();
    McOptions opts;
    opts.samples = 0;
    Expected<McResult> res =
        tryRunMcDropout(net, ones(Shape({1, 6, 6})), opts);
    ASSERT_FALSE(res.hasValue());
    EXPECT_EQ(res.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(res.error().toString().find("at least one"),
              std::string::npos);
}

TEST(McRunner, MaskRecordingOptional)
{
    Network net = tinyBcnn();
    McOptions opts;
    opts.samples = 2;
    opts.recordMasks = false;
    McResult res = tryRunMcDropout(net, ones(Shape({1, 6, 6})), opts).value();
    EXPECT_TRUE(res.masks.empty());
}

TEST(McRunner, RoundObserverSeesEveryLaunchedSampleOnce)
{
    // Rounds of 3 over T = 8 with sample 4 killed: the observer sees
    // [0,3), [3,6) with the casualty flagged, then the partial [6,8)
    // at run end; with adaptive exit stopping at 5 it sees [0,3) and
    // the partial [3,5).  Every call runs before later samples launch.
    // The forward runs exactly once per launched sample, always with
    // that sample's hooks: the runner has no dropout-off pass.
    Network net = tinyBcnn();
    FaultPlan plan;
    FaultSpec kill;
    kill.kind = FaultKind::SampleKill;
    kill.sample = 4;
    plan.add(kill);
    struct Call {
        std::size_t first;
        std::vector<bool> survived;
        std::size_t launchedBefore;
    };
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        std::vector<Call> calls;
        std::atomic<std::size_t> launched{0};
        std::atomic<std::size_t> nullHooks{0};
        std::vector<std::atomic<std::size_t>> runs(8);
        ForwardTarget target;
        target.name = net.name();
        target.inputShape = net.inputShape();
        target.forward = [&](const Tensor &in, ForwardHooks *hooks) {
            if (hooks == nullptr) {
                nullHooks.fetch_add(1);
            } else {
                launched.fetch_add(1);
                runs.at(hooks->sample()).fetch_add(1);
            }
            return net.forward(in, hooks);
        };
        const auto expectRunsOnce = [&](std::size_t launchedCount,
                                        std::size_t killed) {
            EXPECT_EQ(nullHooks.load(), 0u) << "threads " << threads;
            for (std::size_t t = 0; t < runs.size(); ++t) {
                const bool ran = t < launchedCount && t != killed;
                EXPECT_EQ(runs[t].load(), ran ? 1u : 0u)
                    << "threads " << threads << " sample " << t;
                runs[t] = 0;
            }
        };
        target.rounds.length = 3;
        target.rounds.onRound = [&](std::size_t first,
                                    const std::vector<bool> &survived) {
            calls.push_back({first, survived, launched.load()});
        };
        McOptions opts;
        opts.samples = 8;
        opts.threads = threads;
        opts.faults = &plan;
        ASSERT_TRUE(tryRunMcDropoutWith(target, ones(Shape({1, 6, 6})),
                                        opts)
                        .hasValue());
        ASSERT_EQ(calls.size(), 3u);
        EXPECT_EQ(calls[0].first, 0u);
        EXPECT_EQ(calls[0].survived, std::vector<bool>({true, true, true}));
        EXPECT_EQ(calls[0].launchedBefore, 3u);
        EXPECT_EQ(calls[1].first, 3u);
        EXPECT_EQ(calls[1].survived,
                  std::vector<bool>({true, false, true}));
        EXPECT_EQ(calls[1].launchedBefore, 5u);  // sample 4 never ran
        EXPECT_EQ(calls[2].first, 6u);
        EXPECT_EQ(calls[2].survived, std::vector<bool>({true, true}));
        expectRunsOnce(8, 4);

        calls.clear();
        launched = 0;
        opts.faults = nullptr;
        opts.targetCiWidth = 1e9;  // converge at the first checkpoint
        opts.minSamples = 5;
        Expected<McResult> adaptive =
            tryRunMcDropoutWith(target, ones(Shape({1, 6, 6})), opts);
        ASSERT_TRUE(adaptive.hasValue());
        EXPECT_EQ(adaptive.value().census.convergedAt, 5u);
        ASSERT_EQ(calls.size(), 2u);
        EXPECT_EQ(calls[0].first, 0u);
        EXPECT_EQ(calls[0].launchedBefore, 3u);
        EXPECT_EQ(calls[1].first, 3u);
        EXPECT_EQ(calls[1].survived, std::vector<bool>({true, true}));
        expectRunsOnce(5, runs.size());
    }

    // A round length without a callback is a configuration error.
    ForwardTarget deaf;
    deaf.name = net.name();
    deaf.inputShape = net.inputShape();
    deaf.forward = [&](const Tensor &in, ForwardHooks *hooks) {
        return net.forward(in, hooks);
    };
    deaf.rounds.length = 3;
    Expected<McResult> bad =
        tryRunMcDropoutWith(deaf, ones(Shape({1, 6, 6})), McOptions{});
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.error().code(), ErrorCode::InvalidArgument);
}

namespace {

/** Run one adaptive/fixed MC config on the tiny BCNN. */
Expected<McResult>
runTiny(const McOptions &opts, double drop_rate = 0.3)
{
    Network net = tinyBcnn(drop_rate);
    return tryRunMcDropout(net, ones(Shape({1, 6, 6})), opts);
}

/** EXPECT bit-identical outputs, order and summary between runs. */
void
expectBitIdentical(const McResult &a, const McResult &b)
{
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    ASSERT_EQ(a.sampleIndices, b.sampleIndices);
    for (std::size_t i = 0; i < a.outputs.size(); ++i) {
        const auto da = a.outputs[i].data();
        const auto db = b.outputs[i].data();
        ASSERT_EQ(da.size(), db.size());
        for (std::size_t j = 0; j < da.size(); ++j)
            ASSERT_EQ(da[j], db[j]) << "output " << i << "[" << j
                                    << "]";
    }
    const auto ma = a.summary.mean.data();
    const auto mb = b.summary.mean.data();
    ASSERT_EQ(ma.size(), mb.size());
    for (std::size_t j = 0; j < ma.size(); ++j)
        ASSERT_EQ(ma[j], mb[j]);
    EXPECT_EQ(a.census.converged, b.census.converged);
    EXPECT_EQ(a.census.convergedAt, b.census.convergedAt);
    EXPECT_EQ(a.census.ciWidth, b.census.ciWidth);
    EXPECT_EQ(a.census.survived, b.census.survived);
}

} // namespace

TEST(AdaptiveMc, CheckpointScheduleIsPure)
{
    // The first checkpoint needs two samples for a variance and never
    // undercuts the caller's floors.
    EXPECT_EQ(firstConvergenceCheckpoint(0, 0), 2u);
    EXPECT_EQ(firstConvergenceCheckpoint(7, 0), 7u);
    EXPECT_EQ(firstConvergenceCheckpoint(3, 9), 9u);
    // Subsequent checkpoints stride by kAdaptiveCheckStride, clamped
    // to the budget (the final checkpoint is the end of the run).
    EXPECT_EQ(nextConvergenceCheckpoint(2, 50), 2 + kAdaptiveCheckStride);
    EXPECT_EQ(nextConvergenceCheckpoint(48, 50), 50u);
    EXPECT_EQ(nextConvergenceCheckpoint(50, 50), 50u);
}

TEST(AdaptiveMc, CiWidthCriterion)
{
    // Fewer than two samples cannot be assessed.
    Tensor one(Shape({2}));
    one.fill(1.0f);
    EXPECT_TRUE(std::isinf(predictiveCiWidth({&one})));
    // Identical samples have zero variance, zero width.
    Tensor two = one;
    EXPECT_EQ(predictiveCiWidth({&one, &two}), 0.0);
    // Known case: elements {0, 1} over two samples in one cell ->
    // var 0.5, width 2 * z * sqrt(0.5 / 2) = 2 * z * 0.5.
    Tensor lo(Shape({2})), hi(Shape({2}));
    lo.fill(0.0f);
    hi.fill(1.0f);
    const double width = predictiveCiWidth({&lo, &hi});
    EXPECT_NEAR(width, 2.0 * kAdaptiveCiZ * 0.5, 1e-12);
}

TEST(AdaptiveMc, ConvergesBeforeBudget)
{
    McOptions opts;
    opts.samples = 50;
    opts.targetCiWidth = 10.0;  // loose: first checkpoint converges
    Expected<McResult> run = runTiny(opts);
    ASSERT_TRUE(run.hasValue()) << run.error().toString();
    const DegradationCensus &census = run.value().census;
    EXPECT_TRUE(census.converged);
    EXPECT_EQ(census.convergedAt, 2u);
    EXPECT_EQ(census.requested, 50u);
    EXPECT_EQ(census.budget, 50u);
    EXPECT_EQ(census.survived, 2u);
    EXPECT_FALSE(census.degraded);
    EXPECT_TRUE(census.failures.empty());
    EXPECT_LE(census.ciWidth, 10.0);
    EXPECT_EQ(run.value().outputs.size(), 2u);
}

TEST(AdaptiveMc, NeverStopsBelowMinSamplesOrQuorum)
{
    McOptions opts;
    opts.samples = 50;
    opts.targetCiWidth = 10.0;
    opts.minSamples = 12;
    Expected<McResult> run = runTiny(opts);
    ASSERT_TRUE(run.hasValue());
    EXPECT_TRUE(run.value().census.converged);
    EXPECT_GE(run.value().census.convergedAt, 12u);

    McOptions qopts;
    qopts.samples = 50;
    qopts.targetCiWidth = 10.0;
    qopts.quorum = 9;
    Expected<McResult> qrun = runTiny(qopts);
    ASSERT_TRUE(qrun.hasValue());
    EXPECT_TRUE(qrun.value().census.converged);
    EXPECT_GE(qrun.value().census.convergedAt, 9u);
    EXPECT_GE(qrun.value().census.survived, 9u);
}

TEST(AdaptiveMc, TightTargetRunsFullBudget)
{
    McOptions opts;
    opts.samples = 10;
    opts.dropRate = 0.5;
    opts.targetCiWidth = 1e-12;  // unreachably tight under dropout
    Expected<McResult> run = runTiny(opts, 0.5);
    ASSERT_TRUE(run.hasValue());
    const DegradationCensus &census = run.value().census;
    EXPECT_FALSE(census.converged);
    EXPECT_EQ(census.convergedAt, 0u);
    EXPECT_EQ(census.survived, 10u);
    EXPECT_GT(census.ciWidth, 1e-12);
    EXPECT_FALSE(census.degraded);
}

TEST(AdaptiveMc, EarlyExitPrefixMatchesFixedRun)
{
    // Per-sample seeding means an adaptive run's survivors are the
    // bit-exact prefix of the fixed-T run's outputs.
    McOptions fixed;
    fixed.samples = 50;
    Expected<McResult> full = runTiny(fixed);
    ASSERT_TRUE(full.hasValue());

    McOptions adaptive = fixed;
    adaptive.targetCiWidth = 10.0;
    Expected<McResult> early = runTiny(adaptive);
    ASSERT_TRUE(early.hasValue());
    ASSERT_TRUE(early.value().census.converged);
    ASSERT_LT(early.value().outputs.size(),
              full.value().outputs.size());
    for (std::size_t i = 0; i < early.value().outputs.size(); ++i) {
        const auto de = early.value().outputs[i].data();
        const auto df = full.value().outputs[i].data();
        ASSERT_EQ(de.size(), df.size());
        for (std::size_t j = 0; j < de.size(); ++j)
            ASSERT_EQ(de[j], df[j]);
    }
}

TEST(AdaptiveMc, BudgetClampIsNotDegradation)
{
    McOptions opts;
    opts.samples = 50;
    opts.sampleBudget = 10;
    opts.quorum = 4;
    Expected<McResult> run = runTiny(opts);
    ASSERT_TRUE(run.hasValue());
    const DegradationCensus &census = run.value().census;
    EXPECT_EQ(census.requested, 50u);
    EXPECT_EQ(census.budget, 10u);
    EXPECT_EQ(census.survived, 10u);
    EXPECT_FALSE(census.degraded);
    EXPECT_FALSE(census.converged);
    EXPECT_TRUE(census.failures.empty());
    EXPECT_EQ(run.value().outputs.size(), 10u);
}

TEST(AdaptiveMc, CensusSeparatesConvergedFromDegraded)
{
    // A fault casualty inside the launched prefix is degradation even
    // when the run also converges: something genuinely died.
    FaultPlan plan;
    FaultSpec kill;
    kill.kind = FaultKind::SampleKill;
    kill.sample = 1;
    plan.add(kill);

    McOptions opts;
    opts.samples = 50;
    opts.targetCiWidth = 10.0;
    opts.minSamples = 6;
    opts.faults = &plan;
    Expected<McResult> run = runTiny(opts);
    ASSERT_TRUE(run.hasValue());
    const DegradationCensus &census = run.value().census;
    EXPECT_TRUE(census.converged);
    EXPECT_TRUE(census.degraded);
    ASSERT_EQ(census.failures.size(), 1u);
    EXPECT_EQ(census.failures[0].sample, 1u);
    EXPECT_EQ(census.failures[0].code, ErrorCode::FaultInjected);
    // Survivors = launched minus the casualty.
    EXPECT_EQ(census.survived, census.convergedAt - 1);
}

TEST(AdaptiveMc, ValidationRejectsBadKnobs)
{
    McOptions opts;
    opts.samples = 10;
    opts.minSamples = 11;
    EXPECT_FALSE(validateMcOptions(opts).isOk());

    opts = McOptions{};
    opts.samples = 10;
    opts.targetCiWidth = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(validateMcOptions(opts).isOk());
    opts.targetCiWidth = -0.5;
    EXPECT_FALSE(validateMcOptions(opts).isOk());

    opts = McOptions{};
    opts.samples = 10;
    opts.quorum = 5;
    opts.sampleBudget = 4;  // below the quorum floor
    EXPECT_FALSE(validateMcOptions(opts).isOk());
    opts.sampleBudget = 5;
    EXPECT_TRUE(validateMcOptions(opts).isOk());
}

TEST(AdaptiveMcDeterminism, BitIdenticalAcrossThreadsAndSimdF32)
{
    McOptions base;
    base.samples = 32;
    base.targetCiWidth = 0.5;
    base.minSamples = 6;
    base.recordMasks = false;

    McOptions t1 = base;
    t1.threads = 1;
    simd::setLevel(simd::SimdLevel::Scalar);
    Expected<McResult> reference = runTiny(t1);
    simd::setLevel(simd::detectedLevel());
    ASSERT_TRUE(reference.hasValue());

    for (int l = 0; l < simd::kSimdLevelCount; ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        if (!simd::levelAvailable(level))
            continue;
        simd::setLevel(level);
        for (const std::size_t threads : {1u, 4u}) {
            McOptions opts = base;
            opts.threads = threads;
            Expected<McResult> run = runTiny(opts);
            ASSERT_TRUE(run.hasValue())
                << simd::simdLevelName(level) << " x " << threads;
            expectBitIdentical(reference.value(), run.value());
        }
        simd::setLevel(simd::detectedLevel());
    }
}

namespace {

/** A quantizable BCNN: conv blocks into a Linear + Softmax head (the
 *  topology class the int8 engine covers). */
Network
quantizableBcnn()
{
    Network net("qtiny", Shape({1, 6, 6}));
    net.add(std::make_unique<Conv2d>("c1", 1, 4, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", 0.3));
    net.add(std::make_unique<MaxPool2d>("p1", 2, 2));
    net.add(std::make_unique<Conv2d>("c2", 4, 6, 3, 1, 0));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", 0.3));
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("fc", 6, 4));
    net.add(std::make_unique<Softmax>("sm"));
    InitOptions init;
    init.seed = 5;
    initializeWeights(net, init);
    return net;
}

} // namespace

TEST(AdaptiveMcDeterminism, BitIdenticalAcrossThreadsAndSimdInt8)
{
    EngineOptions eopts;
    eopts.mc.samples = 32;
    eopts.mc.recordMasks = false;
    eopts.optimizer.samples = 2;
    Expected<std::unique_ptr<FastBcnnEngine>> engine =
        FastBcnnEngine::create(quantizableBcnn(), eopts);
    ASSERT_TRUE(engine.hasValue()) << engine.error().toString();
    const std::vector<Tensor> calib = {ones(Shape({1, 6, 6}))};
    ASSERT_TRUE(engine.value()->tryCalibrate(calib).isOk());
    ASSERT_TRUE(engine.value()->tryQuantize(calib).isOk());

    McOptions mc = eopts.mc;
    mc.precision = Precision::Int8;
    mc.targetCiWidth = 0.5;
    mc.minSamples = 6;

    std::optional<McResult> reference;
    for (int l = 0; l < simd::kSimdLevelCount; ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        if (!simd::levelAvailable(level))
            continue;
        simd::setLevel(level);
        for (const std::size_t threads : {1u, 4u}) {
            McOptions opts = mc;
            opts.threads = threads;
            Expected<McResult> run = engine.value()->tryMcReference(
                ones(Shape({1, 6, 6})), opts);
            ASSERT_TRUE(run.hasValue())
                << simd::simdLevelName(level) << " x " << threads
                << ": " << run.error().toString();
            if (!reference.has_value())
                reference = std::move(run).value();
            else
                expectBitIdentical(*reference, run.value());
        }
        simd::setLevel(simd::detectedLevel());
    }
    ASSERT_TRUE(reference.has_value());
    EXPECT_TRUE(reference->census.converged);
}

TEST(AdaptiveMcConcurrency, ThreadedAdaptiveRunWithFaults)
{
    // TSan exercise: adaptive checkpoints interleaved with worker
    // lanes and fault casualties must stay race-free.
    FaultPlan plan(11);
    plan.killRandomSamples(3, 32);
    McOptions opts;
    opts.samples = 32;
    opts.threads = 4;
    opts.targetCiWidth = 0.05;
    opts.minSamples = 8;
    opts.quorum = 4;
    opts.faults = &plan;
    opts.recordMasks = false;
    Expected<McResult> run = runTiny(opts);
    ASSERT_TRUE(run.hasValue()) << run.error().toString();
    EXPECT_GE(run.value().census.survived, 4u);
    Expected<McResult> again = runTiny(opts);
    ASSERT_TRUE(again.hasValue());
    expectBitIdentical(run.value(), again.value());
}
