/**
 * @file
 * Fault-injection and graceful-degradation tests: the FaultPlan
 * primitives, the guarded MC-dropout runner (survivor compaction,
 * census, quorum, deadline), partial-sample statistics, the engine's
 * error-returning entry points, and the sim-report degradation
 * rendering.
 *
 * The ConcurrencyFault suite exercises faulted runs across worker
 * threads; its name matches the tsan preset's `Concurrency` test
 * filter, so it runs under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "bayes/mc_runner.hpp"
#include "core/engine.hpp"
#include "fault/fault.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "sim/report.hpp"

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
    init.biasShift = 0.0;
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

McOptions
baseOptions(std::size_t samples = 8)
{
    McOptions opts;
    opts.samples = samples;
    opts.seed = 42;
    return opts;
}

/** Exact equality of two MC results, summary and census included. */
void
expectBitIdentical(const McResult &a, const McResult &b)
{
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t t = 0; t < a.outputs.size(); ++t)
        EXPECT_TRUE(a.outputs[t].allClose(b.outputs[t], 0.0f));
    EXPECT_EQ(a.sampleIndices, b.sampleIndices);
    EXPECT_TRUE(a.summary.mean.allClose(b.summary.mean, 0.0f));
    EXPECT_TRUE(a.summary.variance.allClose(b.summary.variance, 0.0f));
    EXPECT_EQ(a.summary.argmax, b.summary.argmax);
    EXPECT_EQ(a.summary.maxProbability, b.summary.maxProbability);
    EXPECT_EQ(a.census.requested, b.census.requested);
    EXPECT_EQ(a.census.survived, b.census.survived);
    EXPECT_EQ(a.census.degraded, b.census.degraded);
    ASSERT_EQ(a.census.failures.size(), b.census.failures.size());
    for (std::size_t i = 0; i < a.census.failures.size(); ++i) {
        EXPECT_EQ(a.census.failures[i].sample,
                  b.census.failures[i].sample);
        EXPECT_EQ(a.census.failures[i].code,
                  b.census.failures[i].code);
    }
}

} // namespace

// ---------------------------------------------------------------------
// FaultPlan primitives
// ---------------------------------------------------------------------

TEST(FaultPlan, AppliesToTargetsOneSampleOrAll)
{
    FaultSpec one;
    one.sample = 3;
    EXPECT_TRUE(FaultPlan::appliesTo(one, 3));
    EXPECT_FALSE(FaultPlan::appliesTo(one, 4));
    FaultSpec all;
    all.sample = kEverySample;
    EXPECT_TRUE(FaultPlan::appliesTo(all, 0));
    EXPECT_TRUE(FaultPlan::appliesTo(all, 999));
}

TEST(FaultPlan, KillRandomSamplesIsDeterministicAndDistinct)
{
    FaultPlan a(123), b(123), c(77);
    a.killRandomSamples(4, 16);
    b.killRandomSamples(4, 16);
    c.killRandomSamples(4, 16);
    ASSERT_EQ(a.specs().size(), 4u);
    std::vector<std::size_t> va, vb, vc;
    for (std::size_t i = 0; i < 4; ++i) {
        va.push_back(a.specs()[i].sample);
        vb.push_back(b.specs()[i].sample);
        vc.push_back(c.specs()[i].sample);
        EXPECT_LT(a.specs()[i].sample, 16u);
        EXPECT_EQ(a.specs()[i].kind, FaultKind::SampleKill);
    }
    EXPECT_EQ(va, vb);  // same seed, same victims
    EXPECT_NE(va, vc);  // different seed, different victims
    // Victims are distinct.
    for (std::size_t i = 0; i < va.size(); ++i)
        for (std::size_t j = i + 1; j < va.size(); ++j)
            EXPECT_NE(va[i], va[j]);
    for (std::size_t t = 0; t < 16; ++t) {
        const bool expected =
            std::find(va.begin(), va.end(), t) != va.end();
        EXPECT_EQ(a.sampleKilled(t), expected) << "sample " << t;
    }
}

TEST(FaultPlan, LayerTargetedSpecNeedsLayerName)
{
    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::ActivationNaN;
    EXPECT_DEATH(plan.add(spec), "layer");
}

TEST(FaultPlan, KindNamesAreStable)
{
    EXPECT_STREQ(faultKindName(FaultKind::WeightBitFlip),
                 "WeightBitFlip");
    EXPECT_STREQ(faultKindName(FaultKind::SampleKill), "SampleKill");
}

TEST(StuckBrngTest, ConstantFromConfiguredDraw)
{
    auto inner = std::make_unique<SoftwareBrng>(0.5, 9);
    auto reference = std::make_unique<SoftwareBrng>(0.5, 9);
    StuckBrng stuck(std::move(inner), 4, true);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(stuck.nextBit(), reference->nextBit()) << i;
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_TRUE(stuck.nextBit());
    EXPECT_EQ(stuck.dropRate(), 0.5);
}

// ---------------------------------------------------------------------
// Weight faults
// ---------------------------------------------------------------------

TEST(WeightFaults, FlipChangesValueAndDoubleFlipRestores)
{
    Network net = tinyBcnn();
    auto &conv =
        static_cast<Conv2d &>(net.layer(net.findNode("c1")));
    const float before = conv.weights().at(0);

    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::WeightBitFlip;
    spec.layer = "c1";
    spec.element = 0;
    spec.bit = 30;
    plan.add(spec);

    Expected<std::size_t> flips = applyWeightFaults(net, plan);
    ASSERT_TRUE(flips.hasValue());
    EXPECT_EQ(flips.value(), 1u);
    EXPECT_NE(conv.weights().at(0), before);

    Expected<std::size_t> again = applyWeightFaults(net, plan);
    ASSERT_TRUE(again.hasValue());
    EXPECT_EQ(conv.weights().at(0), before);  // XOR is an involution
}

TEST(WeightFaults, UnknownLayerIsError)
{
    Network net = tinyBcnn();
    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::WeightBitFlip;
    spec.layer = "ghost";
    plan.add(spec);
    Expected<std::size_t> result = applyWeightFaults(net, plan);
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().code(), ErrorCode::NotFound);
}

TEST(WeightFaults, ParameterlessLayerIsError)
{
    Network net = tinyBcnn();
    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::WeightBitFlip;
    spec.layer = "r1";  // ReLU holds no parameters
    plan.add(spec);
    Expected<std::size_t> result = applyWeightFaults(net, plan);
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().code(), ErrorCode::InvalidArgument);
}

// ---------------------------------------------------------------------
// Option validation at the boundary
// ---------------------------------------------------------------------

TEST(McValidation, RejectsBadValuesWithPrintedOffender)
{
    McOptions opts = baseOptions();
    opts.samples = 0;
    Status s = validateMcOptions(opts);
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(s.message().find("got 0"), std::string::npos);

    opts = baseOptions();
    opts.dropRate = 1.5;
    s = validateMcOptions(opts);
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(s.message().find("1.5"), std::string::npos);

    opts = baseOptions();
    opts.dropRate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(validateMcOptions(opts).isOk());

    opts = baseOptions();
    opts.threads = kMaxMcThreads + 1;
    EXPECT_FALSE(validateMcOptions(opts).isOk());

    opts = baseOptions(4);
    opts.quorum = 5;
    s = validateMcOptions(opts);
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(s.message().find("quorum"), std::string::npos);

    opts = baseOptions();
    opts.deadlineMs = -1.0;
    EXPECT_FALSE(validateMcOptions(opts).isOk());

    EXPECT_TRUE(validateMcOptions(baseOptions()).isOk());
}

TEST(McValidation, TryRunnerReturnsOptionErrorsInsteadOfDying)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions();
    opts.samples = 0;
    Expected<McResult> r = tryRunMcDropout(net, in, opts);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
}

TEST(McValidation, WrongInputShapeIsError)
{
    const Network net = tinyBcnn();
    Expected<McResult> r =
        tryRunMcDropout(net, ones(Shape({1, 5, 5})), baseOptions());
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message().find("shape"), std::string::npos);
}

// ---------------------------------------------------------------------
// Graceful degradation: the guarded runner
// ---------------------------------------------------------------------

TEST(Degradation, KilledSamplesDegradeToSurvivors)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(8);

    const McResult clean = tryRunMcDropout(net, in, opts).value();

    FaultPlan plan(2026);
    plan.killRandomSamples(3, opts.samples);
    opts.faults = &plan;
    const McResult hurt = tryRunMcDropout(net, in, opts).value();

    EXPECT_TRUE(hurt.degraded());
    EXPECT_EQ(hurt.census.requested, 8u);
    EXPECT_EQ(hurt.census.survived, 5u);
    EXPECT_EQ(hurt.outputs.size(), 5u);
    EXPECT_EQ(hurt.masks.size(), 5u);
    EXPECT_EQ(hurt.sampleIndices.size(), 5u);
    ASSERT_EQ(hurt.census.failures.size(), 3u);
    for (const SampleFailure &f : hurt.census.failures) {
        EXPECT_EQ(f.code, ErrorCode::FaultInjected);
        EXPECT_TRUE(plan.sampleKilled(f.sample));
    }
    // Survivors are the clean run's samples, bit for bit: per-sample
    // seeding means a casualty cannot perturb its neighbours.
    for (std::size_t i = 0; i < hurt.outputs.size(); ++i) {
        const std::size_t t = hurt.sampleIndices[i];
        EXPECT_FALSE(plan.sampleKilled(t));
        EXPECT_TRUE(hurt.outputs[i].allClose(clean.outputs[t], 0.0f));
    }
}

TEST(Degradation, PartialSummaryMatchesIndependentStatistics)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(10);
    FaultPlan plan(5);
    plan.killRandomSamples(4, opts.samples);
    opts.faults = &plan;

    const McResult res = tryRunMcDropout(net, in, opts).value();
    ASSERT_EQ(res.outputs.size(), 6u);

    // Recompute the summary from the survivor outputs alone; the
    // runner must agree exactly (it averages over T', not T).
    const UncertaintySummary expected = summarizeSamples(res.outputs);
    EXPECT_TRUE(res.summary.mean.allClose(expected.mean, 0.0f));
    EXPECT_TRUE(res.summary.variance.allClose(expected.variance, 0.0f));
    EXPECT_EQ(res.summary.predictiveEntropy,
              expected.predictiveEntropy);
    EXPECT_EQ(res.summary.expectedEntropy, expected.expectedEntropy);
    EXPECT_EQ(res.summary.mutualInformation,
              expected.mutualInformation);
    EXPECT_EQ(res.summary.argmax, expected.argmax);
    EXPECT_EQ(res.summary.maxProbability, expected.maxProbability);
}

TEST(Degradation, NaNPoisonedSampleDiesAloneWithNonFiniteCode)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(6);
    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::ActivationNaN;
    // Poison the final layer: NaN injected before a ReLU would be
    // squashed to 0 (NaN > 0 is false), masking the fault.
    spec.layer = "d2";
    spec.sample = 2;
    plan.add(spec);
    opts.faults = &plan;

    const McResult res = tryRunMcDropout(net, in, opts).value();
    EXPECT_EQ(res.census.survived, 5u);
    ASSERT_EQ(res.census.failures.size(), 1u);
    EXPECT_EQ(res.census.failures[0].sample, 2u);
    EXPECT_EQ(res.census.failures[0].code, ErrorCode::NonFinite);
    EXPECT_NE(res.census.failures[0].reason.find("non-finite"),
              std::string::npos);
    for (const Tensor &out : res.outputs)
        for (float v : out.data())
            EXPECT_TRUE(std::isfinite(v));
}

TEST(Degradation, InfPoisonEverySampleFailsTheRun)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(4);
    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::ActivationInf;
    spec.layer = "d2";
    spec.sample = kEverySample;
    plan.add(spec);
    opts.faults = &plan;

    Expected<McResult> r = tryRunMcDropout(net, in, opts);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().code(), ErrorCode::QuorumNotMet);
}

TEST(Degradation, ActivationBitFlipPerturbsOnlyItsSample)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(4);
    const McResult clean = tryRunMcDropout(net, in, opts).value();

    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::ActivationBitFlip;
    // Flip a bit of the final output, where nothing downstream (ReLU
    // squashing, dropout zeroing) can mask the damage.
    spec.layer = "d2";
    spec.sample = 1;
    spec.element = 7;
    spec.bit = 22;
    plan.add(spec);
    opts.faults = &plan;
    const McResult hurt = tryRunMcDropout(net, in, opts).value();

    // The flip perturbs the value but keeps it finite, so the sample
    // survives with a different output; every other sample is
    // untouched.
    EXPECT_FALSE(hurt.degraded());
    ASSERT_EQ(hurt.outputs.size(), 4u);
    EXPECT_FALSE(hurt.outputs[1].allClose(clean.outputs[1], 0.0f));
    for (std::size_t t : {std::size_t{0}, std::size_t{2},
                          std::size_t{3}})
        EXPECT_TRUE(hurt.outputs[t].allClose(clean.outputs[t], 0.0f));
}

TEST(Degradation, CorruptedMaskAndStuckBrngPerturbDeterministically)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(3);
    const McResult clean = tryRunMcDropout(net, in, opts).value();

    for (FaultKind kind :
         {FaultKind::MaskCorrupt, FaultKind::StuckBrng}) {
        FaultPlan plan;
        FaultSpec spec;
        spec.kind = kind;
        spec.layer = "d1";  // ignored by StuckBrng
        spec.sample = 0;
        spec.element = kAllElements;
        spec.fromDraw = 0;
        spec.stuckBit = true;  // every Bernoulli draw says "drop"
        if (kind == FaultKind::StuckBrng)
            spec.layer.clear();
        plan.add(spec);
        McOptions faulted = opts;
        faulted.faults = &plan;

        const McResult a = tryRunMcDropout(net, in, faulted).value();
        const McResult b = tryRunMcDropout(net, in, faulted).value();
        expectBitIdentical(a, b);
        EXPECT_FALSE(a.outputs[0].allClose(clean.outputs[0], 0.0f))
            << faultKindName(kind);
        EXPECT_TRUE(a.outputs[1].allClose(clean.outputs[1], 0.0f))
            << faultKindName(kind);
    }
}

TEST(Degradation, PoisonedWeightsFailTheWholeRun)
{
    // A net whose last layer is the conv: a trailing ReLU would squash
    // the NaN (NaN > 0 is false) and hide the poisoning.
    Network net("tail", Shape({1, 6, 6}));
    net.add(std::make_unique<Conv2d>("c1", 1, 2, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", 0.3));
    net.add(std::make_unique<Conv2d>("c2", 2, 3, 3));
    InitOptions init;
    init.seed = 3;
    initializeWeights(net, init);
    auto &conv =
        static_cast<Conv2d &>(net.layer(net.findNode("c2")));
    conv.weights().at(0) = std::numeric_limits<float>::quiet_NaN();

    Expected<McResult> r = tryRunMcDropout(
        net, ones(Shape({1, 6, 6})), baseOptions(4));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().code(), ErrorCode::NonFinite);
    EXPECT_NE(r.error().message().find("pre-inference"),
              std::string::npos);
}

TEST(Degradation, QuorumFailsWhenTooFewSurvive)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(6);
    opts.quorum = 4;
    FaultPlan plan(1);
    plan.killRandomSamples(3, opts.samples);  // T' = 3 < quorum 4
    opts.faults = &plan;

    Expected<McResult> r = tryRunMcDropout(net, in, opts);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().code(), ErrorCode::QuorumNotMet);
    EXPECT_NE(r.error().message().find("quorum"), std::string::npos);

    opts.quorum = 3;  // exactly met
    Expected<McResult> ok = tryRunMcDropout(net, in, opts);
    ASSERT_TRUE(ok.hasValue());
    EXPECT_EQ(ok.value().census.survived, 3u);
}

TEST(Degradation, RunLevelErrorNamesQuorum)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(4);
    opts.quorum = 4;
    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::SampleKill;
    spec.sample = 0;
    plan.add(spec);
    opts.faults = &plan;
    Expected<McResult> res = tryRunMcDropout(net, in, opts);
    ASSERT_FALSE(res.hasValue());
    EXPECT_EQ(res.error().code(), ErrorCode::QuorumNotMet);
    EXPECT_NE(res.error().toString().find("quorum"), std::string::npos);
}

TEST(Degradation, ZeroSamplesSurvivingAlwaysFails)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(2);
    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::SampleKill;
    spec.sample = kEverySample;
    plan.add(spec);
    opts.faults = &plan;
    // quorum 0 means "any", but an average needs >= 1 survivor.
    Expected<McResult> r = tryRunMcDropout(net, in, opts);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().code(), ErrorCode::QuorumNotMet);
}

TEST(Degradation, ExpiredDeadlineStillRunsSampleZero)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(5);
    opts.deadlineMs = 1e-9;  // expires before sample 1 can launch

    const McResult res = tryRunMcDropout(net, in, opts).value();
    EXPECT_TRUE(res.degraded());
    EXPECT_GE(res.census.survived, 1u);
    ASSERT_GE(res.census.failures.size(), 1u);
    for (const SampleFailure &f : res.census.failures) {
        EXPECT_EQ(f.code, ErrorCode::DeadlineExceeded);
        EXPECT_GT(f.sample, 0u);  // sample 0 always launches
    }
    // A generous deadline changes nothing.
    McOptions lax = baseOptions(5);
    lax.deadlineMs = 1e9;
    EXPECT_FALSE(tryRunMcDropout(net, in, lax).value().degraded());
}

TEST(Degradation, GuardOffMatchesGuardOnWhenClean)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions guarded = baseOptions(6);
    McOptions unguarded = baseOptions(6);
    unguarded.sampleGuard = false;
    expectBitIdentical(tryRunMcDropout(net, in, guarded).value(),
                       tryRunMcDropout(net, in, unguarded).value());
}

// ---------------------------------------------------------------------
// ConcurrencyFault: faulted runs across worker threads (tsan workload)
// ---------------------------------------------------------------------

TEST(ConcurrencyFault, DegradedRunBitIdenticalForAnyThreadCount)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts = baseOptions(8);
    FaultPlan plan(99);
    plan.killRandomSamples(2, opts.samples);
    FaultSpec nan_spec;
    nan_spec.kind = FaultKind::ActivationNaN;
    nan_spec.layer = "d2";
    nan_spec.sample = 5;
    plan.add(nan_spec);
    opts.faults = &plan;

    // The NaN victim may coincide with a random kill victim.
    const std::size_t casualties =
        2 + (plan.sampleKilled(5) ? 0 : 1);
    opts.threads = 1;
    const McResult serial = tryRunMcDropout(net, in, opts).value();
    EXPECT_TRUE(serial.degraded());
    EXPECT_EQ(serial.census.survived, 8u - casualties);
    for (std::size_t threads : {std::size_t{0}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
        opts.threads = threads;
        expectBitIdentical(serial, tryRunMcDropout(net, in, opts).value());
    }
}

TEST(ConcurrencyFault, SharedPlanAcrossConcurrentCallers)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    FaultPlan plan(7);
    plan.killRandomSamples(2, 6);
    McOptions opts = baseOptions(6);
    opts.faults = &plan;
    opts.threads = 2;
    opts.recordMasks = false;

    const McResult reference = tryRunMcDropout(net, in, opts).value();

    // The plan is shared read-only by every worker of every caller.
    constexpr std::size_t callers = 4;
    std::vector<McResult> results(callers);
    std::vector<std::thread> pool;
    pool.reserve(callers);
    for (std::size_t i = 0; i < callers; ++i) {
        pool.emplace_back([&, i]() {
            results[i] = tryRunMcDropout(net, in, opts).value();
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (const McResult &res : results)
        expectBitIdentical(reference, res);
}

// ---------------------------------------------------------------------
// Engine boundary
// ---------------------------------------------------------------------

TEST(EngineBoundary, CreateRejectsBadOptions)
{
    EngineOptions opts;
    opts.mc.samples = 0;
    Expected<std::unique_ptr<FastBcnnEngine>> engine =
        FastBcnnEngine::create(tinyBcnn(), opts);
    ASSERT_FALSE(engine.hasValue());
    EXPECT_EQ(engine.error().code(), ErrorCode::InvalidArgument);
    // The context names the offending block.
    EXPECT_NE(engine.error().toString().find("EngineOptions::mc"),
              std::string::npos);
}

TEST(EngineBoundary, ValidateCoversEveryBlock)
{
    EngineOptions opts;
    EXPECT_TRUE(validateEngineOptions(opts).isOk());
    opts.optimizer.confidence = 1.5;
    EXPECT_FALSE(validateEngineOptions(opts).isOk());
    opts.optimizer.confidence = 0.9;
    opts.config.tm = 0;
    EXPECT_FALSE(validateEngineOptions(opts).isOk());
}

TEST(EngineBoundary, TryCalibrateAndTryInferReturnErrors)
{
    EngineOptions opts;
    opts.mc.samples = 2;
    opts.optimizer.samples = 2;
    Expected<std::unique_ptr<FastBcnnEngine>> created =
        FastBcnnEngine::create(tinyBcnn(), opts);
    ASSERT_TRUE(created.hasValue());
    FastBcnnEngine &engine = *created.value();

    EXPECT_EQ(engine.tryCalibrate({}).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(engine.tryCalibrate({ones(Shape({2, 6, 6}))}).code(),
              ErrorCode::InvalidArgument);

    // tryInfer refuses to self-calibrate.
    Expected<EngineResult> premature =
        engine.tryInfer(ones(Shape({1, 6, 6})));
    ASSERT_FALSE(premature.hasValue());
    EXPECT_NE(premature.error().message().find("not calibrated"),
              std::string::npos);

    ASSERT_TRUE(engine.tryCalibrate({ones(Shape({1, 6, 6}))}).isOk());
    EXPECT_TRUE(engine.calibrated());
    EXPECT_FALSE(engine.tryInfer(ones(Shape({1, 5, 5}))).hasValue());
    Expected<EngineResult> good =
        engine.tryInfer(ones(Shape({1, 6, 6})));
    ASSERT_TRUE(good.hasValue());
    EXPECT_GT(good.value().speedup, 0.0);
}

TEST(EngineBoundary, McReferenceReportsDegradationCensus)
{
    FaultPlan plan(31);
    plan.killRandomSamples(2, 6);
    EngineOptions opts;
    opts.mc.samples = 6;
    opts.mc.faults = &plan;
    opts.optimizer.samples = 2;
    FastBcnnEngine engine(tinyBcnn(), opts);

    Expected<McResult> ref = engine.tryMcReference(ones(Shape({1, 6, 6})));
    ASSERT_TRUE(ref.hasValue());
    EXPECT_TRUE(ref.value().degraded());
    EXPECT_EQ(ref.value().census.survived, 4u);

    // The census slots straight into a SimReport for rendering.
    SimReport report;
    report.degradation = ref.value().census;
    EXPECT_TRUE(report.degradation.degraded);
}

TEST(EngineBoundary, ConstructorStillDiesOnBadOptionsForLegacyCallers)
{
    EngineOptions opts;
    opts.mc.dropRate = 2.0;
    EXPECT_DEATH(FastBcnnEngine(tinyBcnn(), opts), "dropRate");
}

// ---------------------------------------------------------------------
// Sim-report rendering of the census
// ---------------------------------------------------------------------

TEST(DegradationReport, SummaryLineAggregatesByCode)
{
    DegradationCensus census;
    census.requested = 50;
    census.survived = 47;
    census.degraded = true;
    census.failures = {
        {3, ErrorCode::FaultInjected, "injected"},
        {9, ErrorCode::NonFinite, "nan"},
        {17, ErrorCode::FaultInjected, "injected"},
    };
    const std::string line = degradationSummary(census);
    EXPECT_NE(line.find("47/50 samples survived"), std::string::npos);
    EXPECT_NE(line.find("degraded"), std::string::npos);
    EXPECT_NE(line.find("2 FaultInjected"), std::string::npos);
    EXPECT_NE(line.find("1 NonFinite"), std::string::npos);

    DegradationCensus clean;
    clean.requested = clean.survived = 8;
    EXPECT_EQ(degradationSummary(clean), "8/8 samples survived");
}

TEST(DegradationReport, TablePrintsEveryCasualty)
{
    DegradationCensus census;
    census.requested = 4;
    census.survived = 3;
    census.degraded = true;
    census.failures = {{2, ErrorCode::DeadlineExceeded,
                        "not launched"}};
    std::ostringstream os;
    printDegradation(census, os);
    EXPECT_NE(os.str().find("DeadlineExceeded"), std::string::npos);
    EXPECT_NE(os.str().find("not launched"), std::string::npos);

    std::ostringstream clean_os;
    printDegradation(DegradationCensus{}, clean_os);
    EXPECT_EQ(clean_os.str().find("reason"), std::string::npos);
}
