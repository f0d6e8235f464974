/**
 * @file
 * Tests for the runtime skip guardrails: the deterministic shadow
 * audit, the per-kernel backoff / recovery policy, snapshot merging,
 * the guarded MC runner (including the drift-recovery regression and
 * its thread-count bit-identity), and the engine wiring.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>

#include "bayes/hooks.hpp"
#include "common/crc32.hpp"
#include "common/math_util.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "guard/guarded_runner.hpp"
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

/** Guard options that decide quickly (unit-test scale). */
GuardOptions
fastGuardOptions(double tolerance)
{
    GuardOptions opts;
    opts.enabled = true;
    opts.audit.rate = 1.0;
    opts.tolerance = tolerance;
    opts.decisionInterval = 1;
    opts.minAudited = 10;
    opts.cooldownRounds = 1;
    opts.cooldownGrowth = 2;
    opts.recoverFraction = 0.5;
    return opts;
}

/** A synthetic one-kernel audit for the first conv of @p topo. */
SampleAudit
syntheticAudit(const BcnnTopology &topo, std::size_t sample,
               std::uint64_t audited, std::uint64_t mispredicted)
{
    const ConvBlock &b = topo.blocks().front();
    SampleAudit audit;
    audit.sample = sample;
    std::vector<KernelAudit> &ks = audit.kernels[b.conv];
    ks.resize(b.outShape.dim(0));
    ks[0].audited = audited;
    ks[0].mispredicted = mispredicted;
    return audit;
}

} // namespace

TEST(AuditSelect, DeterministicAndRateBounded)
{
    // Same (seed, conv, sample, flat) -> same answer, always.
    for (std::size_t flat = 0; flat < 64; ++flat) {
        EXPECT_EQ(auditSelected(7, 2, 5, flat, 0.3),
                  auditSelected(7, 2, 5, flat, 0.3));
    }
    // Boundary rates are exact.
    std::size_t none = 0, all = 0, some = 0;
    const std::size_t n = 20000;
    for (std::size_t flat = 0; flat < n; ++flat) {
        none += auditSelected(7, 2, 5, flat, 0.0) ? 1 : 0;
        all += auditSelected(7, 2, 5, flat, 1.0) ? 1 : 0;
        some += auditSelected(7, 2, 5, flat, 0.1) ? 1 : 0;
    }
    EXPECT_EQ(none, 0u);
    EXPECT_EQ(all, n);
    // Empirical rate within 3 sigma of 0.1.
    EXPECT_NEAR(static_cast<double>(some) / n, 0.1, 0.007);
    // Different seeds select different neurons.
    std::size_t differ = 0;
    for (std::size_t flat = 0; flat < 1000; ++flat) {
        differ += auditSelected(1, 2, 5, flat, 0.5) !=
                          auditSelected(2, 2, 5, flat, 0.5)
                      ? 1
                      : 0;
    }
    EXPECT_GT(differ, 0u);
}

TEST(Audit, FullRateMatchesEnumeration)
{
    // With rate 1.0 the audit must equal the full mispredict
    // enumeration: audited == predicted popcount per conv, and the
    // mispredict count must match the independent full-tensor path
    // (Conv2d::forward + mispredicted()).
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    const Tensor input = randomInput(11);
    const ZeroMaps zeros = computeZeroMaps(topo, input);
    // Aggressive thresholds so mispredicts actually occur.
    const ThresholdSet thresholds(topo, 6);

    auto brng = makeBrng(BrngKind::Software, 0.3, 99);
    const MaskSet masks = sampleMasks(net, *brng);
    PredictiveOptions popts;
    popts.captureNodeOutputs = true;
    const PredictiveResult pres = predictiveForward(
        topo, indicators, zeros, thresholds, input, masks, popts);

    AuditOptions aopts;
    aopts.rate = 1.0;
    const SampleAudit audit = auditPredictedNeurons(
        topo, input, pres.nodeOutputs, pres.predicted, aopts, 0);

    std::uint64_t want_mispredicted = 0;
    for (const ConvBlock &b : topo.blocks()) {
        const BitVolume &pred = pres.predicted.at(b.conv);
        std::uint64_t audited = 0;
        for (const KernelAudit &k : audit.kernels.at(b.conv))
            audited += k.audited;
        EXPECT_EQ(audited, pred.popcount());

        const NodeId producer = net.inputsOf(b.conv)[0];
        const Tensor &conv_in = producer == Network::inputNode
                                    ? input
                                    : pres.nodeOutputs[producer];
        const Tensor exact = net.layer(b.conv).forward({&conv_in},
                                                       nullptr);
        want_mispredicted += mispredicted(pred, exact).popcount();
    }
    EXPECT_EQ(audit.mispredicted(), want_mispredicted);
    EXPECT_GT(audit.audited(), 0u);
}

TEST(Guard, BacksOffToDisableUnderSustainedMispredicts)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    const NodeId conv = topo.blocks().front().conv;
    const ThresholdSet calibrated(topo, 8);
    SkipGuard guard(topo, calibrated, fastGuardOptions(0.1));

    // Feed a 50 % mispredict rate into kernel 0 until it is disabled.
    std::size_t sample = 0;
    while (guard.effectiveThresholds().of(conv, 0) > 0) {
        ASSERT_LT(sample, 200u) << "guard never disabled the kernel";
        guard.onSampleAudit(syntheticAudit(topo, sample, 20, 10));
        ++sample;
    }

    // 8 -> 4 -> 2 -> 1 -> 0: three backoffs, then the disable.
    const std::vector<GuardEvent> events = guard.eventsSince(0);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].kind, GuardEventKind::Backoff);
    EXPECT_EQ(events[0].fromAlpha, 8);
    EXPECT_EQ(events[0].toAlpha, 4);
    EXPECT_EQ(events[1].toAlpha, 2);
    EXPECT_EQ(events[2].toAlpha, 1);
    EXPECT_EQ(events[3].kind, GuardEventKind::Disable);
    EXPECT_EQ(events[3].toAlpha, 0);
    for (const GuardEvent &ev : events) {
        EXPECT_EQ(ev.conv, conv);
        EXPECT_EQ(ev.kernel, 0u);
        EXPECT_GT(ev.wilsonLower, 0.1);
    }

    // The other kernels of the block are untouched.
    EXPECT_EQ(guard.effectiveThresholds().of(conv, 1), 8);
    const GuardSnapshot snap = guard.snapshot();
    EXPECT_EQ(snap.backoffs, 3u);
    EXPECT_EQ(snap.disables, 1u);
    EXPECT_EQ(snap.degradedKernels, 1u);
}

TEST(Guard, RecoversWithHysteresisAfterRatesSubside)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    const NodeId conv = topo.blocks().front().conv;
    const ThresholdSet calibrated(topo, 8);
    SkipGuard guard(topo, calibrated, fastGuardOptions(0.2));

    std::size_t sample = 0;
    while (guard.effectiveThresholds().of(conv, 0) > 0) {
        ASSERT_LT(sample, 200u);
        guard.onSampleAudit(syntheticAudit(topo, sample, 20, 10));
        ++sample;
    }
    const std::size_t bad_events = guard.eventCount();

    // Clean audits: the kernel must climb back to its calibrated
    // alpha through Probe events and a final Recover.
    while (guard.effectiveThresholds().of(conv, 0) != 8) {
        ASSERT_LT(sample, 2000u) << "guard never recovered the kernel";
        guard.onSampleAudit(syntheticAudit(topo, sample, 30, 0));
        ++sample;
    }
    const std::vector<GuardEvent> recovery =
        guard.eventsSince(bad_events);
    ASSERT_FALSE(recovery.empty());
    EXPECT_EQ(recovery.back().kind, GuardEventKind::Recover);
    EXPECT_EQ(recovery.back().toAlpha, 8);
    for (std::size_t i = 0; i + 1 < recovery.size(); ++i)
        EXPECT_EQ(recovery[i].kind, GuardEventKind::Probe);
    EXPECT_EQ(guard.snapshot().degradedKernels, 0u);

    // Hysteresis: a borderline rate (just under tolerance) must not
    // oscillate the threshold back down.
    const std::size_t settled = guard.eventCount();
    for (std::size_t i = 0; i < 50; ++i) {
        guard.onSampleAudit(syntheticAudit(topo, sample, 20, 3));
        ++sample;
    }
    EXPECT_EQ(guard.eventCount(), settled);
    EXPECT_EQ(guard.effectiveThresholds().of(conv, 0), 8);
}

TEST(Guard, ZeroCalibratedKernelIsNeverManaged)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    const NodeId conv = topo.blocks().front().conv;
    ThresholdSet calibrated(topo, 8);
    calibrated.set(conv, 0, 0);  // prediction off at calibration time
    SkipGuard guard(topo, calibrated, fastGuardOptions(0.1));

    for (std::size_t sample = 0; sample < 100; ++sample)
        guard.onSampleAudit(syntheticAudit(topo, sample, 20, 20));
    EXPECT_EQ(guard.eventCount(), 0u);
    EXPECT_EQ(guard.effectiveThresholds().of(conv, 0), 0);
}

TEST(Guard, MergeSnapshotsIsConservative)
{
    GuardSnapshot a;
    a.tolerance = 0.1;
    a.samplesSeen = 10;
    a.backoffs = 2;
    a.auditedNeurons = 100;
    a.mispredictedNeurons = 20;
    KernelGuardStatus ka;
    ka.conv = 4;
    ka.kernel = 1;
    ka.calibratedAlpha = 8;
    ka.currentAlpha = 2;
    ka.backoffLevel = 2;
    ka.audited = 100;
    ka.mispredicted = 20;
    ka.healthy = false;
    a.kernels.push_back(ka);

    GuardSnapshot b;
    b.tolerance = 0.1;
    b.samplesSeen = 5;
    b.recoveries = 1;
    b.auditedNeurons = 60;
    KernelGuardStatus kb = ka;
    kb.currentAlpha = 8;
    kb.backoffLevel = 0;
    kb.audited = 50;
    kb.mispredicted = 0;
    kb.healthy = true;
    b.kernels.push_back(kb);
    KernelGuardStatus kc;
    kc.conv = 9;
    kc.kernel = 0;
    kc.calibratedAlpha = 4;
    kc.currentAlpha = 4;
    kc.audited = 10;
    b.kernels.push_back(kc);

    const GuardSnapshot merged = mergeGuardSnapshots({a, b});
    EXPECT_EQ(merged.samplesSeen, 15u);
    EXPECT_EQ(merged.backoffs, 2u);
    EXPECT_EQ(merged.recoveries, 1u);
    ASSERT_EQ(merged.kernels.size(), 2u);
    const KernelGuardStatus &k41 = merged.kernels[0];
    EXPECT_EQ(k41.conv, 4u);
    EXPECT_EQ(k41.audited, 150u);
    EXPECT_EQ(k41.mispredicted, 20u);
    // Most conservative replica wins the reported alpha / level.
    EXPECT_EQ(k41.currentAlpha, 2);
    EXPECT_EQ(k41.backoffLevel, 2u);
    EXPECT_FALSE(k41.healthy);
    EXPECT_NEAR(k41.mispredictRate, 20.0 / 150.0, 1e-12);
    EXPECT_EQ(merged.degradedKernels, 1u);
    EXPECT_EQ(merged.auditedNeurons, 160u);
}

TEST(GuardedRunner, RejectsBadOptionsAndShape)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    SkipGuard guard(topo, ThresholdSet(topo, 8),
                    fastGuardOptions(0.1));

    McOptions bad;
    bad.samples = 0;
    Expected<GuardedMcResult> r1 = tryRunGuardedPredictive(
        topo, indicators, guard, randomInput(1), bad);
    ASSERT_FALSE(r1.hasValue());
    EXPECT_EQ(r1.error().code(), ErrorCode::InvalidArgument);

    Expected<GuardedMcResult> r2 = tryRunGuardedPredictive(
        topo, indicators, guard, Tensor(Shape({1, 4, 4})), {});
    ASSERT_FALSE(r2.hasValue());
    EXPECT_EQ(r2.error().code(), ErrorCode::InvalidArgument);
}

TEST(GuardedRunner, DriftRecoveryRegression)
{
    // The drift scenario: thresholds far more aggressive than the
    // input distribution supports (stale calibration).  The guard must
    // detect the elevated mispredict rate from the shadow audit and
    // back the offending kernels off within the run, and the MC
    // average must stay close to the exact no-skip reference.
    Network net = tinyBcnn(5);
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    const Tensor input = randomInput(21);
    const ThresholdSet stale(topo, 6);

    GuardOptions gopts = fastGuardOptions(0.02);
    gopts.decisionInterval = 4;
    gopts.minAudited = 32;
    gopts.cooldownRounds = 2;

    McOptions mc;
    mc.samples = 64;
    mc.seed = 17;
    mc.threads = 1;

    SkipGuard guard1(topo, stale, gopts);
    Expected<GuardedMcResult> run1 = tryRunGuardedPredictive(
        topo, indicators, guard1, input, mc);
    ASSERT_TRUE(run1.hasValue()) << run1.error().toString();
    const GuardedMcResult &r1 = run1.value();

    // The guard saw the drift and acted within the run.
    EXPECT_GT(r1.mispredicted, 0u);
    std::size_t backoffs = 0;
    for (const GuardEvent &ev : r1.events) {
        backoffs += ev.kind == GuardEventKind::Backoff ||
                            ev.kind == GuardEventKind::Disable
                        ? 1
                        : 0;
    }
    EXPECT_GT(backoffs, 0u) << "no backoff on a drifted workload";
    EXPECT_GT(guard1.snapshot().degradedKernels, 0u);

    // Backed-off thresholds are never more aggressive than the stale
    // calibration.
    const ThresholdSet backed = guard1.effectiveThresholds();
    for (const auto &[conv, alphas] : backed.all()) {
        for (std::size_t m = 0; m < alphas.size(); ++m)
            EXPECT_LE(alphas[m], stale.of(conv, m));
    }

    // MC average vs the exact no-skip reference over the same masks:
    // early mispredicted samples perturb the mean, the guarded tail
    // must keep it close.
    Tensor exact_mean;
    for (std::size_t t = 0; t < mc.samples; ++t) {
        auto brng = makeBrng(mc.brng, mc.dropRate,
                             sampleSeed(mc.seed, t));
        const MaskSet masks = sampleMasks(net, *brng);
        ReplayHooks replay(masks);
        const Tensor out = net.forward(input, &replay);
        if (t == 0)
            exact_mean = Tensor(out.shape());
        for (std::size_t i = 0; i < out.numel(); ++i)
            exact_mean.at(i) += out.at(i) /
                                static_cast<float>(mc.samples);
    }
    ASSERT_TRUE(r1.summary.mean.shape() == exact_mean.shape());
    double scale = 1e-3;
    for (std::size_t i = 0; i < exact_mean.numel(); ++i)
        scale = std::max(scale,
                         std::abs(static_cast<double>(
                             exact_mean.at(i))));
    for (std::size_t i = 0; i < exact_mean.numel(); ++i) {
        EXPECT_NEAR(r1.summary.mean.at(i), exact_mean.at(i),
                    0.15 * scale)
            << "guarded MC mean drifted from the reference at " << i;
    }

    // Bit-identity: the same run on 4 threads must match sample for
    // sample, event for event, threshold for threshold.
    SkipGuard guard4(topo, stale, gopts);
    McOptions mc4 = mc;
    mc4.threads = 4;
    Expected<GuardedMcResult> run4 = tryRunGuardedPredictive(
        topo, indicators, guard4, input, mc4);
    ASSERT_TRUE(run4.hasValue()) << run4.error().toString();
    const GuardedMcResult &r4 = run4.value();

    ASSERT_EQ(r4.outputs.size(), r1.outputs.size());
    for (std::size_t t = 0; t < r1.outputs.size(); ++t) {
        ASSERT_TRUE(r4.outputs[t].shape() == r1.outputs[t].shape());
        for (std::size_t i = 0; i < r1.outputs[t].numel(); ++i)
            ASSERT_EQ(r4.outputs[t].at(i), r1.outputs[t].at(i))
                << "sample " << t << " diverged at " << i;
    }
    EXPECT_EQ(r4.audited, r1.audited);
    EXPECT_EQ(r4.mispredicted, r1.mispredicted);
    ASSERT_EQ(r4.events.size(), r1.events.size());
    for (std::size_t e = 0; e < r1.events.size(); ++e) {
        EXPECT_EQ(r4.events[e].sample, r1.events[e].sample);
        EXPECT_EQ(r4.events[e].conv, r1.events[e].conv);
        EXPECT_EQ(r4.events[e].kernel, r1.events[e].kernel);
        EXPECT_EQ(r4.events[e].kind, r1.events[e].kind);
        EXPECT_EQ(r4.events[e].toAlpha, r1.events[e].toAlpha);
    }
    const ThresholdSet final1 = guard1.effectiveThresholds();
    const ThresholdSet final4 = guard4.effectiveThresholds();
    for (const auto &[conv, alphas] : final1.all()) {
        for (std::size_t m = 0; m < alphas.size(); ++m)
            EXPECT_EQ(final4.of(conv, m), alphas[m]);
    }
}

TEST(GuardedRunner, CleanWorkloadStaysQuiet)
{
    // Thresholds tuned by Algorithm 1 on the same distribution the
    // guard then watches: the mispredict rate is inside the calibrated
    // budget, so a generous tolerance must produce zero backoffs.
    Network net = tinyBcnn(7);
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    std::vector<Tensor> dataset;
    for (std::uint64_t s = 0; s < 4; ++s)
        dataset.push_back(randomInput(100 + s));
    OptimizerOptions oopts;
    oopts.confidence = 0.68;
    oopts.samples = 4;
    const OptimizeResult tuned =
        tryOptimizeThresholds(topo, indicators, dataset, oopts).value();

    GuardOptions gopts = fastGuardOptions(0.6);
    gopts.decisionInterval = 8;
    gopts.minAudited = 64;
    SkipGuard guard(topo, tuned.thresholds, gopts);

    McOptions mc;
    mc.samples = 32;
    mc.seed = 3;
    Expected<GuardedMcResult> run = tryRunGuardedPredictive(
        topo, indicators, guard, dataset[0], mc);
    ASSERT_TRUE(run.hasValue()) << run.error().toString();
    EXPECT_TRUE(run.value().events.empty());
    EXPECT_EQ(guard.snapshot().degradedKernels, 0u);
    EXPECT_GT(run.value().audited, 0u);
}

TEST(GuardedRunner, IdenticalAcrossThreadsAndSimdLevels)
{
    // Guarded runs on a net wide enough for every SIMD tail (odd
    // widths and channel counts, a stride-2 block), with thresholds
    // aggressive enough that the guard acts: outputs, audit tallies
    // and guard events must not depend on the lane count or on the
    // dispatch level, and the pre-inference output is the plain
    // forward's.
    Network net("guard-wide", Shape({3, 15, 13}));
    net.add(std::make_unique<Conv2d>("c1", 3, 9, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", 0.3));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    net.add(std::make_unique<Conv2d>("c2", 9, 11, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", 0.3));
    net.add(std::make_unique<Conv2d>("c3", 11, 5, 3, 2, 1));
    net.add(std::make_unique<ReLU>("r3"));
    net.add(std::make_unique<Dropout>("d3", 0.3));
    InitOptions init;
    init.seed = 9;
    initializeWeights(net, init);
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    std::mt19937_64 rng(31);
    std::normal_distribution<float> g(0.3f, 1.0f);
    Tensor input(net.inputShape());
    for (float &v : input.data())
        v = g(rng);

    GuardOptions gopts = fastGuardOptions(0.02);
    gopts.decisionInterval = 4;
    gopts.minAudited = 32;
    McOptions mc;
    mc.samples = 24;
    mc.seed = 5;

    const simd::SimdLevel saved = simd::activeLevel();
    std::vector<GuardedMcResult> runs;
    for (int l = 0; l < simd::kSimdLevelCount; ++l) {
        simd::setLevel(static_cast<simd::SimdLevel>(l));
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            SkipGuard guard(topo, ThresholdSet(topo, 6), gopts);
            mc.threads = threads;
            Expected<GuardedMcResult> run = tryRunGuardedPredictive(
                topo, indicators, guard, input, mc);
            ASSERT_TRUE(run.hasValue()) << run.error().toString();
            runs.push_back(std::move(run).value());
        }
    }
    simd::setLevel(saved);

    const GuardedMcResult &ref = runs.front();
    EXPECT_GT(ref.mispredicted, 0u);
    EXPECT_FALSE(ref.events.empty());
    for (std::size_t r = 1; r < runs.size(); ++r) {
        const GuardedMcResult &got = runs[r];
        ASSERT_EQ(got.outputs.size(), ref.outputs.size()) << "run " << r;
        for (std::size_t t = 0; t < ref.outputs.size(); ++t) {
            ASSERT_EQ(std::memcmp(got.outputs[t].data().data(),
                                  ref.outputs[t].data().data(),
                                  ref.outputs[t].numel() * sizeof(float)),
                      0)
                << "run " << r << " sample " << t;
        }
        EXPECT_EQ(got.predictedNeurons, ref.predictedNeurons) << r;
        EXPECT_EQ(got.audited, ref.audited) << "run " << r;
        EXPECT_EQ(got.mispredicted, ref.mispredicted) << "run " << r;
        ASSERT_EQ(got.events.size(), ref.events.size()) << "run " << r;
        for (std::size_t e = 0; e < ref.events.size(); ++e) {
            EXPECT_EQ(got.events[e].sample, ref.events[e].sample);
            EXPECT_EQ(got.events[e].conv, ref.events[e].conv);
            EXPECT_EQ(got.events[e].kernel, ref.events[e].kernel);
            EXPECT_EQ(got.events[e].kind, ref.events[e].kind);
            EXPECT_EQ(got.events[e].toAlpha, ref.events[e].toAlpha);
        }
    }
}

namespace {

/** CRC32 over the dense pre-inference output @p pre, everything a
 *  guarded run produces, and the guard's effective thresholds after
 *  it. */
std::uint32_t
guardedRunDigest(const Tensor &pre, const GuardedMcResult &r,
                 const SkipGuard &guard, std::uint32_t crc)
{
    const auto addTensor = [&](const Tensor &t) {
        crc = crc32(t.data().data(), t.numel() * sizeof(float), crc);
    };
    const auto addWord = [&](auto value) {
        crc = crc32(&value, sizeof value, crc);
    };
    addTensor(pre);
    for (const Tensor &out : r.outputs)
        addTensor(out);
    addWord(r.predictedNeurons);
    addWord(r.audited);
    addWord(r.mispredicted);
    for (const GuardEvent &ev : r.events) {
        addWord(ev.sample);
        addWord(ev.conv);
        addWord(ev.kernel);
        addWord(static_cast<int>(ev.kind));
        addWord(ev.fromAlpha);
        addWord(ev.toAlpha);
        addWord(ev.mispredictRate);
        addWord(ev.wilsonLower);
    }
    const ThresholdSet thresholds = guard.effectiveThresholds();
    for (const auto &[conv, alphas] : thresholds.all()) {
        addWord(conv);
        for (int alpha : alphas)
            addWord(alpha);
    }
    return crc;
}

/** The wide net of IdenticalAcrossThreadsAndSimdLevels. */
Network
wideBcnn()
{
    Network net("guard-wide", Shape({3, 15, 13}));
    net.add(std::make_unique<Conv2d>("c1", 3, 9, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", 0.3));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    net.add(std::make_unique<Conv2d>("c2", 9, 11, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", 0.3));
    net.add(std::make_unique<Conv2d>("c3", 11, 5, 3, 2, 1));
    net.add(std::make_unique<ReLU>("r3"));
    net.add(std::make_unique<Dropout>("d3", 0.3));
    InitOptions init;
    init.seed = 9;
    initializeWeights(net, init);
    return net;
}

} // namespace

TEST(GuardedRunner, MatchesParentDigest)
{
    // Pins guarded skip-mode runs bit for bit: pre-inference, every
    // sample output, the skip/audit tallies, the guard events and the
    // final thresholds, over two back-to-back requests on one guard
    // (the second starts mid-cadence: 22 samples, rounds of 4).  The
    // constants were recorded before skip mode moved onto the MC
    // runner; every SIMD level and thread count must reproduce them.
    struct Case {
        bool wide;
        std::uint64_t seed;
        std::uint32_t digest;
    };
    const Case cases[] = {
        {false, 17, 655597434u},
        {false, 29, 2448624913u},
        {true, 5, 2659162911u},
        {true, 11, 595561438u},
    };
    const simd::SimdLevel saved = simd::activeLevel();
    std::size_t events = 0;
    for (const Case &c : cases) {
        Network net = c.wide ? wideBcnn() : tinyBcnn(5);
        BcnnTopology topo(net);
        IndicatorSet indicators(topo);
        Tensor input(net.inputShape());
        std::mt19937_64 rng(c.seed + 100);
        std::normal_distribution<float> g(0.3f, 1.0f);
        for (float &v : input.data())
            v = g(rng);

        GuardOptions gopts = fastGuardOptions(0.02);
        gopts.audit.rate = 0.5;
        gopts.decisionInterval = 4;
        gopts.minAudited = 16;
        gopts.cooldownRounds = 2;
        McOptions mc;
        mc.samples = 22;
        mc.seed = c.seed;

        for (int l = 0; l < simd::kSimdLevelCount; ++l) {
            simd::setLevel(static_cast<simd::SimdLevel>(l));
            // Skip mode does not return its pre-inference output: hash
            // the same dense forward at this level.
            const Tensor pre = net.forward(input, nullptr);
            for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                SkipGuard guard(topo, ThresholdSet(topo, 6), gopts);
                mc.threads = threads;
                std::uint32_t crc = 0;
                for (int request = 0; request < 2; ++request) {
                    Expected<GuardedMcResult> run =
                        tryRunGuardedPredictive(topo, indicators, guard,
                                                input, mc);
                    ASSERT_TRUE(run.hasValue())
                        << run.error().toString();
                    crc = guardedRunDigest(pre, run.value(), guard,
                                           crc);
                    events += run.value().events.size();
                }
                EXPECT_EQ(crc, c.digest)
                    << (c.wide ? "wide" : "tiny") << " seed " << c.seed
                    << " level " << l << " threads " << threads;
            }
        }
    }
    simd::setLevel(saved);
    EXPECT_GT(events, 0u) << "the guard never acted: a weak pin";
}

namespace {

/** Guard options of the drift scenario (DriftRecoveryRegression). */
GuardOptions
driftGuardOptions()
{
    GuardOptions gopts = fastGuardOptions(0.02);
    gopts.decisionInterval = 4;
    gopts.minAudited = 32;
    gopts.cooldownRounds = 2;
    return gopts;
}

/** True when @p a and @p b hold the same shape and bytes. */
bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.numel() * sizeof(float)) == 0;
}

} // namespace

TEST(GuardedRunner, SampleKillDegradesAndKeepsRoundCadence)
{
    // A dead lane in skip mode: with sample 0 killed the run degrades
    // to T - 1 survivors and reports the kill in its census; the
    // casualty folds an empty audit, so the guard counts every sample
    // and decides on the clean run's cadence; and the rest of round 0
    // runs under the same frozen thresholds as in the clean run.  A
    // quorum above the survivor count fails the run.  A deadline the
    // pre-inference already spent still launches sample 0.
    Network net = tinyBcnn(5);
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    const Tensor input = randomInput(21);
    const GuardOptions gopts = driftGuardOptions();
    McOptions mc;
    mc.samples = 16;
    mc.seed = 17;

    SkipGuard cleanGuard(topo, ThresholdSet(topo, 6), gopts);
    Expected<GuardedMcResult> clean = tryRunGuardedPredictive(
        topo, indicators, cleanGuard, input, mc);
    ASSERT_TRUE(clean.hasValue()) << clean.error().toString();

    FaultPlan plan;
    FaultSpec kill;
    kill.kind = FaultKind::SampleKill;
    kill.sample = 0;
    plan.add(kill);
    mc.faults = &plan;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        mc.threads = threads;
        SkipGuard guard(topo, ThresholdSet(topo, 6), gopts);
        Expected<GuardedMcResult> run = tryRunGuardedPredictive(
            topo, indicators, guard, input, mc);
        ASSERT_TRUE(run.hasValue()) << run.error().toString();
        const GuardedMcResult &r = run.value();
        EXPECT_TRUE(r.degraded());
        EXPECT_EQ(r.census.survived, mc.samples - 1);
        ASSERT_EQ(r.census.failures.size(), 1u);
        EXPECT_EQ(r.census.failures[0].sample, 0u);
        EXPECT_EQ(r.census.failures[0].code, ErrorCode::FaultInjected);
        EXPECT_EQ(guard.snapshot().samplesSeen,
                  cleanGuard.snapshot().samplesSeen);
        for (const GuardEvent &ev : r.events)
            EXPECT_EQ(ev.sample % gopts.decisionInterval, 0u);
        for (std::size_t t = 1; t < gopts.decisionInterval; ++t) {
            EXPECT_TRUE(sameBits(r.outputs[t - 1],
                                 clean.value().outputs[t]))
                << "threads " << threads << " sample " << t;
        }
    }

    mc.quorum = mc.samples;
    SkipGuard guard(topo, ThresholdSet(topo, 6), gopts);
    Expected<GuardedMcResult> starved = tryRunGuardedPredictive(
        topo, indicators, guard, input, mc);
    ASSERT_FALSE(starved.hasValue());
    EXPECT_EQ(starved.error().code(), ErrorCode::QuorumNotMet);

    mc.faults = nullptr;
    mc.quorum = 0;
    mc.deadlineMs = 1e-9;
    SkipGuard lateGuard(topo, ThresholdSet(topo, 6), gopts);
    Expected<GuardedMcResult> late = tryRunGuardedPredictive(
        topo, indicators, lateGuard, input, mc);
    ASSERT_TRUE(late.hasValue()) << late.error().toString();
    EXPECT_EQ(late.value().sampleIndices, std::vector<std::size_t>{0});
    EXPECT_TRUE(sameBits(late.value().outputs[0], clean.value().outputs[0]));
}

TEST(GuardedRunner, MaskFaultsReachSkipMode)
{
    // Skip-mode samples draw their masks through the runner's hooks,
    // so a corrupted mask or a stuck BRNG on sample 1 changes that
    // sample alone; the rest of its round runs as in the clean run.
    Network net = tinyBcnn(5);
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    const Tensor input = randomInput(21);
    const GuardOptions gopts = driftGuardOptions();
    McOptions mc;
    mc.samples = 8;
    mc.seed = 17;
    SkipGuard cleanGuard(topo, ThresholdSet(topo, 6), gopts);
    Expected<GuardedMcResult> clean = tryRunGuardedPredictive(
        topo, indicators, cleanGuard, input, mc);
    ASSERT_TRUE(clean.hasValue()) << clean.error().toString();

    for (FaultKind kind : {FaultKind::MaskCorrupt, FaultKind::StuckBrng}) {
        FaultPlan plan;
        FaultSpec spec;
        spec.kind = kind;
        spec.layer = kind == FaultKind::MaskCorrupt ? "d1" : "";
        spec.sample = 1;
        spec.element = kAllElements;
        spec.fromDraw = 0;
        spec.stuckBit = true;  // every Bernoulli draw says "drop"
        plan.add(spec);
        mc.faults = &plan;
        SkipGuard guard(topo, ThresholdSet(topo, 6), gopts);
        Expected<GuardedMcResult> run = tryRunGuardedPredictive(
            topo, indicators, guard, input, mc);
        ASSERT_TRUE(run.hasValue()) << run.error().toString();
        const GuardedMcResult &r = run.value();
        ASSERT_EQ(r.outputs.size(), mc.samples);
        EXPECT_FALSE(sameBits(r.outputs[1], clean.value().outputs[1]))
            << faultKindName(kind);
        for (std::size_t t : {0, 2, 3}) {
            EXPECT_TRUE(sameBits(r.outputs[t], clean.value().outputs[t]))
                << faultKindName(kind) << " sample " << t;
        }
    }
}

TEST(GuardedRunner, NonFinitePreInferenceFails)
{
    // A NaN bias in the classifier head (after the last ReLU, which
    // would squash it) poisons the pre-inference: the skip run fails
    // before any sample launches or folds into the guard.
    Network net("tail", Shape({1, 8, 8}));
    net.add(std::make_unique<Conv2d>("c1", 1, 3, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", 0.3));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("fc", 48, 3));
    InitOptions init;
    init.seed = 3;
    initializeWeights(net, init);
    static_cast<Linear &>(net.layer(net.findNode("fc"))).bias().at(0) =
        std::numeric_limits<float>::quiet_NaN();
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    SkipGuard guard(topo, ThresholdSet(topo, 6), fastGuardOptions(0.1));

    McOptions mc;
    mc.samples = 4;
    Expected<GuardedMcResult> run = tryRunGuardedPredictive(
        topo, indicators, guard, randomInput(1), mc);
    ASSERT_FALSE(run.hasValue());
    EXPECT_EQ(run.error().code(), ErrorCode::NonFinite);
    EXPECT_NE(run.error().message().find("pre-inference"),
              std::string::npos);
    EXPECT_EQ(guard.snapshot().samplesSeen, 0u);
}

TEST(GuardedRunner, AdaptiveRunIsPrefixOfFixedRun)
{
    // Rounds and convergence checkpoints both end runner blocks and
    // thresholds change only at round boundaries, so an adaptive skip
    // run that stops mid-round (checkpoint 14, rounds of 4) is a
    // bit-exact prefix of the fixed-T run, each on a fresh guard.
    Network net = tinyBcnn(5);
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    const Tensor input = randomInput(21);
    const GuardOptions gopts = driftGuardOptions();
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        McOptions mc;
        mc.samples = 24;
        mc.seed = 17;
        mc.threads = threads;
        SkipGuard fixedGuard(topo, ThresholdSet(topo, 6), gopts);
        Expected<GuardedMcResult> fixed = tryRunGuardedPredictive(
            topo, indicators, fixedGuard, input, mc);
        ASSERT_TRUE(fixed.hasValue()) << fixed.error().toString();

        mc.targetCiWidth = 1e9;  // converge at the first checkpoint
        mc.minSamples = 14;
        SkipGuard guard(topo, ThresholdSet(topo, 6), gopts);
        Expected<GuardedMcResult> adaptive = tryRunGuardedPredictive(
            topo, indicators, guard, input, mc);
        ASSERT_TRUE(adaptive.hasValue()) << adaptive.error().toString();
        const GuardedMcResult &a = adaptive.value();
        EXPECT_EQ(a.census.convergedAt, 14u);
        EXPECT_FALSE(a.events.empty()) << "no threshold change to cross";
        EXPECT_EQ(guard.snapshot().samplesSeen, 14u);
        ASSERT_EQ(a.outputs.size(), 14u);
        for (std::size_t t = 0; t < a.outputs.size(); ++t) {
            EXPECT_TRUE(sameBits(a.outputs[t], fixed.value().outputs[t]))
                << "threads " << threads << " sample " << t;
        }
    }
}

TEST(Engine, GuardWiringAndToleranceDerivation)
{
    ModelOptions mopts;
    mopts.dropRate = 0.3;
    Network net = buildLenet5(mopts);
    calibrateSparsity(net, {makeMnistLikeImage(0, 1)});

    EngineOptions eopts;
    eopts.mc.samples = 8;
    eopts.optimizer.samples = 2;
    eopts.optimizer.confidence = 0.68;
    eopts.guard.enabled = true;
    eopts.guard.audit.rate = 0.05;
    FastBcnnEngine engine(std::move(net), eopts);

    // Guard does not exist before calibration, and the guarded path
    // reports that as an error instead of aborting.
    EXPECT_EQ(engine.guard(), nullptr);
    Expected<GuardedMcResult> early =
        engine.tryGuardedMc(makeMnistLikeImage(1, 2));
    ASSERT_FALSE(early.hasValue());

    const Dataset calib = makeDataset(true, 4, 2, 42);
    std::vector<Tensor> inputs;
    for (const Example &e : calib.examples)
        inputs.push_back(e.image);
    ASSERT_TRUE(engine.tryCalibrate(inputs).isOk());

    ASSERT_NE(engine.guard(), nullptr);
    // tolerance 0 derives the calibrated budget 1 - p_cf.
    EXPECT_NEAR(engine.guard()->options().tolerance, 0.32, 1e-9);

    Expected<GuardedMcResult> run =
        engine.tryGuardedMc(makeMnistLikeImage(1, 2));
    ASSERT_TRUE(run.hasValue()) << run.error().toString();
    EXPECT_EQ(run.value().outputs.size(), 8u);
    EXPECT_GT(run.value().predictedNeurons, 0u);
}

TEST(Engine, GuardDisabledPathErrors)
{
    ModelOptions mopts;
    Network net = buildLenet5(mopts);
    calibrateSparsity(net, {makeMnistLikeImage(0, 1)});
    EngineOptions eopts;
    eopts.optimizer.samples = 2;
    FastBcnnEngine engine(std::move(net), eopts);
    const Dataset calib = makeDataset(true, 2, 2, 7);
    std::vector<Tensor> inputs;
    for (const Example &e : calib.examples)
        inputs.push_back(e.image);
    ASSERT_TRUE(engine.tryCalibrate(inputs).isOk());

    EXPECT_EQ(engine.guard(), nullptr);
    Expected<GuardedMcResult> run =
        engine.tryGuardedMc(makeMnistLikeImage(1, 2));
    ASSERT_FALSE(run.hasValue());
    EXPECT_EQ(run.error().code(), ErrorCode::InvalidArgument);
}
