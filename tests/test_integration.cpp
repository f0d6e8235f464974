/**
 * @file
 * Integration tests: the FastBcnnEngine and Workload pipelines end to
 * end on small models, and cross-module invariants (functional
 * fidelity, baseline-vs-FB ordering, trace reuse across configs).
 */

#include <gtest/gtest.h>

#include "core/experiment.hpp"

using namespace fastbcnn;

namespace {

/** A small but non-trivial LeNet workload that runs in ~a second. */
WorkloadConfig
smallConfig()
{
    WorkloadConfig cfg;
    cfg.kind = ModelKind::LeNet5;
    cfg.width = 1.0;
    cfg.samples = 6;
    cfg.optimizerSamples = 3;
    cfg.evalInputs = 2;
    cfg.brng = BrngKind::Software;
    return cfg;
}

/** Shared workload; building it is the expensive part. */
const Workload &
sharedWorkload()
{
    static Workload workload(smallConfig());
    return workload;
}

} // namespace

TEST(Engine, SelfCalibratesWithWarning)
{
    ModelOptions mopts;
    mopts.widthMultiplier = 0.5;
    EngineOptions eopts;
    eopts.mc.samples = 2;
    eopts.optimizer.samples = 2;
    FastBcnnEngine engine(buildLenet5(mopts), eopts);
    EXPECT_FALSE(engine.calibrated());
    EXPECT_DEATH((void)engine.thresholds(), "not calibrated");
    engine.trace(makeMnistLikeImage(0, 1));
    EXPECT_TRUE(engine.calibrated());
    EXPECT_EQ(engine.tuneReports().size(),
              engine.topology().blocks().size());
}

TEST(Engine, InferProducesConsistentResult)
{
    ModelOptions mopts;
    mopts.widthMultiplier = 0.5;
    EngineOptions eopts;
    eopts.mc.samples = 4;
    eopts.optimizer.samples = 2;
    FastBcnnEngine engine(buildLenet5(mopts), eopts);
    ASSERT_TRUE(engine.tryCalibrate({makeMnistLikeImage(2, 3)}).isOk());
    EngineResult res = engine.infer(makeMnistLikeImage(4, 5));

    EXPECT_EQ(res.census.size(), engine.topology().blocks().size());
    EXPECT_GT(res.speedup, 1.0);
    EXPECT_GT(res.energyReduction, 0.0);
    EXPECT_LT(res.energyReduction, 1.0);
    EXPECT_DOUBLE_EQ(res.speedup,
                     res.fastBcnn.speedupOver(res.baseline));
    // The prediction is a probability distribution.
    EXPECT_NEAR(res.prediction.mean.sum(), 1.0, 1e-5);
    EXPECT_NEAR(res.exactReference.mean.sum(), 1.0, 1e-5);
    EXPECT_LT(res.prediction.argmax, 10u);
}

TEST(Workload, BuildsBundlesAndMetrics)
{
    const Workload &w = sharedWorkload();
    EXPECT_EQ(w.bundles().size(), 2u);
    EXPECT_GE(w.argmaxDisagreement(), 0.0);
    EXPECT_LE(w.argmaxDisagreement(), 1.0);
    EXPECT_GE(w.meanOutputError(), 0.0);
    EXPECT_FALSE(w.census().empty());
}

TEST(Workload, TraceReusedAcrossConfigs)
{
    const Workload &w = sharedWorkload();
    const InferenceTrace &trace = w.bundles()[0].trace;
    SimReport bl = simulateBaseline(trace, baselineConfig());
    std::vector<double> speedups;
    for (const AcceleratorConfig &cfg : designSpace()) {
        SimReport fb = simulateFastBcnn(trace, cfg);
        speedups.push_back(fb.speedupOver(bl));
        EXPECT_GT(speedups.back(), 1.0) << cfg.name;
    }
    // Same trace, same baseline: the four design points must differ
    // only through <T_m, T_n>, all within the paper's LeNet band.
    for (double s : speedups) {
        EXPECT_GT(s, 2.0);
        EXPECT_LT(s, 12.0);
    }
}

TEST(Workload, SkipOrderingAcrossModes)
{
    const Workload &w = sharedWorkload();
    const InferenceTrace &trace = w.bundles()[0].trace;
    SimReport bl = simulateBaseline(trace, baselineConfig());
    SimOptions opts;
    opts.mode = SkipMode::Full;
    SimReport full = simulateFastBcnn(trace, fastBcnnConfig(64), opts);
    opts.mode = SkipMode::DroppedOnly;
    SimReport d = simulateFastBcnn(trace, fastBcnnConfig(64), opts);
    opts.mode = SkipMode::UnaffectedOnly;
    SimReport u = simulateFastBcnn(trace, fastBcnnConfig(64), opts);
    SimReport ideal = simulateIdeal(trace, fastBcnnConfig(64));

    // Fig. 11 orderings: full >= each single mode; ideal >= full.
    EXPECT_GE(full.speedupOver(bl), d.speedupOver(bl) - 1e-9);
    EXPECT_GE(full.speedupOver(bl), u.speedupOver(bl) - 1e-9);
    EXPECT_GE(ideal.speedupOver(bl), full.speedupOver(bl) - 1e-9);
    // Overlap: the union's reduction is at most the sum of parts.
    EXPECT_LE(full.cycleReductionOver(bl),
              d.cycleReductionOver(bl) + u.cycleReductionOver(bl) +
                  1e-9);
}

TEST(Workload, CnvlutinBetweenBaselineAndFastBcnn)
{
    const Workload &w = sharedWorkload();
    const InferenceTrace &trace = w.bundles()[0].trace;
    SimReport bl = simulateBaseline(trace, baselineConfig());
    SimReport cv = simulateCnvlutin(trace, cnvlutinConfig());
    SimReport fb = simulateFastBcnn(trace, fastBcnnConfig(64));
    // On LeNet Cnvlutin gains little (no layer-1 skipping, Fig. 11);
    // Fast-BCNN must clearly beat it.
    EXPECT_GE(cv.speedupOver(bl), 1.0);
    EXPECT_GT(fb.speedupOver(cv), 1.5);
}

TEST(Workload, CensusMatchesPaperShape)
{
    const Workload &w = sharedWorkload();
    const auto census = w.census();
    double unaffected = 0.0, skip = 0.0, uoz = 0.0;
    for (const BlockCensus &c : census) {
        unaffected += c.unaffectedRatio;
        skip += c.skipRatio;
        uoz += c.unaffectedOfZero;
    }
    const double n = static_cast<double>(census.size());
    // Paper: unaffected ~50-65 % of neurons, skip rate 60-75 %, and
    // most zero neurons unaffected.
    EXPECT_GT(unaffected / n, 0.35);
    EXPECT_LT(unaffected / n, 0.85);
    EXPECT_GT(skip / n, 0.45);
    EXPECT_LT(skip / n, 0.95);
    EXPECT_GT(uoz / n, 0.6);
}

TEST(Workload, FunctionalFidelity)
{
    const Workload &w = sharedWorkload();
    // Skipping perturbs the averaged output only mildly.
    EXPECT_LT(w.meanOutputError(), 0.05);
}

TEST(Aggregate, AveragesReports)
{
    SimReport a, b;
    a.cyclesPerSample = 100.0;
    b.cyclesPerSample = 300.0;
    a.energyPerSampleNj = 10.0;
    b.energyPerSampleNj = 30.0;
    a.neuronsSkipped = 60;
    a.neuronsComputed = 40;
    b.neuronsSkipped = 20;
    b.neuronsComputed = 80;
    AggregateMetrics m = aggregate({a, b});
    EXPECT_DOUBLE_EQ(m.cyclesPerSample, 200.0);
    EXPECT_DOUBLE_EQ(m.energyPerSampleNj, 20.0);
    EXPECT_DOUBLE_EQ(m.skipRate, 0.4);
    EXPECT_DOUBLE_EQ(aggregate({}).cyclesPerSample, 0.0);
}

TEST(Engine, BrngKindAffectsMasksNotShape)
{
    ModelOptions mopts;
    mopts.widthMultiplier = 0.5;
    EngineOptions lfsr, sw;
    lfsr.mc.samples = sw.mc.samples = 2;
    lfsr.optimizer.samples = sw.optimizer.samples = 2;
    lfsr.mc.brng = BrngKind::Lfsr;
    sw.mc.brng = BrngKind::Software;
    FastBcnnEngine ea(buildLenet5(mopts), lfsr);
    FastBcnnEngine eb(buildLenet5(mopts), sw);
    const Tensor in = makeMnistLikeImage(1, 2);
    ASSERT_TRUE(ea.tryCalibrate({in}).isOk());
    ASSERT_TRUE(eb.tryCalibrate({in}).isOk());
    TraceBundle ta = ea.trace(in);
    TraceBundle tb = eb.trace(in);
    EXPECT_EQ(ta.trace.blocks.size(), tb.trace.blocks.size());
    EXPECT_EQ(ta.trace.samples, tb.trace.samples);
}
