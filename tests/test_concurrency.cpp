/**
 * @file
 * Concurrency tests: the parallel MC-dropout runner's determinism
 * guarantee (bit-identical results for any thread count) and the
 * thread safety of the shared logging / stats sinks.  This file is the
 * designated ThreadSanitizer workload — the `tsan` CMake preset runs
 * exactly these suites — so every test here must exercise real
 * cross-thread sharing, not mocked concurrency.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bayes/mc_runner.hpp"
#include "common/stats.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"

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

/** Exact (tolerance-zero) equality of two MC results, summary included. */
void
expectBitIdentical(const McResult &a, const McResult &b)
{
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t t = 0; t < a.outputs.size(); ++t)
        EXPECT_TRUE(a.outputs[t].allClose(b.outputs[t], 0.0f));
    ASSERT_EQ(a.masks.size(), b.masks.size());
    for (std::size_t t = 0; t < a.masks.size(); ++t) {
        ASSERT_EQ(a.masks[t].size(), b.masks[t].size());
        for (const auto &[layer, mask] : a.masks[t])
            EXPECT_TRUE(b.masks[t].at(layer) == mask);
    }
    EXPECT_TRUE(a.summary.mean.allClose(b.summary.mean, 0.0f));
    EXPECT_TRUE(a.summary.variance.allClose(b.summary.variance, 0.0f));
    EXPECT_EQ(a.summary.predictiveEntropy, b.summary.predictiveEntropy);
    EXPECT_EQ(a.summary.expectedEntropy, b.summary.expectedEntropy);
    EXPECT_EQ(a.summary.mutualInformation, b.summary.mutualInformation);
    EXPECT_EQ(a.summary.argmax, b.summary.argmax);
    EXPECT_EQ(a.summary.maxProbability, b.summary.maxProbability);
}

} // namespace

TEST(ParallelMc, BitIdenticalToSerial)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts;
    opts.samples = 8;
    opts.seed = 42;

    opts.threads = 1;
    const McResult serial = tryRunMcDropout(net, in, opts).value();
    opts.threads = 4;
    const McResult parallel = tryRunMcDropout(net, in, opts).value();

    expectBitIdentical(serial, parallel);
}

TEST(ParallelMc, ThreadCountSweepIsDeterministic)
{
    const Network net = tinyBcnn(0.5);
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts;
    opts.samples = 6;
    opts.seed = 7;
    opts.brng = BrngKind::Software;

    opts.threads = 1;
    const McResult reference = tryRunMcDropout(net, in, opts).value();
    for (std::size_t threads : {std::size_t{0}, std::size_t{2},
                                std::size_t{3}, std::size_t{8}}) {
        opts.threads = threads;
        expectBitIdentical(reference, tryRunMcDropout(net, in, opts).value());
    }
}

TEST(ParallelMc, MoreThreadsThanSamples)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts;
    opts.samples = 2;
    opts.threads = 16;
    const McResult res = tryRunMcDropout(net, in, opts).value();
    EXPECT_EQ(res.outputs.size(), 2u);
    EXPECT_EQ(res.masks.size(), 2u);
}

/**
 * Regression for the BRNG seed derivation: the old code truncated the
 * 64-bit mix with a bare cast, so seeds differing only in their high
 * word (s and s + 2^32) collided, and seed 0 could slip through the
 * Lfsr32 zero fallback.  Distinct seeds must now yield distinct mask
 * streams for both generator kinds.
 */
TEST(ParallelMc, DistinctSeedsYieldDistinctMaskStreams)
{
    const Shape shape({1, 16, 16});
    const std::vector<std::uint64_t> seeds{
        0u, 1u, 2u, 1u + (1ull << 32), 2u + (7ull << 32)};
    for (BrngKind kind : {BrngKind::Lfsr, BrngKind::Software}) {
        std::vector<BitVolume> streams;
        for (std::uint64_t seed : seeds) {
            auto brng = makeBrng(kind, 0.5, seed);
            SamplingHooks hooks(*brng);
            streams.push_back(*hooks.dropoutMask("d", shape));
        }
        for (std::size_t i = 0; i < streams.size(); ++i) {
            for (std::size_t j = i + 1; j < streams.size(); ++j) {
                EXPECT_FALSE(streams[i] == streams[j])
                    << layerKindName(LayerKind::Dropout) << " masks for "
                    << "seeds " << seeds[i] << " and " << seeds[j]
                    << " collide (kind " << static_cast<int>(kind)
                    << ")";
            }
        }
    }
}

/**
 * Regression for the deadline/quorum interaction: a quorum miss caused
 * by the deadline stopping launches must surface as DeadlineExceeded
 * (the serving layer sheds/retries on it), never QuorumNotMet (which
 * means samples actually died), and the outcome must not depend on the
 * thread count.  A pre-expired deadline pins the schedule: only sample
 * 0 ever launches, whatever the pool size.
 */
TEST(ParallelMc, DeadlineStarvedQuorumIsDeadlineExceededAtAnyThreadCount)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts;
    opts.samples = 6;
    opts.seed = 11;
    opts.deadlineMs = 1e-9;  // expired before any launch decision
    opts.quorum = 2;         // sample 0 alone can never satisfy it

    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        opts.threads = threads;
        Expected<McResult> run = tryRunMcDropout(net, in, opts);
        ASSERT_FALSE(run.hasValue()) << "threads = " << threads;
        EXPECT_EQ(run.error().code(), ErrorCode::DeadlineExceeded)
            << "threads = " << threads << ": "
            << run.error().message();
    }

    // With the quorum satisfiable by the always-launched sample 0, the
    // same starved run succeeds degraded — and bit-identically at
    // every thread count, because the survivor set is pinned to {0}.
    opts.quorum = 1;
    opts.threads = 1;
    Expected<McResult> reference = tryRunMcDropout(net, in, opts);
    ASSERT_TRUE(reference.hasValue());
    EXPECT_EQ(reference.value().sampleIndices,
              std::vector<std::size_t>{0});
    EXPECT_TRUE(reference.value().degraded());
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        opts.threads = threads;
        Expected<McResult> run = tryRunMcDropout(net, in, opts);
        ASSERT_TRUE(run.hasValue()) << "threads = " << threads;
        EXPECT_EQ(run.value().sampleIndices,
                  std::vector<std::size_t>{0});
        expectBitIdentical(reference.value(), run.value());
    }
}

TEST(ConcurrencyStress, IndependentRunsOnSharedNetwork)
{
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts;
    opts.samples = 4;
    opts.seed = 11;

    const McResult reference = tryRunMcDropout(net, in, opts).value();

    // The Network is shared read-only across callers; every thread
    // must reproduce the reference bit-for-bit.
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

TEST(ConcurrencyStress, NestedParallelRunners)
{
    // Outer concurrency (two callers) with inner worker pools: the
    // worst realistic contention shape for the shared sinks.
    const Network net = tinyBcnn();
    const Tensor in = ones(Shape({1, 6, 6}));
    McOptions opts;
    opts.samples = 6;
    opts.threads = 2;
    opts.recordMasks = false;

    McResult a, b;
    std::thread ta([&]() { a = tryRunMcDropout(net, in, opts).value(); });
    std::thread tb([&]() { b = tryRunMcDropout(net, in, opts).value(); });
    ta.join();
    tb.join();
    expectBitIdentical(a, b);
}

TEST(ThreadSafeLogging, ConcurrentReportsAndLevelChanges)
{
    const LogLevel before = logLevel();
    constexpr int threads = 4;
    constexpr int iterations = 64;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int w = 0; w < threads; ++w) {
        pool.emplace_back([w]() {
            for (int i = 0; i < iterations; ++i) {
                // Mostly-suppressed messages keep the stress loop from
                // spamming stderr while still crossing the mutex.
                setLogLevel(w % 2 == 0 ? LogLevel::Quiet
                                       : LogLevel::Normal);
                inform("worker %d iteration %d", w, i);
                informVerbose("worker %d verbose %d", w, i);
                (void)logLevel();
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    setLogLevel(before);
    SUCCEED();
}

TEST(ThreadSafeStats, ConcurrentCountersAndGauges)
{
    StatGroup group("mc.workers");
    constexpr std::size_t threads = 4;
    constexpr std::uint64_t perThread = 512;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
        pool.emplace_back([&group]() {
            for (std::uint64_t i = 0; i < perThread; ++i) {
                group.add("samples");
                group.add("bits", 8);
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    EXPECT_EQ(group.counter("samples"), threads * perThread);
    EXPECT_EQ(group.counter("bits"), threads * perThread * 8);
}
