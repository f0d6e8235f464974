/**
 * @file
 * Serving-layer tests: queue admission control and ordering, scheduler
 * load shedding and micro-batch formation, InferenceServer end-to-end
 * behaviour (per-request overrides, deadlines, cancellation, fault
 * plans, drain/shutdown), and the ServeConcurrency soak suite — the
 * TSan-targeted workload proving that many producers, fault-injected
 * engines and a mid-load shutdown lose no request and complete none
 * twice.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "serve/server.hpp"

using namespace fastbcnn;
using namespace fastbcnn::serve;

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

/** A calibrated tiny-model replica factory (deterministic). */
Expected<std::unique_ptr<FastBcnnEngine>>
makeTinyReplica(std::size_t samples = 4)
{
    EngineOptions eopts;
    eopts.mc.samples = samples;
    eopts.mc.seed = 21;
    eopts.mc.recordMasks = false;
    eopts.optimizer.samples = 2;
    Expected<std::unique_ptr<FastBcnnEngine>> engine =
        FastBcnnEngine::create(tinyBcnn(), eopts);
    if (!engine.hasValue())
        return engine;
    Status calibrated =
        engine.value()->tryCalibrate({ones(Shape({1, 6, 6}))});
    if (!calibrated.isOk())
        return calibrated;
    return engine;
}

ModelSpec
namedSpec(std::string id, EngineFactory factory)
{
    ModelSpec spec;
    spec.id = std::move(id);
    spec.factory = std::move(factory);
    return spec;
}

ModelSpec
tinySpec(std::string id = "tiny", std::size_t samples = 4)
{
    return namedSpec(std::move(id),
                     [samples]() { return makeTinyReplica(samples); });
}

PendingRequest
makePending(std::uint64_t id, std::uint64_t seq,
            const std::string &model, Priority priority,
            double deadline_ms = 0.0)
{
    PendingRequest p;
    p.id = id;
    p.seq = seq;
    p.request.modelId = model;
    p.request.priority = priority;
    p.request.deadlineMs = deadline_ms;
    p.submitted = ServeClock::now();
    if (deadline_ms > 0.0) {
        p.hasDeadline = true;
        p.deadline =
            p.submitted +
            std::chrono::duration_cast<ServeClock::duration>(
                std::chrono::duration<double, std::milli>(
                    deadline_ms));
    }
    return p;
}

} // namespace

// ---------------------------------------------------------------------------
// BoundedRequestQueue

TEST(ServeQueue, AdmissionControlRejectsWhenFull)
{
    BoundedRequestQueue queue(2);
    EXPECT_TRUE(queue.push(makePending(1, 1, "m", Priority::Standard))
                    .isOk());
    EXPECT_TRUE(queue.push(makePending(2, 2, "m", Priority::Standard))
                    .isOk());
    Status full = queue.push(makePending(3, 3, "m", Priority::Standard));
    ASSERT_FALSE(full.isOk());
    EXPECT_EQ(full.code(), ErrorCode::ResourceExhausted);
    EXPECT_EQ(queue.size(), 2u);

    queue.close(false);
    Status closed =
        queue.push(makePending(4, 4, "m", Priority::Standard));
    ASSERT_FALSE(closed.isOk());
    EXPECT_EQ(closed.code(), ErrorCode::Unavailable);
}

TEST(ServeQueue, PopOrdersByPriorityThenDeadlineThenFifo)
{
    BoundedRequestQueue queue(8);
    // Insertion order deliberately scrambled.
    ASSERT_TRUE(queue.push(makePending(1, 1, "m", Priority::Background))
                    .isOk());
    ASSERT_TRUE(
        queue.push(makePending(2, 2, "m", Priority::Standard, 1e6))
            .isOk());
    ASSERT_TRUE(
        queue.push(makePending(3, 3, "m", Priority::Standard, 1e3))
            .isOk());
    ASSERT_TRUE(queue.push(makePending(4, 4, "m", Priority::Standard))
                    .isOk());
    ASSERT_TRUE(
        queue.push(makePending(5, 5, "m", Priority::Interactive))
            .isOk());
    ASSERT_TRUE(
        queue.push(makePending(6, 6, "m", Priority::Standard))
            .isOk());

    std::vector<std::uint64_t> order;
    queue.close(true);  // drain: pop everything then nullopt
    while (auto p = queue.pop())
        order.push_back(p->id);
    // Interactive first; Standard EDF (1e3 before 1e6), then the two
    // no-deadline Standards in FIFO order; Background last.
    EXPECT_EQ(order, (std::vector<std::uint64_t>{5, 3, 2, 4, 6, 1}));
}

TEST(ServeQueue, TryPopModelPicksOnlyMatching)
{
    BoundedRequestQueue queue(4);
    ASSERT_TRUE(queue.push(makePending(1, 1, "a", Priority::Standard))
                    .isOk());
    ASSERT_TRUE(queue.push(makePending(2, 2, "b", Priority::Standard))
                    .isOk());
    EXPECT_FALSE(queue.tryPopModel("c").has_value());
    auto b = queue.tryPopModel("b");
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->id, 2u);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(ServeQueue, HardCloseLeavesLeftoversForFlush)
{
    BoundedRequestQueue queue(4);
    ASSERT_TRUE(queue.push(makePending(1, 1, "m", Priority::Standard))
                    .isOk());
    ASSERT_TRUE(queue.push(makePending(2, 2, "m", Priority::Standard))
                    .isOk());
    queue.close(false);
    EXPECT_FALSE(queue.pop().has_value());  // hard close: no draining
    std::vector<PendingRequest> leftovers = queue.flush();
    EXPECT_EQ(leftovers.size(), 2u);
    EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------------------
// BatchScheduler

TEST(ServeScheduler, ShedsExpiredAndBatchesSameModel)
{
    BoundedRequestQueue queue(8);
    std::vector<std::uint64_t> shedIds;
    std::vector<InferResponse> shed;
    BatchScheduler scheduler(
        queue, 2, [&](PendingRequest &&p, InferResponse &&response) {
            shedIds.push_back(p.id);
            shed.push_back(std::move(response));
        });

    // One already-expired request and three live ones (two models).
    ASSERT_TRUE(
        queue.push(makePending(1, 1, "a", Priority::Standard, 1e-6))
            .isOk());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(queue.push(makePending(2, 2, "a", Priority::Standard))
                    .isOk());
    ASSERT_TRUE(queue.push(makePending(3, 3, "b", Priority::Standard))
                    .isOk());
    ASSERT_TRUE(queue.push(makePending(4, 4, "a", Priority::Standard))
                    .isOk());

    auto first = scheduler.nextBatch();
    ASSERT_TRUE(first.has_value());
    // Expired head was shed; batch groups model 'a' past the queued
    // 'b' request, up to maxBatch = 2.
    EXPECT_EQ(shedIds, std::vector<std::uint64_t>{1});
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0].id, 1u);
    EXPECT_EQ(shed[0].outcome, Outcome::Shed);
    EXPECT_EQ(shed[0].error.code(), ErrorCode::DeadlineExceeded);
    EXPECT_EQ(shed[0].error.message(),
              "shed: deadline (0.000 ms) expired while queued");
    EXPECT_EQ(shed[0].brownoutLevel, BrownoutLevel::Normal);
    ASSERT_EQ(first->size(), 2u);
    EXPECT_EQ((*first)[0].id, 2u);
    EXPECT_EQ((*first)[1].id, 4u);

    auto second = scheduler.nextBatch();
    ASSERT_TRUE(second.has_value());
    ASSERT_EQ(second->size(), 1u);
    EXPECT_EQ((*second)[0].id, 3u);

    queue.close(true);
    EXPECT_FALSE(scheduler.nextBatch().has_value());
}

// ---------------------------------------------------------------------------
// InferenceServer

TEST(ServeServer, CreateRejectsBadConfigurations)
{
    ServerOptions bad;
    bad.workers = 0;
    EXPECT_FALSE(validateServerOptions(bad).isOk());

    auto noModels = InferenceServer::create({}, ServerOptions{});
    ASSERT_FALSE(noModels.hasValue());
    EXPECT_EQ(noModels.error().code(), ErrorCode::InvalidArgument);

    auto uncalibrated = InferenceServer::create(
        {namedSpec("raw", []() {
             return FastBcnnEngine::create(tinyBcnn(), EngineOptions{});
         })},
        ServerOptions{});
    ASSERT_FALSE(uncalibrated.hasValue());
    EXPECT_EQ(uncalibrated.error().code(), ErrorCode::InvalidArgument);
}

TEST(ServeServer, EndToEndServesAndReportsLatency)
{
    ServerOptions sopts;
    sopts.workers = 2;
    sopts.queueCapacity = 32;
    sopts.maxBatch = 4;
    auto server = InferenceServer::create({tinySpec()}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    std::vector<RequestHandle> handles;
    for (int i = 0; i < 8; ++i) {
        InferRequest req;
        req.modelId = "tiny";
        req.input = ones(Shape({1, 6, 6}));
        auto handle = srv.submit(std::move(req));
        ASSERT_TRUE(handle.hasValue());
        handles.push_back(std::move(handle).value());
    }
    srv.drain();

    for (RequestHandle &h : handles) {
        InferResponse resp = h.response.get();
        EXPECT_EQ(resp.outcome, Outcome::Ok);
        ASSERT_TRUE(resp.result.has_value());
        EXPECT_EQ(resp.result->outputs.size(), 4u);
        EXPECT_GE(resp.batchSize, 1u);
        EXPECT_GE(resp.totalMs, resp.serviceMs);
    }
    const HealthReport health = srv.health();
    EXPECT_EQ(health.accepted, 8u);
    EXPECT_EQ(health.ok, 8u);
    EXPECT_EQ(health.failed, 0u);
    EXPECT_EQ(health.batchedRequests, 8u);
    EXPECT_GE(health.batches, 2u);  // maxBatch 4
    EXPECT_EQ(srv.latencySnapshot(Outcome::Ok).count(), 8u);
    EXPECT_GT(srv.latencySnapshot(Outcome::Ok).p99Ms(), 0.0);

    // Draining is sticky: nothing is accepted afterwards.
    EXPECT_FALSE(srv.accepting());
    InferRequest late;
    late.modelId = "tiny";
    late.input = ones(Shape({1, 6, 6}));
    auto rejected = srv.submit(std::move(late));
    ASSERT_FALSE(rejected.hasValue());
    EXPECT_EQ(rejected.error().code(), ErrorCode::Unavailable);
}

TEST(ServeServer, AdmissionRejectsInvalidRequests)
{
    auto server = InferenceServer::create({tinySpec()}, ServerOptions{});
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    InferRequest unknown;
    unknown.modelId = "nope";
    unknown.input = ones(Shape({1, 6, 6}));
    auto r1 = srv.submit(std::move(unknown));
    ASSERT_FALSE(r1.hasValue());
    EXPECT_EQ(r1.error().code(), ErrorCode::NotFound);

    InferRequest badShape;
    badShape.modelId = "tiny";
    badShape.input = ones(Shape({1, 4, 4}));
    auto r2 = srv.submit(std::move(badShape));
    ASSERT_FALSE(r2.hasValue());
    EXPECT_EQ(r2.error().code(), ErrorCode::InvalidArgument);

    InferRequest badQuorum;
    badQuorum.modelId = "tiny";
    badQuorum.input = ones(Shape({1, 6, 6}));
    badQuorum.mc.quorum = 100;  // exceeds T = 4: can never be met
    auto r3 = srv.submit(std::move(badQuorum));
    ASSERT_FALSE(r3.hasValue());
    EXPECT_EQ(r3.error().code(), ErrorCode::InvalidArgument);

    EXPECT_EQ(srv.health().rejectedInvalid, 3u);
    srv.shutdown();
}

TEST(ServeServer, PerRequestSeedIsDeterministicAcrossReplicas)
{
    ServerOptions sopts;
    sopts.workers = 2;
    auto server = InferenceServer::create({tinySpec()}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    auto submitSeeded = [&srv]() {
        InferRequest req;
        req.modelId = "tiny";
        req.input = ones(Shape({1, 6, 6}));
        req.mc.seed = 99;
        req.mc.samples = 6;
        auto handle = srv.submit(std::move(req));
        EXPECT_TRUE(handle.hasValue());
        return std::move(handle).value();
    };
    RequestHandle a = submitSeeded();
    RequestHandle b = submitSeeded();
    srv.drain();

    InferResponse ra = a.response.get();
    InferResponse rb = b.response.get();
    ASSERT_EQ(ra.outcome, Outcome::Ok);
    ASSERT_EQ(rb.outcome, Outcome::Ok);
    ASSERT_EQ(ra.result->outputs.size(), 6u);
    // Same seed, same calibrated replicas: bit-identical regardless
    // of which worker served which request.
    EXPECT_TRUE(ra.result->summary.mean.allClose(
        rb.result->summary.mean, 0.0f));
    EXPECT_EQ(ra.result->summary.argmax, rb.result->summary.argmax);
}

TEST(ServeServer, GuardEnabledReplicaServesTheExactReference)
{
    // EngineOptions::guard is read only offline and by engine-level
    // callers: a replica built with it is served like any other, as
    // the exact MC reference, and its guard is never fed.
    const auto guardedReplica =
        []() -> Expected<std::unique_ptr<FastBcnnEngine>> {
        EngineOptions eopts;
        eopts.mc.samples = 4;
        eopts.mc.seed = 21;
        eopts.mc.recordMasks = false;
        eopts.optimizer.samples = 2;
        eopts.guard.enabled = true;
        eopts.guard.audit.rate = 1.0;
        Expected<std::unique_ptr<FastBcnnEngine>> engine =
            FastBcnnEngine::create(tinyBcnn(), eopts);
        if (!engine.hasValue())
            return engine;
        Status calibrated =
            engine.value()->tryCalibrate({ones(Shape({1, 6, 6}))});
        if (!calibrated.isOk())
            return calibrated;
        return engine;
    };
    ServerOptions sopts;
    sopts.workers = 1;
    auto server = InferenceServer::create(
        {namedSpec("guarded", guardedReplica)}, sopts);
    ASSERT_TRUE(server.hasValue()) << server.error().toString();
    InferenceServer &srv = *server.value();

    InferRequest req;
    req.modelId = "guarded";
    req.input = ones(Shape({1, 6, 6}));
    req.mc.seed = 99;
    req.mc.samples = 6;
    const McOverrides overrides = req.mc;
    auto handle = srv.submit(std::move(req));
    ASSERT_TRUE(handle.hasValue());
    InferResponse response = handle.value().response.get();
    ASSERT_EQ(response.outcome, Outcome::Ok);
    ASSERT_TRUE(response.result.has_value());

    Expected<std::unique_ptr<FastBcnnEngine>> reference =
        guardedReplica();
    ASSERT_TRUE(reference.hasValue());
    const McOptions merged =
        applyOverrides(reference.value()->options().mc, overrides);
    Expected<McResult> want = reference.value()->tryMcReference(
        ones(Shape({1, 6, 6})), merged);
    ASSERT_TRUE(want.hasValue()) << want.error().toString();

    const auto sameBytes = [](const Tensor &a, const Tensor &b) {
        return a.shape() == b.shape() &&
               std::memcmp(a.data().data(), b.data().data(),
                           a.numel() * sizeof(float)) == 0;
    };
    const McResult &got = *response.result;
    ASSERT_EQ(got.outputs.size(), want.value().outputs.size());
    for (std::size_t t = 0; t < got.outputs.size(); ++t) {
        EXPECT_TRUE(sameBytes(got.outputs[t], want.value().outputs[t]))
            << "sample " << t;
    }
    EXPECT_TRUE(sameBytes(got.summary.mean, want.value().summary.mean));
    EXPECT_TRUE(sameBytes(got.summary.variance,
                          want.value().summary.variance));

    const std::shared_ptr<const VersionedEngine> replica =
        srv.registry().acquire("guarded", 0);
    ASSERT_NE(replica, nullptr);
    ASSERT_NE(replica->engine->guard(), nullptr);
    EXPECT_EQ(replica->engine->guard()->snapshot().samplesSeen, 0u);
    srv.drain();
}

TEST(ServeServer, CancelledBeforeSubmitCompletesAsCancelled)
{
    auto server = InferenceServer::create({tinySpec()}, ServerOptions{});
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    InferRequest req;
    req.modelId = "tiny";
    req.input = ones(Shape({1, 6, 6}));
    req.token.cancel();  // cancelled while "in flight" to the server
    auto handle = srv.submit(std::move(req));
    ASSERT_TRUE(handle.hasValue());
    InferResponse resp = handle.value().response.get();
    EXPECT_EQ(resp.outcome, Outcome::Cancelled);
    EXPECT_EQ(resp.error.code(), ErrorCode::Cancelled);
    srv.drain();
    EXPECT_EQ(srv.health().cancelled, 1u);
}

TEST(ServeServer, ExpiredDeadlineIsShedNotServed)
{
    auto server = InferenceServer::create({tinySpec()}, ServerOptions{});
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    InferRequest req;
    req.modelId = "tiny";
    req.input = ones(Shape({1, 6, 6}));
    req.deadlineMs = 1e-6;  // expires before any dispatch can happen
    auto handle = srv.submit(std::move(req));
    ASSERT_TRUE(handle.hasValue());
    InferResponse resp = handle.value().response.get();
    EXPECT_EQ(resp.outcome, Outcome::Shed);
    EXPECT_EQ(resp.error.code(), ErrorCode::DeadlineExceeded);
    EXPECT_EQ(resp.serviceMs, 0.0);
    srv.drain();
    EXPECT_EQ(srv.health().shed, 1u);
    EXPECT_EQ(srv.latencySnapshot(Outcome::Shed).count(), 1u);
}

TEST(ServeServer, PerRequestFaultPlanDegradesOrFails)
{
    auto server = InferenceServer::create({tinySpec()}, ServerOptions{});
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    FaultPlan killOne;
    FaultSpec spec;
    spec.kind = FaultKind::SampleKill;
    spec.sample = 0;
    killOne.add(spec);

    FaultPlan killAll;
    FaultSpec all;
    all.kind = FaultKind::SampleKill;
    all.sample = kEverySample;
    killAll.add(all);

    InferRequest degradedReq;
    degradedReq.modelId = "tiny";
    degradedReq.input = ones(Shape({1, 6, 6}));
    degradedReq.mc.faults = &killOne;
    auto h1 = srv.submit(std::move(degradedReq));
    ASSERT_TRUE(h1.hasValue());

    InferRequest doomedReq;
    doomedReq.modelId = "tiny";
    doomedReq.input = ones(Shape({1, 6, 6}));
    doomedReq.mc.faults = &killAll;
    auto h2 = srv.submit(std::move(doomedReq));
    ASSERT_TRUE(h2.hasValue());

    srv.drain();

    InferResponse degraded = h1.value().response.get();
    EXPECT_EQ(degraded.outcome, Outcome::Ok);
    EXPECT_TRUE(degraded.degraded());
    EXPECT_EQ(degraded.result->census.survived, 3u);

    InferResponse doomed = h2.value().response.get();
    EXPECT_EQ(doomed.outcome, Outcome::Failed);
    EXPECT_EQ(doomed.error.code(), ErrorCode::QuorumNotMet);

    const HealthReport health = srv.health();
    EXPECT_EQ(health.degraded, 1u);
    EXPECT_EQ(health.failed, 1u);
}

TEST(ServeServer, ShutdownCancelsQueuedRequests)
{
    // One worker, and a first request large enough to keep it busy
    // while more requests stack up behind it.
    ServerOptions sopts;
    sopts.workers = 1;
    sopts.queueCapacity = 16;
    sopts.maxBatch = 1;
    auto server =
        InferenceServer::create({tinySpec("tiny", 64)}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    std::vector<RequestHandle> handles;
    for (int i = 0; i < 6; ++i) {
        InferRequest req;
        req.modelId = "tiny";
        req.input = ones(Shape({1, 6, 6}));
        auto handle = srv.submit(std::move(req));
        ASSERT_TRUE(handle.hasValue());
        handles.push_back(std::move(handle).value());
    }
    srv.shutdown();

    std::size_t okCount = 0, cancelledCount = 0;
    for (RequestHandle &h : handles) {
        InferResponse resp = h.response.get();
        ASSERT_TRUE(resp.outcome == Outcome::Ok ||
                    resp.outcome == Outcome::Cancelled);
        (resp.outcome == Outcome::Ok ? okCount : cancelledCount)++;
    }
    // Every request resolved exactly once; the hard shutdown cancelled
    // whatever the single worker had not pulled yet.
    EXPECT_EQ(okCount + cancelledCount, 6u);
    const HealthReport health = srv.health();
    EXPECT_EQ(health.ok, okCount);
    EXPECT_EQ(health.cancelled, cancelledCount);
}

// ---------------------------------------------------------------------------
// ServeConcurrency — the TSan-targeted soak suite (the tsan preset
// runs every suite matching 'Concurrency').

TEST(ServeConcurrency, SoakManyProducersFaultsAndMidLoadDrain)
{
    ServerOptions sopts;
    sopts.workers = 3;
    sopts.queueCapacity = 24;
    sopts.maxBatch = 4;
    auto server = InferenceServer::create({tinySpec("tiny", 3)}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    // One shared, immutable fault plan: kills sample 0 of any run it
    // is attached to.  Concurrent reads from worker threads are the
    // point (FaultPlan is const while runs are in flight).
    FaultPlan killOne;
    FaultSpec spec;
    spec.kind = FaultKind::SampleKill;
    spec.sample = 0;
    killOne.add(spec);

    constexpr std::size_t producers = 4;
    constexpr std::size_t perProducer = 24;
    struct Submitted {
        RequestHandle handle;
        bool faulted = false;
    };
    std::mutex handlesMutex;
    std::vector<Submitted> handles;
    std::atomic<std::size_t> rejected{0};

    std::vector<std::thread> pool;
    pool.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
        pool.emplace_back([&, p]() {
            for (std::size_t i = 0; i < perProducer; ++i) {
                InferRequest req;
                req.modelId = "tiny";
                req.input = ones(Shape({1, 6, 6}));
                req.priority = static_cast<Priority>(i % 3);
                req.mc.seed = p * 1000 + i;
                const bool faulted = i % 3 == 0;
                if (faulted)
                    req.mc.faults = &killOne;
                if (i % 5 == 0)
                    req.deadlineMs = 0.05;  // some will be shed
                if (i % 7 == 0)
                    req.token.cancel();
                auto handle = srv.submit(std::move(req));
                if (!handle.hasValue()) {
                    // Backpressure (queue full) or the drain racing
                    // in: both are expected under overload.
                    EXPECT_TRUE(
                        handle.error().code() ==
                            ErrorCode::ResourceExhausted ||
                        handle.error().code() == ErrorCode::Unavailable);
                    rejected.fetch_add(1);
                    continue;
                }
                const std::lock_guard<std::mutex> lock(handlesMutex);
                handles.push_back({std::move(handle).value(), faulted});
            }
        });
    }
    // Drain mid-load: producers are still submitting when admission
    // closes; whatever was accepted must still complete.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    srv.drain();
    for (std::thread &t : pool)
        t.join();

    // No lost requests: every accepted future resolves.  No
    // double-completions: a second set_value on any promise would
    // have thrown std::future_error inside the server.
    std::array<std::size_t, kOutcomeCount> byOutcome{};
    for (Submitted &h : handles) {
        ASSERT_EQ(h.handle.response.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready);
        InferResponse resp = h.handle.response.get();
        ++byOutcome[static_cast<std::size_t>(resp.outcome)];
        if (resp.outcome == Outcome::Ok && resp.degraded()) {
            // Every lost sample is accounted for: the fault kills
            // exactly sample 0 of a faulted request (sample 0 always
            // launches), and any other casualty is a sample the
            // deadline starved.
            const DegradationCensus &census = resp.result->census;
            ASSERT_FALSE(census.failures.empty());
            std::size_t firstStarved = 0;
            if (h.faulted) {
                EXPECT_EQ(census.failures.front().sample, 0u);
                EXPECT_EQ(census.failures.front().code,
                          ErrorCode::FaultInjected);
                firstStarved = 1;
            }
            for (std::size_t f = firstStarved; f < census.failures.size();
                 ++f) {
                EXPECT_EQ(census.failures[f].code,
                          ErrorCode::DeadlineExceeded);
            }
            EXPECT_EQ(census.survived + census.failures.size(),
                      census.budget);
        }
    }
    const std::size_t accepted = handles.size();
    EXPECT_EQ(accepted + rejected.load(), producers * perProducer);
    EXPECT_EQ(byOutcome[0] + byOutcome[1] + byOutcome[2] + byOutcome[3],
              accepted);
    const HealthReport health = srv.health();
    EXPECT_EQ(health.accepted, accepted);
    EXPECT_EQ(health.ok, byOutcome[static_cast<std::size_t>(Outcome::Ok)]);
    EXPECT_EQ(health.shed,
              byOutcome[static_cast<std::size_t>(Outcome::Shed)]);
    EXPECT_EQ(health.cancelled,
              byOutcome[static_cast<std::size_t>(Outcome::Cancelled)]);
    EXPECT_EQ(health.failed,
              byOutcome[static_cast<std::size_t>(Outcome::Failed)]);
    const std::uint64_t latencyTotal =
        srv.latencySnapshot(Outcome::Ok).count() +
        srv.latencySnapshot(Outcome::Shed).count() +
        srv.latencySnapshot(Outcome::Cancelled).count() +
        srv.latencySnapshot(Outcome::Failed).count();
    EXPECT_EQ(latencyTotal, accepted);
}

TEST(ServeConcurrency, ConcurrentSubmittersSeeConsistentCounters)
{
    ServerOptions sopts;
    sopts.workers = 2;
    sopts.queueCapacity = 64;
    auto server = InferenceServer::create({tinySpec("tiny", 2)}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    constexpr std::size_t producers = 3;
    constexpr std::size_t perProducer = 10;
    std::atomic<std::size_t> accepted{0};
    std::vector<std::thread> pool;
    std::mutex handlesMutex;
    std::vector<RequestHandle> handles;
    pool.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
        pool.emplace_back([&]() {
            for (std::size_t i = 0; i < perProducer; ++i) {
                InferRequest req;
                req.modelId = "tiny";
                req.input = ones(Shape({1, 6, 6}));
                auto handle = srv.submit(std::move(req));
                if (handle.hasValue()) {
                    accepted.fetch_add(1);
                    const std::lock_guard<std::mutex> lock(
                        handlesMutex);
                    handles.push_back(std::move(handle).value());
                }
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    srv.drain();
    for (RequestHandle &h : handles)
        EXPECT_EQ(h.response.get().outcome, Outcome::Ok);
    const HealthReport health = srv.health();
    EXPECT_EQ(health.accepted, accepted.load());
    EXPECT_EQ(health.ok, accepted.load());
}

// ---------------------------------------------------------------------------
// ServeBreaker — per-model circuit breaking

namespace {

/** Breaker options that trip and recover at unit-test speed. */
BreakerOptions
fastBreaker(std::size_t threshold = 2, double cooldown_ms = 40.0)
{
    BreakerOptions opts;
    opts.enabled = true;
    opts.failureThreshold = threshold;
    opts.cooldownMs = cooldown_ms;
    opts.halfOpenProbes = 1;
    opts.closeSuccesses = 1;
    return opts;
}

/** The kill-every-sample fault plan (forces Outcome::Failed). */
const FaultPlan &
killAllPlan()
{
    static const FaultPlan plan = []() {
        FaultPlan p;
        FaultSpec all;
        all.kind = FaultKind::SampleKill;
        all.sample = kEverySample;
        p.add(all);
        return p;
    }();
    return plan;
}

} // namespace

TEST(ServeBreaker, DisabledBreakerAdmitsEverything)
{
    CircuitBreaker breaker;  // default: disabled
    const auto now = ServeClock::now();
    for (int i = 0; i < 10; ++i) {
        breaker.report(BreakerSignal::Failure, false, now);
        const CircuitBreaker::Admission a = breaker.admit(now);
        EXPECT_TRUE(a.admitted);
        EXPECT_FALSE(a.probe);
    }
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_EQ(breaker.opens(), 0u);
    EXPECT_EQ(breaker.rejections(), 0u);
}

TEST(ServeBreaker, OpensAfterConsecutiveFailuresThenRecovers)
{
    BreakerOptions opts = fastBreaker(3, 100.0);
    opts.closeSuccesses = 2;
    CircuitBreaker breaker(opts);
    const auto t0 = ServeClock::now();

    // A success resets the consecutive-failure run.
    breaker.report(BreakerSignal::Failure, false, t0);
    breaker.report(BreakerSignal::Failure, false, t0);
    breaker.report(BreakerSignal::Success, false, t0);
    breaker.report(BreakerSignal::Failure, false, t0);
    breaker.report(BreakerSignal::Failure, false, t0);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    breaker.report(BreakerSignal::Failure, false, t0);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.opens(), 1u);

    // Inside the cooldown everything is rejected, fast.
    const auto early = t0 + std::chrono::milliseconds(10);
    EXPECT_FALSE(breaker.admit(early).admitted);
    EXPECT_FALSE(breaker.admit(early).admitted);
    EXPECT_EQ(breaker.rejections(), 2u);

    // Cooldown expiry: the next admit is the (single) probe; the
    // next one is rejected because the slot is taken.
    const auto late = t0 + std::chrono::milliseconds(150);
    const CircuitBreaker::Admission probe = breaker.admit(late);
    EXPECT_TRUE(probe.admitted);
    EXPECT_TRUE(probe.probe);
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    EXPECT_FALSE(breaker.admit(late).admitted);

    // Two probe successes close it.
    breaker.report(BreakerSignal::Success, true, late);
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    const CircuitBreaker::Admission probe2 = breaker.admit(late);
    ASSERT_TRUE(probe2.probe);
    breaker.report(BreakerSignal::Success, true, late);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.admit(late).admitted);
}

TEST(ServeBreaker, ProbeFailureReopens)
{
    CircuitBreaker breaker(fastBreaker(1, 50.0));
    const auto t0 = ServeClock::now();
    breaker.report(BreakerSignal::Failure, false, t0);
    ASSERT_EQ(breaker.state(), BreakerState::Open);

    const auto late = t0 + std::chrono::milliseconds(80);
    const CircuitBreaker::Admission probe = breaker.admit(late);
    ASSERT_TRUE(probe.probe);
    breaker.report(BreakerSignal::Failure, true, late);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.opens(), 2u);

    // The new cooldown starts at the reopen, not the first trip.
    EXPECT_FALSE(breaker.admit(late).admitted);
    const auto later = late + std::chrono::milliseconds(80);
    EXPECT_TRUE(breaker.admit(later).admitted);
}

TEST(ServeBreaker, NeutralProbeReleasesSlotWithoutClosing)
{
    CircuitBreaker breaker(fastBreaker(1, 50.0));
    const auto t0 = ServeClock::now();
    breaker.report(BreakerSignal::Failure, false, t0);
    const auto late = t0 + std::chrono::milliseconds(80);
    ASSERT_TRUE(breaker.admit(late).probe);
    ASSERT_FALSE(breaker.admit(late).admitted);

    // A shed / cancelled probe neither closes nor reopens — it only
    // frees the slot for the next probe.
    breaker.report(BreakerSignal::Neutral, true, late);
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    EXPECT_TRUE(breaker.admit(late).probe);
}

TEST(ServeBreaker, ServerOpensRejectsFastAndRecovers)
{
    ServerOptions sopts;
    sopts.workers = 1;
    sopts.breaker = fastBreaker(2, 40.0);
    auto server = InferenceServer::create({tinySpec()}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    // Two forced failures trip the breaker.
    for (int i = 0; i < 2; ++i) {
        InferRequest doomed;
        doomed.modelId = "tiny";
        doomed.input = ones(Shape({1, 6, 6}));
        doomed.mc.faults = &killAllPlan();
        auto handle = srv.submit(std::move(doomed));
        ASSERT_TRUE(handle.hasValue());
        EXPECT_EQ(handle.value().response.get().outcome,
                  Outcome::Failed);
    }
    ASSERT_NE(srv.breaker("tiny"), nullptr);
    EXPECT_EQ(srv.breaker("tiny")->state(), BreakerState::Open);

    // While open, requests are rejected with Unavailable without
    // touching the queue.
    InferRequest rejected;
    rejected.modelId = "tiny";
    rejected.input = ones(Shape({1, 6, 6}));
    auto nope = srv.submit(std::move(rejected));
    ASSERT_FALSE(nope.hasValue());
    EXPECT_EQ(nope.error().code(), ErrorCode::Unavailable);
    HealthReport mid = srv.health();
    EXPECT_GE(mid.rejectedBreaker, 1u);
    ASSERT_EQ(mid.models.size(), 1u);
    EXPECT_EQ(mid.models[0].breakerState, BreakerState::Open);
    EXPECT_GE(mid.models[0].breakerOpens, 1u);
    EXPECT_GE(mid.rejectedBreaker, 1u);

    // After the cooldown a healthy request probes it closed again.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    InferRequest probe;
    probe.modelId = "tiny";
    probe.input = ones(Shape({1, 6, 6}));
    auto probed = srv.submit(std::move(probe));
    ASSERT_TRUE(probed.hasValue());
    EXPECT_EQ(probed.value().response.get().outcome, Outcome::Ok);
    EXPECT_EQ(srv.breaker("tiny")->state(), BreakerState::Closed);

    InferRequest after;
    after.modelId = "tiny";
    after.input = ones(Shape({1, 6, 6}));
    auto served = srv.submit(std::move(after));
    ASSERT_TRUE(served.hasValue());
    EXPECT_EQ(served.value().response.get().outcome, Outcome::Ok);
    srv.drain();
}

TEST(ServeConcurrency, BreakerSoakLosesNoRequestAndDoublesNone)
{
    // TSan target: many producers race a flapping breaker (forced
    // failures trip it, cooldowns re-close it).  Every accepted
    // request's future must resolve exactly once; every rejection must
    // be Unavailable (breaker) or ResourceExhausted (queue).
    ServerOptions sopts;
    sopts.workers = 2;
    sopts.queueCapacity = 32;
    sopts.breaker = fastBreaker(3, 5.0);
    auto server = InferenceServer::create({tinySpec("tiny", 2)}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    // FASTBCNN_CHAOS=1 (the nightly chaos-soak job) scales the load
    // up and dooms more of the traffic, flapping the breaker harder.
    const bool chaos = std::getenv("FASTBCNN_CHAOS") != nullptr;
    const std::size_t producers = chaos ? 8 : 4;
    const std::size_t perProducer = chaos ? 100 : 25;
    const std::size_t doomEvery = chaos ? 2 : 3;
    std::atomic<std::size_t> accepted{0};
    std::atomic<std::size_t> rejectedBreaker{0};
    std::atomic<std::size_t> rejectedOther{0};
    std::mutex handlesMutex;
    std::vector<RequestHandle> handles;
    std::vector<std::thread> pool;
    pool.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
        pool.emplace_back([&, p]() {
            for (std::size_t i = 0; i < perProducer; ++i) {
                InferRequest req;
                req.modelId = "tiny";
                req.input = ones(Shape({1, 6, 6}));
                // Every doomEvery-th request of producer 0 keeps
                // tripping the breaker under load.
                if (p == 0 && i % doomEvery == 0)
                    req.mc.faults = &killAllPlan();
                auto handle = srv.submit(std::move(req));
                if (handle.hasValue()) {
                    accepted.fetch_add(1);
                    const std::lock_guard<std::mutex> lock(
                        handlesMutex);
                    handles.push_back(std::move(handle).value());
                } else if (handle.error().code() ==
                           ErrorCode::Unavailable) {
                    rejectedBreaker.fetch_add(1);
                } else {
                    ASSERT_EQ(handle.error().code(),
                              ErrorCode::ResourceExhausted);
                    rejectedOther.fetch_add(1);
                }
                if (i % 8 == 7) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(6));
                }
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    srv.drain();

    std::size_t resolved = 0;
    for (RequestHandle &h : handles) {
        const InferResponse response = h.response.get();
        ++resolved;
        EXPECT_TRUE(response.outcome == Outcome::Ok ||
                    response.outcome == Outcome::Failed ||
                    response.outcome == Outcome::Cancelled);
    }
    EXPECT_EQ(resolved, accepted.load());
    const HealthReport health = srv.health();
    EXPECT_EQ(health.accepted, accepted.load());
    EXPECT_EQ(health.rejectedBreaker, rejectedBreaker.load());
    EXPECT_EQ(health.submitted, producers * perProducer);
    EXPECT_EQ(health.ok + health.failed + health.cancelled + health.shed,
              accepted.load());
}

// ---------------------------------------------------------------------------
// RegistrySwap: hot-swap atomicity, rollback, backoff, health gate.
// ---------------------------------------------------------------------------

namespace {

/** A tiny-model replica with version-specific weights. */
Expected<std::unique_ptr<FastBcnnEngine>>
makeVersionReplica(std::uint64_t weight_seed, std::size_t samples = 4)
{
    Network net = tinyBcnn();
    InitOptions init;
    init.seed = weight_seed;
    init.biasShift = 0.0;
    initializeWeights(net, init);
    EngineOptions eopts;
    eopts.mc.samples = samples;
    eopts.mc.seed = 21;
    eopts.mc.recordMasks = false;
    eopts.optimizer.samples = 2;
    Expected<std::unique_ptr<FastBcnnEngine>> engine =
        FastBcnnEngine::create(std::move(net), eopts);
    if (!engine.hasValue())
        return engine;
    Status calibrated =
        engine.value()->tryCalibrate({ones(Shape({1, 6, 6}))});
    if (!calibrated.isOk())
        return calibrated;
    return engine;
}

ModelVersionSpec
versionSpec(std::uint64_t version, std::uint64_t weight_seed,
            std::string id = "tiny")
{
    ModelVersionSpec spec;
    spec.modelId = std::move(id);
    spec.version = version;
    spec.factory = [weight_seed]() {
        return makeVersionReplica(weight_seed);
    };
    return spec;
}

const RegistryModelHealth &
registryHealthOf(const HealthReport &report, const std::string &id)
{
    for (const ModelHealth &model : report.models) {
        if (model.id == id)
            return model.registry;
    }
    ADD_FAILURE() << "model '" << id << "' missing from health()";
    static const RegistryModelHealth empty;
    return empty;
}

} // namespace

TEST(RegistrySwap, SwapUnderLoadLosesNothingAndStaysVersionAtomic)
{
    ServerOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 256;
    opts.maxBatch = 4;
    auto created =
        InferenceServer::create({tinySpec("tiny", 2)}, opts);
    ASSERT_TRUE(created.hasValue()) << created.error().toString();
    InferenceServer &srv = *created.value();

    constexpr std::size_t producers = 4;
    constexpr std::size_t perProducer = 48;
    std::atomic<std::uint64_t> accepted{0};
    std::mutex handlesMutex;
    std::vector<RequestHandle> handles;

    std::vector<std::thread> pool;
    pool.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
        pool.emplace_back([&]() {
            for (std::size_t i = 0; i < perProducer; ++i) {
                InferRequest req;
                req.modelId = "tiny";
                req.input = ones(Shape({1, 6, 6}));
                auto handle = srv.submit(std::move(req));
                if (handle.hasValue()) {
                    accepted.fetch_add(1);
                    const std::lock_guard<std::mutex> lock(
                        handlesMutex);
                    handles.push_back(std::move(handle).value());
                } else {
                    ASSERT_EQ(handle.error().code(),
                              ErrorCode::ResourceExhausted);
                }
                if (i % 16 == 15) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                }
            }
        });
    }

    // Two hot-swaps race the producers.
    auto swap2 = srv.requestSwap(versionSpec(2, 100));
    ASSERT_TRUE(swap2.hasValue()) << swap2.error().toString();
    const Status s2 = swap2.value().get();
    EXPECT_TRUE(s2.isOk()) << s2.toString();
    auto swap3 = srv.requestSwap(versionSpec(3, 101));
    ASSERT_TRUE(swap3.hasValue());
    const Status s3 = swap3.value().get();
    EXPECT_TRUE(s3.isOk()) << s3.toString();

    for (std::thread &t : pool)
        t.join();
    srv.drain();

    // Exactly-once completion, and every served request ran on
    // exactly one *installed* version — no request ever observes a
    // half-swapped model.
    std::size_t resolved = 0;
    for (RequestHandle &h : handles) {
        const InferResponse response = h.response.get();
        ++resolved;
        if (response.outcome == Outcome::Ok) {
            EXPECT_TRUE(response.modelVersion == 1 ||
                        response.modelVersion == 2 ||
                        response.modelVersion == 3)
                << "request served by uninstalled version "
                << response.modelVersion;
        }
    }
    EXPECT_EQ(resolved, accepted.load());
    const HealthReport report = srv.health();
    EXPECT_EQ(report.accepted, accepted.load());
    EXPECT_EQ(report.ok + report.failed + report.cancelled + report.shed,
              accepted.load());
    const RegistryModelHealth &reg = registryHealthOf(report, "tiny");
    EXPECT_EQ(3u, reg.activeVersion);
    EXPECT_EQ(0u, reg.warmingVersion);
    EXPECT_EQ(3u, reg.swaps);  // initial install + 2 hot-swaps
    EXPECT_EQ(0u, reg.rollbacks);
}

TEST(RegistrySwap, FailedSwapRollsBackAndBacksOff)
{
    ServerOptions opts;
    opts.workers = 1;
    opts.registry.backoffBaseMs = 400.0;
    auto created = InferenceServer::create({tinySpec()}, opts);
    ASSERT_TRUE(created.hasValue()) << created.error().toString();
    InferenceServer &srv = *created.value();

    // A factory that cannot load its checkpoint.
    ModelVersionSpec broken;
    broken.modelId = "tiny";
    broken.version = 2;
    broken.factory = []() -> Expected<std::unique_ptr<FastBcnnEngine>> {
        return errorf(ErrorCode::DataLoss,
                      "checkpoint failed its CRC32 check");
    };
    auto attempt = srv.requestSwap(broken);
    ASSERT_TRUE(attempt.hasValue());
    const Status failed = attempt.value().get();
    ASSERT_FALSE(failed.isOk());
    EXPECT_EQ(ErrorCode::DataLoss, failed.code());

    // Rolled back: v1 still serves, health says so.
    {
        const HealthReport report = srv.health();
        const RegistryModelHealth &reg =
            registryHealthOf(report, "tiny");
        EXPECT_EQ(1u, reg.activeVersion);
        EXPECT_EQ(1u, reg.rollbacks);
        EXPECT_EQ(1u, reg.consecutiveLoadFailures);
        EXPECT_GT(reg.backoffMs, 0.0);
        EXPECT_NE(std::string::npos, reg.lastEvent.find("rejected"));
    }
    InferRequest req;
    req.modelId = "tiny";
    req.input = ones(Shape({1, 6, 6}));
    auto handle = srv.submit(std::move(req));
    ASSERT_TRUE(handle.hasValue());
    EXPECT_EQ(Outcome::Ok, handle.value().response.get().outcome);

    // Inside the backoff window even a good swap fails fast...
    auto tooSoon = srv.requestSwap(versionSpec(2, 100));
    ASSERT_TRUE(tooSoon.hasValue());
    const Status rejected = tooSoon.value().get();
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(ErrorCode::Unavailable, rejected.code());

    // ...and once it expires, the swap lands and clears the failure
    // streak.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    auto retry = srv.requestSwap(versionSpec(2, 100));
    ASSERT_TRUE(retry.hasValue());
    const Status landed = retry.value().get();
    EXPECT_TRUE(landed.isOk()) << landed.toString();
    const HealthReport report = srv.health();
    const RegistryModelHealth &reg = registryHealthOf(report, "tiny");
    EXPECT_EQ(2u, reg.activeVersion);
    EXPECT_EQ(0u, reg.consecutiveLoadFailures);
    EXPECT_EQ(0.0, reg.backoffMs);
    srv.drain();
}

TEST(RegistrySwap, HealthGateRejectsWrongDigestAcceptsRightOne)
{
    ServerOptions opts;
    opts.workers = 1;
    opts.registry.backoffBaseMs = 1.0;  // no waiting between attempts
    auto created = InferenceServer::create({tinySpec()}, opts);
    ASSERT_TRUE(created.hasValue()) << created.error().toString();
    InferenceServer &srv = *created.value();

    const Tensor gateInput = ones(Shape({1, 6, 6}));
    // The recorded reference: what the *candidate* checkpoint (weight
    // seed 100) is supposed to produce, computed out-of-band.
    auto reference = makeVersionReplica(100);
    ASSERT_TRUE(reference.hasValue());
    auto expected = reference.value()->tryReferenceDigest(
        gateInput, 4, 777);
    ASSERT_TRUE(expected.hasValue()) << expected.error().toString();

    // Candidate with DIFFERENT weights (seed 200) against that
    // digest: the gate must catch the mismatch and roll back.
    ModelVersionSpec wrong = versionSpec(2, 200);
    wrong.gate.enabled = true;
    wrong.gate.input = gateInput;
    wrong.gate.expectedMean = expected.value();
    wrong.gate.samples = 4;
    wrong.gate.seed = 777;
    wrong.gate.epsilon = 1e-9;
    auto rejected = srv.requestSwap(wrong);
    ASSERT_TRUE(rejected.hasValue());
    const Status miss = rejected.value().get();
    ASSERT_FALSE(miss.isOk());
    EXPECT_EQ(ErrorCode::DataLoss, miss.code());
    EXPECT_EQ(1u,
              registryHealthOf(srv.health(), "tiny").activeVersion);

    // The matching candidate passes the same gate.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ModelVersionSpec right = versionSpec(2, 100);
    right.gate = wrong.gate;
    auto accepted2 = srv.requestSwap(right);
    ASSERT_TRUE(accepted2.hasValue());
    const Status landed = accepted2.value().get();
    EXPECT_TRUE(landed.isOk()) << landed.toString();
    EXPECT_EQ(2u,
              registryHealthOf(srv.health(), "tiny").activeVersion);
    srv.drain();
}

TEST(RegistrySwap, BreakerResetsOnSuccessfulSwap)
{
    ServerOptions opts;
    opts.workers = 1;
    opts.breaker = fastBreaker(3, 60000.0);  // cooldown >> test
    auto created = InferenceServer::create({tinySpec()}, opts);
    ASSERT_TRUE(created.hasValue()) << created.error().toString();
    InferenceServer &srv = *created.value();

    // Trip the breaker against v1.
    for (int i = 0; i < 3; ++i) {
        InferRequest doomed;
        doomed.modelId = "tiny";
        doomed.input = ones(Shape({1, 6, 6}));
        doomed.mc.faults = &killAllPlan();
        auto handle = srv.submit(std::move(doomed));
        ASSERT_TRUE(handle.hasValue());
        EXPECT_EQ(Outcome::Failed,
                  handle.value().response.get().outcome);
    }
    ASSERT_EQ(BreakerState::Open, srv.breaker("tiny")->state());
    {
        InferRequest req;
        req.modelId = "tiny";
        req.input = ones(Shape({1, 6, 6}));
        auto blocked = srv.submit(std::move(req));
        ASSERT_FALSE(blocked.hasValue());
        EXPECT_EQ(ErrorCode::Unavailable, blocked.error().code());
    }

    // A successful swap gives the new version a Closed breaker well
    // before the cooldown would have expired.
    auto swap = srv.requestSwap(versionSpec(2, 100));
    ASSERT_TRUE(swap.hasValue());
    const Status landed = swap.value().get();
    ASSERT_TRUE(landed.isOk()) << landed.toString();
    EXPECT_EQ(BreakerState::Closed, srv.breaker("tiny")->state());
    InferRequest req;
    req.modelId = "tiny";
    req.input = ones(Shape({1, 6, 6}));
    auto handle = srv.submit(std::move(req));
    ASSERT_TRUE(handle.hasValue()) << handle.error().toString();
    EXPECT_EQ(Outcome::Ok, handle.value().response.get().outcome);
    srv.drain();
}

TEST(RegistrySwap, RejectsUnknownModelAndStaleVersion)
{
    auto created = InferenceServer::create({tinySpec()}, {});
    ASSERT_TRUE(created.hasValue()) << created.error().toString();
    InferenceServer &srv = *created.value();

    auto unknown = srv.requestSwap(versionSpec(2, 100, "nope"));
    ASSERT_FALSE(unknown.hasValue());
    EXPECT_EQ(ErrorCode::NotFound, unknown.error().code());

    auto stale = srv.requestSwap(versionSpec(1, 100));
    ASSERT_TRUE(stale.hasValue());
    const Status refused = stale.value().get();
    ASSERT_FALSE(refused.isOk());
    EXPECT_EQ(ErrorCode::InvalidArgument, refused.code());
    srv.drain();
}

TEST(RegistrySwap, HealthReportsRegistryAndLegacyLoadState)
{
    auto created = InferenceServer::create({tinySpec()}, {});
    ASSERT_TRUE(created.hasValue()) << created.error().toString();
    InferenceServer &srv = *created.value();

    const HealthReport report = srv.health();
    const RegistryModelHealth &reg = registryHealthOf(report, "tiny");
    EXPECT_EQ(1u, reg.activeVersion);
    EXPECT_EQ(0u, reg.warmingVersion);
    EXPECT_EQ(1u, reg.swaps);
    EXPECT_EQ(0u, reg.rollbacks);
    EXPECT_NE(std::string::npos, reg.lastEvent.find("swapped to v1"));
    srv.drain();
}

// ---------------------------------------------------------------------------
// Brownout: the overload ladder that degrades samples, not requests.

namespace {

/** Brownout options tuned so unit tests drive the ladder directly:
 *  alpha 1 makes the EWMAs track the last completion exactly. */
BrownoutOptions
testBrownout()
{
    BrownoutOptions opts;
    opts.enabled = true;
    opts.tickIntervalMs = 5.0;
    opts.queueDelayHighMs = 50.0;
    opts.queueDelayLowMs = 20.0;
    opts.missRateHigh = 0.5;
    opts.missRateLow = 0.1;
    opts.ewmaAlpha = 1.0;
    opts.recoverTicks = 2;
    return opts;
}

} // namespace

TEST(Brownout, ValidationRejectsBadOptions)
{
    BrownoutOptions opts = testBrownout();
    opts.queueDelayLowMs = 60.0;  // low > high
    EXPECT_FALSE(validateBrownoutOptions(opts).isOk());
    opts = testBrownout();
    opts.missRateHigh = 1.5;
    EXPECT_FALSE(validateBrownoutOptions(opts).isOk());
    opts = testBrownout();
    opts.ewmaAlpha = 0.0;
    EXPECT_FALSE(validateBrownoutOptions(opts).isOk());
    opts = testBrownout();
    opts.recoverTicks = 0;
    EXPECT_FALSE(validateBrownoutOptions(opts).isOk());
    opts = testBrownout();
    opts.targetCiWidth = 0.0;
    EXPECT_FALSE(validateBrownoutOptions(opts).isOk());
    opts = testBrownout();
    opts.budgetFraction[1] = 0.0;
    EXPECT_FALSE(validateBrownoutOptions(opts).isOk());
    opts = testBrownout();
    opts.budgetFloor = 0;
    EXPECT_FALSE(validateBrownoutOptions(opts).isOk());
    EXPECT_TRUE(validateBrownoutOptions(testBrownout()).isOk());
    EXPECT_TRUE(validateBrownoutOptions(BrownoutOptions{}).isOk());
}

TEST(Brownout, LadderEscalatesImmediatelyRecoversAdditively)
{
    BrownoutController ctl(testBrownout());
    EXPECT_EQ(ctl.level(), BrownoutLevel::Normal);

    // One pressured tick per rung: multiplicative-decrease analog.
    for (const BrownoutLevel want :
         {BrownoutLevel::AdaptiveExit, BrownoutLevel::BudgetClamp,
          BrownoutLevel::Shed}) {
        ctl.recordCompletion(100.0, true, false);
        ctl.tick(4);
        EXPECT_EQ(ctl.level(), want);
    }
    // Pressure at the top rung holds it (no further escalation).
    ctl.recordCompletion(100.0, true, false);
    ctl.tick(4);
    EXPECT_EQ(ctl.level(), BrownoutLevel::Shed);
    EXPECT_EQ(ctl.state().escalations, 3u);

    // Recovery needs recoverTicks consecutive healthy ticks per rung.
    ctl.recordCompletion(1.0, false, false);
    ctl.tick(0);
    EXPECT_EQ(ctl.level(), BrownoutLevel::Shed);  // 1 of 2
    ctl.recordCompletion(1.0, false, false);
    ctl.tick(0);
    EXPECT_EQ(ctl.level(), BrownoutLevel::BudgetClamp);  // 2 of 2
    ctl.recordCompletion(1.0, false, false);
    ctl.tick(0);
    ctl.recordCompletion(1.0, false, false);
    ctl.tick(0);
    EXPECT_EQ(ctl.level(), BrownoutLevel::AdaptiveExit);
    EXPECT_EQ(ctl.state().recoveries, 2u);
}

TEST(Brownout, HysteresisBandHoldsAndForfeitsCredit)
{
    BrownoutController ctl(testBrownout());
    ctl.recordCompletion(100.0, false, false);
    ctl.tick(1);
    ASSERT_EQ(ctl.level(), BrownoutLevel::AdaptiveExit);

    // One healthy tick of credit...
    ctl.recordCompletion(1.0, false, false);
    ctl.tick(1);
    // ...forfeited by a tick in the hysteresis band (30 ms is between
    // low 20 and high 50), so two more healthy ticks are needed.
    ctl.recordCompletion(30.0, false, false);
    ctl.tick(1);
    EXPECT_EQ(ctl.level(), BrownoutLevel::AdaptiveExit);
    ctl.recordCompletion(1.0, false, false);
    ctl.tick(1);
    EXPECT_EQ(ctl.level(), BrownoutLevel::AdaptiveExit);
    ctl.recordCompletion(1.0, false, false);
    ctl.tick(1);
    EXPECT_EQ(ctl.level(), BrownoutLevel::Normal);
}

TEST(Brownout, IdleTicksRecoverOnlyWithEmptyQueue)
{
    BrownoutController ctl(testBrownout());
    ctl.recordCompletion(100.0, true, false);
    ctl.tick(4);
    ASSERT_EQ(ctl.level(), BrownoutLevel::AdaptiveExit);

    // No completions + queued work: the EWMAs are stale, hold.
    ctl.tick(4);
    ctl.tick(4);
    ctl.tick(4);
    EXPECT_EQ(ctl.level(), BrownoutLevel::AdaptiveExit);
    // No completions + empty queue: nothing flowing, nothing hurting.
    ctl.tick(0);
    ctl.tick(0);
    EXPECT_EQ(ctl.level(), BrownoutLevel::Normal);
}

TEST(Brownout, DisabledControllerNeverMoves)
{
    BrownoutOptions opts = testBrownout();
    opts.enabled = false;
    BrownoutController ctl(opts);
    ctl.recordCompletion(1000.0, true, false);
    ctl.tick(100);
    EXPECT_EQ(ctl.level(), BrownoutLevel::Normal);
    McOptions mc;
    mc.samples = 50;
    EXPECT_EQ(ctl.apply(mc, Priority::Background),
              BrownoutLevel::Normal);
    EXPECT_EQ(mc.targetCiWidth, 0.0);
    EXPECT_EQ(ctl.effectiveSamples(50, Priority::Background, 0), 50u);
}

TEST(Brownout, ApplyForcesAdaptiveButRespectsCallerFloors)
{
    BrownoutController ctl(testBrownout());
    ctl.forceLevel(BrownoutLevel::AdaptiveExit);

    McOptions mc;
    mc.samples = 50;
    EXPECT_EQ(ctl.apply(mc, Priority::Standard),
              BrownoutLevel::AdaptiveExit);
    EXPECT_EQ(mc.targetCiWidth, ctl.options().targetCiWidth);
    EXPECT_EQ(mc.minSamples, ctl.options().minSamples);
    EXPECT_EQ(mc.sampleBudget, 0u);  // no clamp below BudgetClamp
    EXPECT_TRUE(validateMcOptions(mc).isOk());

    // A tighter per-request width wins; a looser one is tightened.
    McOptions tight;
    tight.samples = 50;
    tight.targetCiWidth = 0.001;
    tight.minSamples = 20;
    ctl.apply(tight, Priority::Standard);
    EXPECT_EQ(tight.targetCiWidth, 0.001);
    EXPECT_EQ(tight.minSamples, 20u);
    McOptions loose;
    loose.samples = 50;
    loose.targetCiWidth = 10.0;
    ctl.apply(loose, Priority::Standard);
    EXPECT_EQ(loose.targetCiWidth, ctl.options().targetCiWidth);
}

TEST(Brownout, BudgetClampPerClassWithQuorumFloor)
{
    BrownoutController ctl(testBrownout());
    ctl.forceLevel(BrownoutLevel::BudgetClamp);

    // Default fractions: 0.75 / 0.50 / 0.25 of T = 40.
    EXPECT_EQ(ctl.effectiveSamples(40, Priority::Interactive, 0), 30u);
    EXPECT_EQ(ctl.effectiveSamples(40, Priority::Standard, 0), 20u);
    EXPECT_EQ(ctl.effectiveSamples(40, Priority::Background, 0), 10u);
    // The quorum floor always holds (quality degrades, correctness
    // floors do not).
    EXPECT_EQ(ctl.effectiveSamples(40, Priority::Background, 25), 25u);
    // The budget floor holds for tiny T; never exceeds T itself.
    EXPECT_EQ(ctl.effectiveSamples(2, Priority::Background, 0), 2u);

    McOptions mc;
    mc.samples = 40;
    mc.quorum = 25;
    ctl.apply(mc, Priority::Background);
    EXPECT_EQ(mc.sampleBudget, 25u);
    EXPECT_TRUE(validateMcOptions(mc).isOk());

    // A smaller caller-set budget survives (never loosened).
    McOptions own;
    own.samples = 40;
    own.sampleBudget = 4;
    ctl.apply(own, Priority::Interactive);
    EXPECT_EQ(own.sampleBudget, 4u);
}

TEST(Brownout, BrownedOutResponseIsOkNotBreakerFailure)
{
    ServerOptions sopts;
    sopts.workers = 1;
    sopts.brownout = testBrownout();
    sopts.brownout.tickIntervalMs = 10000.0;  // ticks stay out of the way
    sopts.breaker.enabled = true;
    sopts.breaker.failureThreshold = 1;  // any failure would trip it
    auto server = InferenceServer::create({tinySpec()}, sopts);
    ASSERT_TRUE(server.hasValue()) << server.error().toString();
    InferenceServer &srv = *server.value();
    srv.brownout().forceLevel(BrownoutLevel::BudgetClamp);

    InferRequest req;
    req.modelId = "tiny";
    req.input = ones(Shape({1, 6, 6}));
    req.priority = Priority::Standard;
    Expected<RequestHandle> handle = srv.submit(req);
    ASSERT_TRUE(handle.hasValue());
    InferResponse resp = handle.value().response.get();

    EXPECT_EQ(resp.outcome, Outcome::Ok);
    EXPECT_EQ(resp.brownoutLevel, BrownoutLevel::BudgetClamp);
    ASSERT_TRUE(resp.result.has_value());
    // T = 4 defaults: Standard gets ceil(0.5 * 4) = 2 samples.
    EXPECT_EQ(resp.result->census.budget, 2u);
    EXPECT_EQ(resp.result->census.requested, 4u);
    EXPECT_LE(resp.effectiveSamples, 2u);
    EXPECT_GE(resp.effectiveSamples, 1u);
    EXPECT_FALSE(resp.result->census.degraded);
    // Quality degradation is never a breaker failure.
    EXPECT_EQ(srv.breaker("tiny")->state(), BreakerState::Closed);
    srv.drain();
    EXPECT_EQ(srv.health().failed, 0u);
}

TEST(Brownout, ShedRungDropsBackgroundKeepsPayingClasses)
{
    ServerOptions sopts;
    sopts.workers = 1;
    sopts.brownout = testBrownout();
    sopts.brownout.tickIntervalMs = 10000.0;
    auto server = InferenceServer::create({tinySpec()}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();
    srv.brownout().forceLevel(BrownoutLevel::Shed);

    InferRequest bg;
    bg.modelId = "tiny";
    bg.input = ones(Shape({1, 6, 6}));
    bg.priority = Priority::Background;
    Expected<RequestHandle> bgHandle = srv.submit(bg);
    ASSERT_TRUE(bgHandle.hasValue());
    InferResponse bgResp = bgHandle.value().response.get();
    EXPECT_EQ(bgResp.outcome, Outcome::Shed);
    EXPECT_EQ(bgResp.brownoutLevel, BrownoutLevel::Shed);
    EXPECT_EQ(bgResp.error.code(), ErrorCode::ResourceExhausted);
    EXPECT_EQ(bgResp.error.message(),
              "browned out: overload shed of Background traffic");

    InferRequest fg;
    fg.modelId = "tiny";
    fg.input = ones(Shape({1, 6, 6}));
    fg.priority = Priority::Interactive;
    Expected<RequestHandle> fgHandle = srv.submit(fg);
    ASSERT_TRUE(fgHandle.hasValue());
    InferResponse fgResp = fgHandle.value().response.get();
    EXPECT_EQ(fgResp.outcome, Outcome::Ok);

    srv.drain();
    const HealthReport health = srv.health();
    EXPECT_EQ(health.brownout.brownoutSheds, 1u);
    EXPECT_EQ(health.shed, 1u);
}

TEST(Brownout, HealthReportsControllerStateAndEffectiveT)
{
    ServerOptions sopts;
    sopts.workers = 1;
    sopts.brownout = testBrownout();
    sopts.brownout.tickIntervalMs = 10000.0;
    auto server = InferenceServer::create({tinySpec()}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    HealthReport normal = srv.health();
    EXPECT_TRUE(normal.brownout.enabled);
    EXPECT_EQ(normal.brownout.level, BrownoutLevel::Normal);
    ASSERT_EQ(normal.models.size(), 1u);
    for (std::size_t p = 0; p < kPriorityLevels; ++p)
        EXPECT_EQ(normal.models[0].effectiveSamples[p], 4u);

    srv.brownout().forceLevel(BrownoutLevel::BudgetClamp);
    HealthReport clamped = srv.health();
    EXPECT_EQ(clamped.brownout.level, BrownoutLevel::BudgetClamp);
    EXPECT_EQ(clamped.models[0].effectiveSamples[0], 3u);  // 0.75 * 4
    EXPECT_EQ(clamped.models[0].effectiveSamples[1], 2u);  // 0.50 * 4
    EXPECT_EQ(clamped.models[0].effectiveSamples[2], 2u);  // floor

    const std::string json = healthJson(clamped);
    EXPECT_NE(json.find("\"brownout\""), std::string::npos);
    EXPECT_NE(json.find("\"level\":\"BudgetClamp\""),
              std::string::npos);
    EXPECT_NE(json.find("\"effective_samples\":[3,2,2]"),
              std::string::npos);
    srv.drain();
}

TEST(Brownout, AdaptiveOverridesMergeAndValidateAtSubmit)
{
    auto server = InferenceServer::create({tinySpec()}, {});
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    // Invalid merged options are an immediate submit error.
    InferRequest bad;
    bad.modelId = "tiny";
    bad.input = ones(Shape({1, 6, 6}));
    bad.mc.minSamples = 10;  // replica default T = 4
    Expected<RequestHandle> rejected = srv.submit(bad);
    ASSERT_FALSE(rejected.hasValue());
    EXPECT_EQ(rejected.error().code(), ErrorCode::InvalidArgument);

    // A loose per-request CI target converges the run early.
    InferRequest adaptive;
    adaptive.modelId = "tiny";
    adaptive.input = ones(Shape({1, 6, 6}));
    adaptive.mc.targetCiWidth = 10.0;
    Expected<RequestHandle> handle = srv.submit(adaptive);
    ASSERT_TRUE(handle.hasValue());
    InferResponse resp = handle.value().response.get();
    ASSERT_EQ(resp.outcome, Outcome::Ok);
    ASSERT_TRUE(resp.result.has_value());
    EXPECT_TRUE(resp.result->census.converged);
    EXPECT_EQ(resp.result->census.convergedAt, 2u);
    EXPECT_EQ(resp.effectiveSamples, 2u);
    // Converged early exits are counted, and never as degradation.
    srv.drain();
    const HealthReport health = srv.health();
    EXPECT_EQ(health.degraded, 0u);
    EXPECT_GE(health.brownout.converged, 1u);
}

TEST(BrownoutConcurrency, TickingLadderUnderMixedLoad)
{
    ServerOptions sopts;
    sopts.workers = 2;
    sopts.queueCapacity = 256;
    sopts.brownout = testBrownout();
    sopts.brownout.tickIntervalMs = 1.0;  // ladder moves mid-load
    sopts.brownout.queueDelayHighMs = 2.0;
    sopts.brownout.queueDelayLowMs = 1.0;
    auto server = InferenceServer::create({tinySpec()}, sopts);
    ASSERT_TRUE(server.hasValue());
    InferenceServer &srv = *server.value();

    constexpr std::size_t kThreads = 3;
    constexpr std::size_t kPerThread = 30;
    std::atomic<std::size_t> accepted{0};
    std::atomic<std::size_t> resolved{0};
    std::vector<std::thread> producers;
    producers.reserve(kThreads);
    for (std::size_t w = 0; w < kThreads; ++w) {
        producers.emplace_back([&, w]() {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                InferRequest req;
                req.modelId = "tiny";
                req.input = ones(Shape({1, 6, 6}));
                req.priority =
                    static_cast<Priority>((w + i) % kPriorityLevels);
                req.deadlineMs = (i % 4 == 0) ? 0.5 : 200.0;
                Expected<RequestHandle> handle =
                    srv.submit(std::move(req));
                if (!handle.hasValue())
                    continue;
                accepted.fetch_add(1);
                handle.value().response.get();
                resolved.fetch_add(1);
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    srv.drain();
    // Every accepted request resolved exactly once, whatever rung the
    // ladder was on when it dispatched.
    EXPECT_EQ(resolved.load(), accepted.load());
    const HealthReport health = srv.health();
    EXPECT_EQ(health.ok + health.shed + health.cancelled + health.failed,
              accepted.load());
    EXPECT_GE(health.brownout.ticks, 1u);
}
