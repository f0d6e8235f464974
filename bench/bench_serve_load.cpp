/**
 * @file
 * Load-generator harness for the serving subsystem (DESIGN.md §10).
 *
 * Sweeps the InferenceServer across worker-pool configurations under
 * two client models:
 *
 *  - closed loop: a fixed set of client threads submit, wait for the
 *    response, and immediately submit again — measures the sustainable
 *    throughput ceiling and the latency a saturating caller sees;
 *  - open loop: requests arrive at a target offered rate regardless of
 *    completions (each carries a deadline), so overload shows up as
 *    shed and rejected requests instead of coordinated-omission-style
 *    flattering latencies.  The 2x overload point runs twice — once
 *    fixed-T and once with the brownout ladder on — and every open
 *    record carries mean effective T, the converged fraction and the
 *    highest brownout rung seen.
 *
 * Emits a JSON document (stdout, and FASTBCNN_SERVE_JSON=path for a
 * file copy that CI uploads as an artifact) with one record per
 * (config, mode, offered load): throughput, p50/p95/p99 latency, and
 * ok/shed/degraded/failed/rejected counts.
 *
 * Scaling: FASTBCNN_BENCH_FAST=1 shrinks the request counts to a
 * seconds-long smoke pass; FASTBCNN_BENCH_FULL=1 lengthens the runs.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "models/init.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "serve/server.hpp"

using namespace fastbcnn;
using namespace fastbcnn::serve;

namespace {

/** Request counts for one sweep point. */
struct LoadScale {
    std::size_t closedRequestsPerClient = 60;
    std::size_t closedClients = 4;
    std::size_t openRequests = 300;
    const char *label = "default";
};

LoadScale
loadScale()
{
    LoadScale s;
    if (std::getenv("FASTBCNN_BENCH_FULL") != nullptr) {
        s.closedRequestsPerClient = 250;
        s.openRequests = 1500;
        s.label = "full";
    } else if (std::getenv("FASTBCNN_BENCH_FAST") != nullptr) {
        s.closedRequestsPerClient = 15;
        s.openRequests = 60;
        s.label = "fast (smoke)";
    }
    return s;
}

Network
servedModel()
{
    Network net("served-tiny", Shape({1, 8, 8}));
    net.add(std::make_unique<Conv2d>("c1", 1, 4, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", 0.3));
    net.add(std::make_unique<Conv2d>("c2", 4, 4, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", 0.3));
    InitOptions init;
    init.seed = 5;
    init.biasShift = 0.0;
    initializeWeights(net, init);
    return net;
}

Tensor
input()
{
    Tensor t(Shape({1, 8, 8}));
    t.fill(0.5f);
    return t;
}

ModelSpec
servedSpec()
{
    ModelSpec spec;
    spec.id = "served";
    spec.factory = []() {
        EngineOptions eopts;
        eopts.mc.samples = 4;
        eopts.mc.seed = 17;
        eopts.mc.recordMasks = false;
        eopts.optimizer.samples = 2;
        Expected<std::unique_ptr<FastBcnnEngine>> engine =
            FastBcnnEngine::create(servedModel(), eopts);
        if (!engine.hasValue())
            return engine;
        Status calibrated = engine.value()->tryCalibrate({input()});
        if (!calibrated.isOk())
            return Expected<std::unique_ptr<FastBcnnEngine>>(
                std::move(calibrated));
        return engine;
    };
    return spec;
}

/** One sweep point's measurements, serialisable to JSON. */
struct RunRecord {
    std::string mode;          // "closed" or "open"
    std::size_t workers = 0;
    std::size_t maxBatch = 0;
    double offeredRps = 0.0;   // open loop only (0 = unthrottled)
    double durationS = 0.0;
    std::size_t submitted = 0;
    std::size_t rejected = 0;  // backpressure at admission
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t cancelled = 0;
    std::size_t failed = 0;
    std::size_t degraded = 0;
    double throughputRps = 0.0;  // Ok completions per second
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double meanBatch = 0.0;
    /** Brownout annotations (open loop only; defaults when off). */
    bool brownout = false;
    double meanEffectiveT = 0.0;
    double convergedFraction = 0.0;
    BrownoutLevel maxLevel = BrownoutLevel::Normal;
};

void
finalize(RunRecord &r, const InferenceServer &srv, double duration_s)
{
    const HealthReport health = srv.health();
    r.durationS = duration_s;
    r.ok = health.ok;
    r.shed = health.shed;
    r.cancelled = health.cancelled;
    r.failed = health.failed;
    r.degraded = health.degraded;
    r.throughputRps =
        duration_s > 0.0 ? static_cast<double>(r.ok) / duration_s : 0.0;
    const LatencyHistogram okLatency = srv.latencySnapshot(Outcome::Ok);
    r.p50Ms = okLatency.p50Ms();
    r.p95Ms = okLatency.p95Ms();
    r.p99Ms = okLatency.p99Ms();
    r.meanBatch = health.batches > 0
                      ? static_cast<double>(health.batchedRequests) /
                            static_cast<double>(health.batches)
                      : 0.0;
}

/** Closed loop: each client keeps exactly one request in flight. */
RunRecord
runClosedLoop(const ServerOptions &sopts, const LoadScale &scale)
{
    RunRecord record;
    record.mode = "closed";
    record.workers = sopts.workers;
    record.maxBatch = sopts.maxBatch;

    auto server = InferenceServer::create({servedSpec()}, sopts);
    if (!server.hasValue()) {
        std::cerr << "server creation failed: "
                  << server.error().message() << "\n";
        // NOLINTNEXTLINE-FASTBCNN(error-discipline): bench setup exit
        std::exit(1);
    }
    InferenceServer &srv = *server.value();

    std::atomic<std::size_t> submitted{0}, rejected{0};
    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(scale.closedClients);
    for (std::size_t c = 0; c < scale.closedClients; ++c) {
        clients.emplace_back([&, c]() {
            for (std::size_t i = 0; i < scale.closedRequestsPerClient;
                 ++i) {
                InferRequest req;
                req.modelId = "served";
                req.input = input();
                req.mc.seed = c * 10000 + i;
                submitted.fetch_add(1);
                auto handle = srv.submit(std::move(req));
                if (!handle.hasValue()) {
                    rejected.fetch_add(1);
                    continue;
                }
                handle.value().response.wait();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    srv.drain();
    const double duration =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin)
            .count();
    record.submitted = submitted.load();
    record.rejected = rejected.load();
    finalize(record, srv, duration);
    return record;
}

/** Open loop: fire at @p offered_rps with a deadline per request. */
RunRecord
runOpenLoop(const ServerOptions &sopts, const LoadScale &scale,
            double offered_rps, double deadline_ms)
{
    RunRecord record;
    record.mode = "open";
    record.workers = sopts.workers;
    record.maxBatch = sopts.maxBatch;
    record.offeredRps = offered_rps;
    record.brownout = sopts.brownout.enabled;

    auto server = InferenceServer::create({servedSpec()}, sopts);
    if (!server.hasValue()) {
        std::cerr << "server creation failed: "
                  << server.error().message() << "\n";
        // NOLINTNEXTLINE-FASTBCNN(error-discipline): bench setup exit
        std::exit(1);
    }
    InferenceServer &srv = *server.value();

    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / offered_rps));
    std::vector<RequestHandle> handles;
    handles.reserve(scale.openRequests);
    std::size_t rejected = 0;
    const auto begin = std::chrono::steady_clock::now();
    auto nextFire = begin;
    for (std::size_t i = 0; i < scale.openRequests; ++i) {
        std::this_thread::sleep_until(nextFire);
        nextFire += interval;
        InferRequest req;
        req.modelId = "served";
        req.input = input();
        req.mc.seed = i;
        req.deadlineMs = deadline_ms;
        auto handle = srv.submit(std::move(req));
        if (!handle.hasValue()) {
            ++rejected;  // queue full: admission-control backpressure
            continue;
        }
        handles.push_back(std::move(handle).value());
    }
    srv.drain();
    std::uint64_t sumEffective = 0, okSeen = 0, converged = 0;
    for (RequestHandle &h : handles) {
        const InferResponse response = h.response.get();
        record.maxLevel =
            std::max(record.maxLevel, response.brownoutLevel);
        if (response.outcome != Outcome::Ok)
            continue;
        ++okSeen;
        sumEffective += response.effectiveSamples;
        if (response.result.has_value() &&
            response.result->census.converged)
            ++converged;
    }
    if (okSeen > 0) {
        record.meanEffectiveT = static_cast<double>(sumEffective) /
                                static_cast<double>(okSeen);
        record.convergedFraction = static_cast<double>(converged) /
                                   static_cast<double>(okSeen);
    }
    const double duration =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin)
            .count();
    record.submitted = scale.openRequests;
    record.rejected = rejected;
    finalize(record, srv, duration);
    return record;
}

void
appendJson(std::ostringstream &os, const RunRecord &r, bool last)
{
    os << "    {\n"
       << "      \"mode\": \"" << r.mode << "\",\n"
       << "      \"workers\": " << r.workers << ",\n"
       << "      \"max_batch\": " << r.maxBatch << ",\n"
       << "      \"offered_rps\": " << format("%.1f", r.offeredRps)
       << ",\n"
       << "      \"duration_s\": " << format("%.3f", r.durationS)
       << ",\n"
       << "      \"submitted\": " << r.submitted << ",\n"
       << "      \"rejected\": " << r.rejected << ",\n"
       << "      \"ok\": " << r.ok << ",\n"
       << "      \"shed\": " << r.shed << ",\n"
       << "      \"cancelled\": " << r.cancelled << ",\n"
       << "      \"failed\": " << r.failed << ",\n"
       << "      \"degraded\": " << r.degraded << ",\n"
       << "      \"throughput_rps\": "
       << format("%.1f", r.throughputRps) << ",\n"
       << "      \"p50_ms\": " << format("%.3f", r.p50Ms) << ",\n"
       << "      \"p95_ms\": " << format("%.3f", r.p95Ms) << ",\n"
       << "      \"p99_ms\": " << format("%.3f", r.p99Ms) << ",\n"
       << "      \"mean_batch\": " << format("%.2f", r.meanBatch)
       << ",\n"
       << "      \"brownout\": " << (r.brownout ? "true" : "false")
       << ",\n"
       << "      \"mean_effective_t\": "
       << format("%.2f", r.meanEffectiveT) << ",\n"
       << "      \"converged_fraction\": "
       << format("%.3f", r.convergedFraction) << ",\n"
       << "      \"max_brownout_level\": \""
       << brownoutLevelName(r.maxLevel) << "\"\n    }"
       << (last ? "\n" : ",\n");
}

} // namespace

int
main()
{
    const LoadScale scale = loadScale();
    std::cerr << "bench_serve_load: scale = " << scale.label << "\n";

    // The acceptance bar: at least two worker-pool configurations.
    std::vector<ServerOptions> configs;
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
        ServerOptions sopts;
        sopts.workers = workers;
        sopts.queueCapacity = 64;
        sopts.maxBatch = 4;
        configs.push_back(sopts);
    }

    std::vector<RunRecord> records;
    for (const ServerOptions &sopts : configs) {
        std::cerr << "  closed loop, workers = " << sopts.workers
                  << "...\n";
        records.push_back(runClosedLoop(sopts, scale));
    }
    // Open-loop sweep on the middle configuration: calibrate the
    // offered-load ladder off the measured closed-loop ceiling so the
    // sweep brackets saturation on any machine.
    const ServerOptions &openConfig = configs[1];
    const double ceiling =
        records[1].throughputRps > 0.0 ? records[1].throughputRps
                                       : 100.0;
    for (double fraction : {0.5, 1.0, 2.0}) {
        const double offered = ceiling * fraction;
        std::cerr << "  open loop, workers = " << openConfig.workers
                  << ", offered = " << format("%.0f", offered)
                  << " rps...\n";
        records.push_back(
            runOpenLoop(openConfig, scale, offered,
                        /*deadline_ms=*/1000.0 / ceiling * 8.0));
    }
    // The 2x overload point again with the brownout ladder on: the
    // record's mean_effective_t / converged_fraction / max level show
    // what the controller traded for the shed-rate drop (the hard A/B
    // gate lives in bench_serve_soak).
    {
        ServerOptions browned = openConfig;
        browned.brownout.enabled = true;
        browned.brownout.tickIntervalMs = 25.0;
        const double deadlineMs = 1000.0 / ceiling * 8.0;
        browned.brownout.queueDelayHighMs = deadlineMs * 0.5;
        browned.brownout.queueDelayLowMs = deadlineMs * 0.2;
        std::cerr << "  open loop (brownout), workers = "
                  << browned.workers << ", offered = "
                  << format("%.0f", ceiling * 2.0) << " rps...\n";
        records.push_back(runOpenLoop(browned, scale, ceiling * 2.0,
                                      deadlineMs));
    }

    std::ostringstream json;
    json << "{\n  \"bench\": \"serve_load\",\n  \"scale\": \""
         << scale.label << "\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i)
        appendJson(json, records[i], i + 1 == records.size());
    json << "  ]\n}\n";

    std::cout << json.str();
    if (const char *path = std::getenv("FASTBCNN_SERVE_JSON")) {
        std::ofstream file(path);
        if (!file) {
            std::cerr << "cannot write " << path << "\n";
            return 1;
        }
        file << json.str();
        std::cerr << "wrote " << path << "\n";
    }
    return 0;
}
