/**
 * @file
 * Sustained-overload soak for the serving stack (DESIGN.md §13): the
 * registry, the binary checkpoint pipeline and the scheduler under
 * minutes of open-loop overload with hot-swaps and an injected
 * checkpoint corruption mid-run.
 *
 * Phases:
 *  1. Write a model zoo to disk as binary checkpoints: two models
 *     ("zoo-a", "zoo-b"), two weight versions each, plus a
 *     deliberately corrupted v3 of zoo-a (one flipped payload byte —
 *     the file-level CRC must catch it at swap time).
 *  2. Measure the closed-loop throughput ceiling.
 *  3. Open-loop at 2x the ceiling for FASTBCNN_SOAK_SECONDS (default
 *     60; CI runs 20) while a chaos thread hot-swaps zoo-a to v2 at
 *     0.3D, attempts the corrupt v3 at 0.5D (must fail and roll back
 *     with the circuit breaker still closed), and swaps zoo-b to v2
 *     at 0.7D.
 *  4. Brownout A/B: drive a T=32 model at 2x its own ceiling twice —
 *     once fixed-T (controller off) and once with the brownout ladder
 *     on — at the identical offered rate and deadline, and emit both
 *     per-second trajectories (ok/shed/rejected, mean effective T,
 *     converged fraction, ladder rung, p99).
 *  5. Emit per-second trajectories (throughput, p50/p95/p99, shed,
 *     per-version service counts) and the swap log as JSON to stdout
 *     and BENCH_serve_soak.json (FASTBCNN_SOAK_JSON overrides the
 *     path).
 *
 * Exit is nonzero when any request is lost or double-completed, when
 * the server's outcome counts do not sum to its accepted count (the
 * JSON's accepted/ok/shed/failed/cancelled come from that one
 * health() snapshot), when a good swap fails, when the corrupt swap
 * is NOT rejected, when the rollback leaves the model unserved, or
 * when the brownout phase fails its gates — the controller must cut
 * the shed+rejected rate at least 2x versus fixed-T, keep served p99
 * within max(1.25 * fixed-T p99, the deadline), engage the ladder
 * under the overload and walk it back to Normal afterwards — the CI
 * wiring treats this binary as a pass/fail robustness gate, not just
 * a meter.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/table.hpp"
#include "models/init.hpp"
#include "nn/activations.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "serve/server.hpp"

using namespace fastbcnn;
using namespace fastbcnn::serve;

namespace {

/** The two zoo topologies (weights come from the checkpoint files). */
Network
zooModel(const std::string &id)
{
    const std::size_t channels = id == "zoo-a" ? 4 : 3;
    Network net(id, Shape({1, 8, 8}));
    net.add(std::make_unique<Conv2d>("c1", 1, channels, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", 0.3));
    net.add(std::make_unique<Conv2d>("c2", channels, channels, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", 0.3));
    return net;
}

Tensor
input()
{
    Tensor t(Shape({1, 8, 8}));
    t.fill(0.5f);
    return t;
}

std::string
checkpointPath(const std::string &id, std::uint64_t version)
{
    return format("soak_ckpt_%s_v%llu.bin", id.c_str(),
                  static_cast<unsigned long long>(version));
}

/** Write the zoo to disk: v1/v2 per model + a corrupt zoo-a v3. */
bool
writeZoo()
{
    for (const std::string id : {"zoo-a", "zoo-b"}) {
        for (std::uint64_t version : {1u, 2u}) {
            Network net = zooModel(id);
            InitOptions init;
            init.seed = 11 * version + (id == "zoo-a" ? 0 : 100);
            init.biasShift = 0.0;
            initializeWeights(net, init);
            const Status saved =
                trySaveCheckpointFile(net, checkpointPath(id, version));
            if (!saved.isOk()) {
                std::cerr << "cannot write zoo checkpoint: "
                          << saved.toString() << "\n";
                return false;
            }
        }
    }
    // The corrupt v3: v2's bytes with one payload byte flipped.  Only
    // the registry's load-time CRC check stands between this file and
    // the serving path.
    Expected<std::string> bytes =
        tryReadFile(checkpointPath("zoo-a", 2));
    if (!bytes.hasValue()) {
        std::cerr << bytes.error().toString() << "\n";
        return false;
    }
    std::string corrupt = std::move(bytes).value();
    corrupt[corrupt.size() / 2] ^= 0x5a;
    const Status wrote = tryAtomicWriteFile(checkpointPath("zoo-a", 3),
                                            corrupt, {});
    if (!wrote.isOk()) {
        std::cerr << wrote.toString() << "\n";
        return false;
    }
    return true;
}

void
removeZoo()
{
    for (const std::string id : {"zoo-a", "zoo-b"})
        for (std::uint64_t version : {1u, 2u, 3u})
            std::remove(checkpointPath(id, version).c_str());
}

/** A factory that loads its engine from a checkpoint on disk. */
EngineFactory
checkpointFactory(std::string id, std::uint64_t version)
{
    return [id, version]() -> Expected<std::unique_ptr<FastBcnnEngine>> {
        Network net = zooModel(id);
        Status loaded =
            tryLoadCheckpointFile(net, checkpointPath(id, version));
        if (!loaded.isOk())
            return loaded;
        EngineOptions eopts;
        eopts.mc.samples = 4;
        eopts.mc.seed = 17;
        eopts.mc.recordMasks = false;
        eopts.optimizer.samples = 2;
        Expected<std::unique_ptr<FastBcnnEngine>> engine =
            FastBcnnEngine::create(std::move(net), eopts);
        if (!engine.hasValue())
            return engine;
        Status calibrated = engine.value()->tryCalibrate({input()});
        if (!calibrated.isOk())
            return Expected<std::unique_ptr<FastBcnnEngine>>(
                std::move(calibrated));
        return engine;
    };
}

ModelVersionSpec
zooVersion(std::string id, std::uint64_t version)
{
    ModelVersionSpec spec;
    spec.modelId = id;
    spec.version = version;
    spec.factory = checkpointFactory(std::move(id), version);
    return spec;
}

/** One completed request as the collectors record it. */
struct Completion {
    double atS = 0.0;      ///< completion wall time since soak start
    double totalMs = 0.0;  ///< submit-to-completion latency
    Outcome outcome = Outcome::Failed;
    std::uint64_t id = 0;
    std::uint64_t modelVersion = 0;
};

/** One second of the soak trajectory. */
struct Window {
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    LatencyHistogram okLatency;
    std::map<std::uint64_t, std::size_t> byVersion;
};

/** One hot-swap attempt in the chaos schedule. */
struct SwapEvent {
    double atS = 0.0;
    std::string modelId;
    std::uint64_t version = 0;
    bool expectSuccess = true;
    bool succeeded = false;
    double latencyMs = 0.0;
    std::string detail;
};

double
soakSeconds()
{
    if (const char *env = std::getenv("FASTBCNN_SOAK_SECONDS")) {
        const double parsed = std::strtod(env, nullptr);
        if (parsed > 0.0)
            return parsed;
    }
    return 60.0;
}

/** Closed-loop ceiling: clients keep one request in flight each. */
double
measureCeiling(InferenceServer &srv)
{
    constexpr std::size_t clients = 4;
    constexpr std::size_t perClient = 40;
    std::atomic<std::uint64_t> ok{0};
    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        pool.emplace_back([&, c]() {
            for (std::size_t i = 0; i < perClient; ++i) {
                InferRequest req;
                req.modelId = c % 2 == 0 ? "zoo-a" : "zoo-b";
                req.input = input();
                req.mc.seed = c * 10000 + i;
                auto handle = srv.submit(std::move(req));
                if (!handle.hasValue())
                    continue;
                if (handle.value().response.get().ok())
                    ok.fetch_add(1);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    const double duration =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin)
            .count();
    return duration > 0.0 ? static_cast<double>(ok.load()) / duration
                          : 100.0;
}

// --- Brownout A/B overload comparison --------------------------------
//
// Phase A serves a T=12 model at 2x its ceiling with the brownout
// controller off (fixed-T baseline); phase B repeats the identical
// offered load with the controller on.  The gate: brownout must cut
// the shed+rejected rate at least 2x without regressing served p99
// past max(1.25 * fixed-T p99, the deadline), the ladder must engage,
// and it must walk back to Normal once the overload ends.

/** The brown model's sample count (heavy enough that MC compute, not
 *  per-request overhead, is what the server runs out of). */
constexpr std::size_t kBrownSamples = 32;

Tensor
brownInput()
{
    Tensor t(Shape({1, 16, 16}));
    t.fill(0.5f);
    return t;
}

/** The brownout-phase model: a wider net on a 16x16 input at T=32, so
 *  sample degradation is a real capacity lever. */
ModelSpec
brownSpec()
{
    ModelSpec spec;
    spec.id = "brown";
    spec.factory = []() -> Expected<std::unique_ptr<FastBcnnEngine>> {
        Network net("brown", Shape({1, 16, 16}));
        net.add(std::make_unique<Conv2d>("c1", 1, 8, 3, 1, 1));
        net.add(std::make_unique<ReLU>("r1"));
        net.add(std::make_unique<Dropout>("d1", 0.3));
        net.add(std::make_unique<Conv2d>("c2", 8, 8, 3, 1, 1));
        net.add(std::make_unique<ReLU>("r2"));
        net.add(std::make_unique<Dropout>("d2", 0.3));
        InitOptions init;
        init.seed = 23;
        init.biasShift = 0.0;
        initializeWeights(net, init);
        EngineOptions eopts;
        eopts.mc.samples = kBrownSamples;
        eopts.mc.quorum = 2;
        eopts.mc.seed = 17;
        eopts.mc.recordMasks = false;
        eopts.optimizer.samples = 2;
        Expected<std::unique_ptr<FastBcnnEngine>> engine =
            FastBcnnEngine::create(std::move(net), eopts);
        if (!engine.hasValue())
            return engine;
        Status calibrated =
            engine.value()->tryCalibrate({brownInput()});
        if (!calibrated.isOk())
            return Expected<std::unique_ptr<FastBcnnEngine>>(
                std::move(calibrated));
        return engine;
    };
    return spec;
}

/** One second of a brownout phase. */
struct BrownWindow {
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t rejected = 0;
    std::size_t converged = 0;
    std::uint64_t sumEffective = 0;
    int maxLevel = 0;
    LatencyHistogram okLatency;
};

/** One brownout phase's measurements. */
struct BrownoutPhase {
    bool valid = false;
    bool controllerOn = false;
    double durationS = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    double p99Ms = 0.0;
    /** (shed + rejected + failed) / submitted: the fraction of
     *  offered work the server dropped instead of serving (failed
     *  here is overload too — deadlines expiring mid-run). */
    double degradeRate = 0.0;
    double meanEffectiveT = 0.0;
    double convergedFraction = 0.0;
    int maxLevel = 0;
    bool recoveredToNormal = true;
    std::vector<BrownWindow> windows;
};

BrownoutPhase
runBrownoutPhase(bool controller_on, double phase_s, double offered,
                 double deadline_ms)
{
    BrownoutPhase phase;
    phase.controllerOn = controller_on;
    phase.durationS = phase_s;

    ServerOptions sopts;
    sopts.workers = 2;
    sopts.queueCapacity = 128;
    sopts.maxBatch = 4;
    if (controller_on) {
        sopts.brownout.enabled = true;
        sopts.brownout.tickIntervalMs = 25.0;
        sopts.brownout.queueDelayHighMs = deadline_ms * 0.5;
        sopts.brownout.queueDelayLowMs = deadline_ms * 0.2;
        // Overload-bench posture: clamp hard (16/8/4 of T=32) so the
        // BudgetClamp rung alone more than doubles capacity, and let
        // runs whose predictive CI tightens early stop even sooner.
        sopts.brownout.budgetFraction = {0.5, 0.25, 0.125};
        sopts.brownout.targetCiWidth = 0.6;
        sopts.brownout.minSamples = 4;
    }
    auto created = InferenceServer::create({brownSpec()}, sopts);
    if (!created.hasValue()) {
        std::cerr << "brownout phase server creation failed: "
                  << created.error().toString() << "\n";
        return phase;
    }
    InferenceServer &srv = *created.value();

    struct Done {
        double atS = 0.0;
        double totalMs = 0.0;
        Outcome outcome = Outcome::Failed;
        int level = 0;
        std::size_t effective = 0;
        bool converged = false;
    };
    std::mutex handlesMutex;
    std::deque<RequestHandle> handles;
    std::atomic<bool> producing{true};
    std::vector<double> rejectedAt;
    std::uint64_t submitted = 0, accepted = 0;

    const auto begin = std::chrono::steady_clock::now();
    std::thread submitter([&]() {
        const auto interval = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(1.0 / offered));
        const auto end =
            begin + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(phase_s));
        auto nextFire = begin;
        std::uint64_t i = 0;
        while (std::chrono::steady_clock::now() < end) {
            std::this_thread::sleep_until(nextFire);
            nextFire += interval;
            InferRequest req;
            req.modelId = "brown";
            req.input = brownInput();
            req.mc.seed = i;
            req.deadlineMs = deadline_ms;
            req.priority = static_cast<Priority>(i % kPriorityLevels);
            ++i;
            ++submitted;
            auto handle = srv.submit(std::move(req));
            if (!handle.hasValue()) {
                rejectedAt.push_back(
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - begin)
                        .count());
                continue;
            }
            ++accepted;
            const std::lock_guard<std::mutex> lock(handlesMutex);
            handles.push_back(std::move(handle).value());
        }
    });

    constexpr std::size_t collectors = 2;
    std::vector<std::vector<Done>> collected(collectors);
    std::vector<std::thread> collectorPool;
    collectorPool.reserve(collectors);
    for (std::size_t c = 0; c < collectors; ++c) {
        collectorPool.emplace_back([&, c]() {
            std::vector<Done> &mine = collected[c];
            for (;;) {
                RequestHandle handle;
                {
                    const std::lock_guard<std::mutex> lock(
                        handlesMutex);
                    if (handles.empty()) {
                        if (!producing.load(std::memory_order_acquire))
                            return;
                    } else {
                        handle = std::move(handles.front());
                        handles.pop_front();
                    }
                }
                if (!handle.response.valid()) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                    continue;
                }
                const InferResponse response = handle.response.get();
                Done done;
                done.atS = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - begin)
                               .count();
                done.totalMs = response.totalMs;
                done.outcome = response.outcome;
                done.level = static_cast<int>(response.brownoutLevel);
                done.effective = response.effectiveSamples;
                done.converged = response.result.has_value() &&
                                 response.result->census.converged;
                mine.push_back(done);
            }
        });
    }

    submitter.join();
    // Release the collectors only after the submitter's final push is
    // visible, so no handle can slip in behind their exit check.
    producing.store(false, std::memory_order_release);
    for (std::thread &t : collectorPool)
        t.join();

    if (controller_on) {
        // The overload is over: give the tick thread time to walk the
        // ladder back down (idle ticks with an empty queue count as
        // healthy), then check it actually recovered.
        std::this_thread::sleep_for(std::chrono::milliseconds(2500));
        phase.recoveredToNormal =
            srv.health().brownout.level == BrownoutLevel::Normal;
    }
    srv.drain();

    // --- Aggregate -----------------------------------------------------
    phase.valid = true;
    phase.submitted = submitted;
    phase.accepted = accepted;
    phase.rejected = rejectedAt.size();
    const std::size_t windowCount =
        static_cast<std::size_t>(phase_s) + 2;
    phase.windows.resize(windowCount);
    const auto windowAt = [&](double at_s) -> BrownWindow & {
        return phase.windows[std::min(
            windowCount - 1,
            static_cast<std::size_t>(std::max(0.0, at_s)))];
    };
    for (double at : rejectedAt)
        ++windowAt(at).rejected;
    LatencyHistogram okLatency;
    std::uint64_t sumEffective = 0, convergedCount = 0;
    for (const std::vector<Done> &part : collected) {
        for (const Done &done : part) {
            BrownWindow &w = windowAt(done.atS);
            w.maxLevel = std::max(w.maxLevel, done.level);
            phase.maxLevel = std::max(phase.maxLevel, done.level);
            switch (done.outcome) {
            case Outcome::Ok:
                ++phase.ok;
                ++w.ok;
                w.okLatency.record(done.totalMs);
                okLatency.record(done.totalMs);
                w.sumEffective += done.effective;
                sumEffective += done.effective;
                if (done.converged) {
                    ++w.converged;
                    ++convergedCount;
                }
                break;
            case Outcome::Shed:
                ++phase.shed;
                ++w.shed;
                break;
            case Outcome::Failed: ++phase.failed; break;
            case Outcome::Cancelled: ++phase.cancelled; break;
            }
        }
    }
    phase.p99Ms = okLatency.p99Ms();
    phase.degradeRate =
        phase.submitted > 0
            ? static_cast<double>(phase.shed + phase.rejected +
                                  phase.failed) /
                  static_cast<double>(phase.submitted)
            : 0.0;
    phase.meanEffectiveT =
        phase.ok > 0 ? static_cast<double>(sumEffective) /
                           static_cast<double>(phase.ok)
                     : 0.0;
    phase.convergedFraction =
        phase.ok > 0 ? static_cast<double>(convergedCount) /
                           static_cast<double>(phase.ok)
                     : 0.0;
    return phase;
}

void
appendBrownoutPhaseJson(std::ostringstream &os,
                        const BrownoutPhase &phase)
{
    os << "{\"controller\": "
       << (phase.controllerOn ? "true" : "false")
       << ", \"submitted\": " << phase.submitted
       << ", \"accepted\": " << phase.accepted
       << ", \"rejected\": " << phase.rejected
       << ", \"ok\": " << phase.ok << ", \"shed\": " << phase.shed
       << ", \"failed\": " << phase.failed
       << ", \"degrade_rate\": "
       << format("%.4f", phase.degradeRate)
       << ", \"p99_ms\": " << format("%.3f", phase.p99Ms)
       << ", \"mean_effective_t\": "
       << format("%.2f", phase.meanEffectiveT)
       << ", \"converged_fraction\": "
       << format("%.3f", phase.convergedFraction)
       << ", \"max_level\": \""
       << brownoutLevelName(
              static_cast<BrownoutLevel>(phase.maxLevel))
       << "\", \"recovered_to_normal\": "
       << (phase.recoveredToNormal ? "true" : "false")
       << ",\n      \"windows\": [\n";
    for (std::size_t i = 0; i < phase.windows.size(); ++i) {
        const BrownWindow &w = phase.windows[i];
        const double meanT =
            w.ok > 0 ? static_cast<double>(w.sumEffective) /
                           static_cast<double>(w.ok)
                     : 0.0;
        const double convergedFrac =
            w.ok > 0 ? static_cast<double>(w.converged) /
                           static_cast<double>(w.ok)
                     : 0.0;
        os << "        {\"t_s\": " << i << ", \"ok\": " << w.ok
           << ", \"shed\": " << w.shed
           << ", \"rejected\": " << w.rejected
           << ", \"mean_effective_t\": " << format("%.2f", meanT)
           << ", \"converged_fraction\": "
           << format("%.3f", convergedFrac) << ", \"max_level\": \""
           << brownoutLevelName(static_cast<BrownoutLevel>(w.maxLevel))
           << "\", \"p99_ms\": "
           << format("%.3f", w.okLatency.p99Ms()) << "}"
           << (i + 1 == phase.windows.size() ? "\n" : ",\n");
    }
    os << "      ]}";
}

/** Closed-loop ceiling of the brown model on a throwaway server. */
double
measureBrownCeiling()
{
    auto created = InferenceServer::create({brownSpec()}, [] {
        ServerOptions sopts;
        sopts.workers = 2;
        sopts.queueCapacity = 128;
        sopts.maxBatch = 4;
        return sopts;
    }());
    if (!created.hasValue()) {
        std::cerr << "ceiling server creation failed: "
                  << created.error().toString() << "\n";
        return 0.0;
    }
    InferenceServer &srv = *created.value();
    constexpr std::size_t clients = 4;
    constexpr std::size_t perClient = 25;
    std::atomic<std::uint64_t> ok{0};
    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        pool.emplace_back([&, c]() {
            for (std::size_t i = 0; i < perClient; ++i) {
                InferRequest req;
                req.modelId = "brown";
                req.input = brownInput();
                req.mc.seed = c * 10000 + i;
                auto handle = srv.submit(std::move(req));
                if (!handle.hasValue())
                    continue;
                if (handle.value().response.get().ok())
                    ok.fetch_add(1);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    const double duration =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin)
            .count();
    srv.drain();
    return duration > 0.0 ? static_cast<double>(ok.load()) / duration
                          : 0.0;
}

void
appendWindowJson(std::ostringstream &os, const Window &w,
                 std::size_t index, bool last)
{
    os << "    {\"t_s\": " << index << ", \"ok\": " << w.ok
       << ", \"shed\": " << w.shed << ", \"failed\": " << w.failed
       << ", \"cancelled\": " << w.cancelled
       << ", \"p50_ms\": " << format("%.3f", w.okLatency.p50Ms())
       << ", \"p95_ms\": " << format("%.3f", w.okLatency.p95Ms())
       << ", \"p99_ms\": " << format("%.3f", w.okLatency.p99Ms())
       << ", \"by_version\": {";
    bool first = true;
    for (const auto &[version, count] : w.byVersion) {
        os << (first ? "" : ", ") << "\"v" << version
           << "\": " << count;
        first = false;
    }
    os << "}}" << (last ? "\n" : ",\n");
}

} // namespace

int
main()
{
    const double durationS = soakSeconds();
    if (!writeZoo())
        return 1;

    ServerOptions sopts;
    sopts.workers = 2;
    sopts.queueCapacity = 128;
    sopts.maxBatch = 4;
    sopts.breaker.enabled = true;
    sopts.breaker.failureThreshold = 16;
    sopts.breaker.cooldownMs = 500.0;

    std::vector<ModelSpec> zoo;
    for (const std::string id : {"zoo-a", "zoo-b"}) {
        ModelSpec spec;
        spec.id = id;
        spec.version = 1;
        spec.factory = checkpointFactory(id, 1);
        zoo.push_back(std::move(spec));
    }
    auto created = InferenceServer::create(std::move(zoo), sopts);
    if (!created.hasValue()) {
        std::cerr << "server creation failed: "
                  << created.error().toString() << "\n";
        removeZoo();
        return 1;
    }
    InferenceServer &srv = *created.value();

    std::cerr << "bench_serve_soak: measuring ceiling...\n";
    const double ceiling = measureCeiling(srv);
    const double offered = 2.0 * ceiling;
    const double deadlineMs = 1000.0 / ceiling * 8.0;
    std::cerr << format(
        "bench_serve_soak: ceiling %.0f rps; soaking %.0f s at "
        "%.0f rps (2x overload), deadline %.1f ms\n", ceiling,
        durationS, offered, deadlineMs);

    // --- The soak ----------------------------------------------------
    const auto soakBegin = std::chrono::steady_clock::now();
    std::atomic<bool> submitting{true};
    std::atomic<std::uint64_t> accepted{0}, rejected{0};

    std::mutex handlesMutex;
    std::deque<RequestHandle> handles;

    // The open-loop submitter: fires at the offered rate whatever the
    // completion rate is, alternating models — overload must surface
    // as shed/rejected, never as a stall.
    std::thread submitter([&]() {
        const auto interval = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(1.0 / offered));
        auto nextFire = std::chrono::steady_clock::now();
        std::uint64_t i = 0;
        while (submitting.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_until(nextFire);
            nextFire += interval;
            InferRequest req;
            req.modelId = i % 2 == 0 ? "zoo-a" : "zoo-b";
            req.input = input();
            req.mc.seed = i;
            req.deadlineMs = deadlineMs;
            ++i;
            auto handle = srv.submit(std::move(req));
            if (!handle.hasValue()) {
                rejected.fetch_add(1);
                continue;
            }
            accepted.fetch_add(1);
            const std::lock_guard<std::mutex> lock(handlesMutex);
            handles.push_back(std::move(handle).value());
        }
    });

    // Collector pool: each thread drains handles as they complete and
    // stamps the completion into the trajectory.
    constexpr std::size_t collectors = 4;
    std::vector<std::vector<Completion>> collected(collectors);
    std::vector<std::thread> collectorPool;
    collectorPool.reserve(collectors);
    for (std::size_t c = 0; c < collectors; ++c) {
        collectorPool.emplace_back([&, c]() {
            std::vector<Completion> &mine = collected[c];
            for (;;) {
                RequestHandle handle;
                {
                    const std::lock_guard<std::mutex> lock(
                        handlesMutex);
                    if (handles.empty()) {
                        if (!submitting.load(
                                std::memory_order_relaxed))
                            return;
                    } else {
                        handle = std::move(handles.front());
                        handles.pop_front();
                    }
                }
                if (!handle.response.valid()) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                    continue;
                }
                const InferResponse response = handle.response.get();
                Completion done;
                done.atS = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               soakBegin)
                               .count();
                done.totalMs = response.totalMs;
                done.outcome = response.outcome;
                done.id = response.id;
                done.modelVersion = response.modelVersion;
                mine.push_back(done);
            }
        });
    }

    // The chaos thread: two good swaps and one corrupt one.
    std::vector<SwapEvent> swaps;
    std::thread chaos([&]() {
        struct Planned {
            double fraction;
            const char *modelId;
            std::uint64_t version;
            bool expectSuccess;
        };
        const Planned plan[] = {
            {0.3, "zoo-a", 2, true},
            {0.5, "zoo-a", 3, false},  // the corrupt checkpoint
            {0.7, "zoo-b", 2, true},
        };
        for (const Planned &p : plan) {
            const auto at =
                soakBegin + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(
                                    p.fraction * durationS));
            std::this_thread::sleep_until(at);
            SwapEvent event;
            event.modelId = p.modelId;
            event.version = p.version;
            event.expectSuccess = p.expectSuccess;
            event.atS = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            soakBegin)
                            .count();
            const auto swapBegin = std::chrono::steady_clock::now();
            auto pending =
                srv.requestSwap(zooVersion(p.modelId, p.version));
            if (!pending.hasValue()) {
                event.succeeded = false;
                event.detail = pending.error().toString();
            } else {
                const Status landed = pending.value().get();
                event.succeeded = landed.isOk();
                event.detail =
                    landed.isOk() ? "swapped" : landed.toString();
            }
            event.latencyMs = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() -
                                  swapBegin)
                                  .count();
            swaps.push_back(event);
            std::cerr << format(
                "bench_serve_soak: t=%.1fs swap %s -> v%llu: %s "
                "(%.1f ms)\n", event.atS, event.modelId.c_str(),
                static_cast<unsigned long long>(event.version),
                event.detail.c_str(), event.latencyMs);
        }
    });

    std::this_thread::sleep_for(
        std::chrono::duration<double>(durationS));
    submitting.store(false, std::memory_order_relaxed);
    submitter.join();
    chaos.join();

    // The rolled-back model must still serve (checked before drain()
    // closes the admission queue for good).
    int failures = 0;
    {
        InferRequest req;
        req.modelId = "zoo-a";
        req.input = input();
        auto handle = srv.submit(std::move(req));
        if (!handle.hasValue() ||
            !handle.value().response.get().ok()) {
            std::cerr << "FAIL: zoo-a cannot serve after rollback\n";
            ++failures;
        }
    }
    srv.drain();
    for (std::thread &t : collectorPool)
        t.join();

    // --- Accounting: exactly-once, nothing lost ----------------------
    std::vector<Completion> all;
    for (const std::vector<Completion> &part : collected)
        all.insert(all.end(), part.begin(), part.end());
    if (all.size() != accepted.load()) {
        std::cerr << format(
            "FAIL: %zu accepted but %zu completions observed\n",
            static_cast<std::size_t>(accepted.load()), all.size());
        ++failures;
    }
    std::set<std::uint64_t> ids;
    for (const Completion &done : all)
        ids.insert(done.id);
    if (ids.size() != all.size()) {
        std::cerr << format(
            "FAIL: %zu completions carry only %zu distinct ids "
            "(double completion)\n", all.size(), ids.size());
        ++failures;
    }

    // --- Swap outcomes -----------------------------------------------
    if (swaps.size() != 3) {
        std::cerr << "FAIL: chaos thread ran " << swaps.size()
                  << " of 3 swaps\n";
        ++failures;
    }
    for (const SwapEvent &event : swaps) {
        if (event.succeeded != event.expectSuccess) {
            std::cerr << format(
                "FAIL: swap %s -> v%llu %s but was expected to %s\n",
                event.modelId.c_str(),
                static_cast<unsigned long long>(event.version),
                event.succeeded ? "succeeded" : "failed",
                event.expectSuccess ? "succeed" : "fail");
            ++failures;
        }
    }

    // --- Server accounting balances ---------------------------------
    // One snapshot after drain(): every request the server accepted
    // (ceiling probe and post-rollback check included) completed
    // exactly once, so the outcome counts sum to its accepted count.
    const HealthReport health = srv.health();
    const std::uint64_t completed =
        health.ok + health.shed + health.failed + health.cancelled;
    if (health.accepted != completed) {
        std::cerr << format(
            "FAIL: server accepted %llu but its outcome counts sum "
            "to %llu\n",
            static_cast<unsigned long long>(health.accepted),
            static_cast<unsigned long long>(completed));
        ++failures;
    }

    // --- Post-rollback health ----------------------------------------
    for (const ModelHealth &model : health.models) {
        if (model.id == "zoo-a") {
            if (model.registry.activeVersion != 2 ||
                model.registry.rollbacks != 1) {
                std::cerr << format(
                    "FAIL: zoo-a should serve v2 with 1 rollback; "
                    "health says v%llu with %llu\n",
                    static_cast<unsigned long long>(
                        model.registry.activeVersion),
                    static_cast<unsigned long long>(
                        model.registry.rollbacks));
                ++failures;
            }
            if (model.breakerState != BreakerState::Closed) {
                std::cerr << "FAIL: zoo-a breaker opened during the "
                             "rollback\n";
                ++failures;
            }
        }
        if (model.id == "zoo-b" && model.registry.activeVersion != 2) {
            std::cerr << "FAIL: zoo-b swap did not land\n";
            ++failures;
        }
    }
    // --- Trajectories -------------------------------------------------
    const std::size_t windowCount =
        static_cast<std::size_t>(durationS) + 2;
    std::vector<Window> windows(windowCount);
    for (const Completion &done : all) {
        const std::size_t index = std::min(
            windowCount - 1,
            static_cast<std::size_t>(std::max(0.0, done.atS)));
        Window &w = windows[index];
        switch (done.outcome) {
        case Outcome::Ok:
            ++w.ok;
            w.okLatency.record(done.totalMs);
            ++w.byVersion[done.modelVersion];
            break;
        case Outcome::Shed: ++w.shed; break;
        case Outcome::Failed: ++w.failed; break;
        case Outcome::Cancelled: ++w.cancelled; break;
        }
    }

    // --- Brownout A/B overload comparison ----------------------------
    // Same offered rate (2x the brown model's ceiling), same deadline,
    // only the controller differs.  Gates: brownout cuts the
    // shed+rejected rate >= 2x, served p99 does not regress past
    // max(1.25 * fixed-T p99, the deadline), the ladder engages, and
    // it recovers to Normal after the load stops.
    std::cerr << "bench_serve_soak: brownout A/B comparison...\n";
    const double brownCeiling = measureBrownCeiling();
    const double brownOffered = 2.0 * brownCeiling;
    const double brownDeadlineMs = 1000.0 / brownCeiling * 8.0;
    const double brownPhaseS =
        std::min(12.0, std::max(5.0, durationS / 4.0));
    BrownoutPhase fixedT;
    BrownoutPhase adaptive;
    if (brownCeiling <= 0.0) {
        std::cerr << "FAIL: cannot measure the brown model ceiling\n";
        ++failures;
    } else {
        std::cerr << format(
            "bench_serve_soak: brown ceiling %.0f rps; 2 phases of "
            "%.0f s at %.0f rps, deadline %.1f ms\n", brownCeiling,
            brownPhaseS, brownOffered, brownDeadlineMs);
        fixedT = runBrownoutPhase(/*controller_on=*/false, brownPhaseS,
                                  brownOffered, brownDeadlineMs);
        adaptive = runBrownoutPhase(/*controller_on=*/true, brownPhaseS,
                                    brownOffered, brownDeadlineMs);
        if (!fixedT.valid || !adaptive.valid) {
            std::cerr << "FAIL: brownout phase did not run\n";
            ++failures;
        } else {
            std::cerr << format(
                "bench_serve_soak: fixed-T degrade rate %.3f "
                "(p99 %.1f ms); brownout %.3f (p99 %.1f ms, mean "
                "effective T %.1f, max rung %s)\n", fixedT.degradeRate,
                fixedT.p99Ms, adaptive.degradeRate, adaptive.p99Ms,
                adaptive.meanEffectiveT,
                brownoutLevelName(
                    static_cast<BrownoutLevel>(adaptive.maxLevel)));
            if (fixedT.degradeRate <= 0.0) {
                std::cerr << "FAIL: 2x overload shed nothing under "
                             "fixed-T — the baseline did not "
                             "saturate\n";
                ++failures;
            } else if (adaptive.degradeRate * 2.0 >
                       fixedT.degradeRate) {
                std::cerr << format(
                    "FAIL: brownout degrade rate %.3f is not a 2x "
                    "improvement on fixed-T %.3f\n",
                    adaptive.degradeRate, fixedT.degradeRate);
                ++failures;
            }
            if (adaptive.p99Ms >
                std::max(fixedT.p99Ms * 1.25, brownDeadlineMs)) {
                std::cerr << format(
                    "FAIL: brownout p99 %.1f ms regressed past "
                    "max(1.25 * %.1f, %.1f)\n", adaptive.p99Ms,
                    fixedT.p99Ms, brownDeadlineMs);
                ++failures;
            }
            if (adaptive.maxLevel <
                static_cast<int>(BrownoutLevel::AdaptiveExit)) {
                std::cerr << "FAIL: the brownout ladder never left "
                             "Normal under 2x overload\n";
                ++failures;
            }
            if (!adaptive.recoveredToNormal) {
                std::cerr << "FAIL: the ladder did not recover to "
                             "Normal after the overload ended\n";
                ++failures;
            }
        }
    }

    std::ostringstream json;
    json << "{\n  \"bench\": \"serve_soak\",\n"
         << "  \"duration_s\": " << format("%.1f", durationS) << ",\n"
         << "  \"ceiling_rps\": " << format("%.1f", ceiling) << ",\n"
         << "  \"offered_rps\": " << format("%.1f", offered) << ",\n"
         << "  \"deadline_ms\": " << format("%.2f", deadlineMs)
         << ",\n"
         << "  \"accepted\": " << health.accepted << ",\n"
         << "  \"rejected\": " << rejected.load() << ",\n"
         << "  \"ok\": " << health.ok << ",\n"
         << "  \"shed\": " << health.shed << ",\n"
         << "  \"failed\": " << health.failed << ",\n"
         << "  \"cancelled\": " << health.cancelled << ",\n"
         << "  \"swaps\": [\n";
    for (std::size_t i = 0; i < swaps.size(); ++i) {
        const SwapEvent &event = swaps[i];
        json << "    {\"t_s\": " << format("%.2f", event.atS)
             << ", \"model\": \"" << event.modelId << "\""
             << ", \"version\": " << event.version
             << ", \"expected_success\": "
             << (event.expectSuccess ? "true" : "false")
             << ", \"succeeded\": "
             << (event.succeeded ? "true" : "false")
             << ", \"latency_ms\": "
             << format("%.2f", event.latencyMs) << "}"
             << (i + 1 == swaps.size() ? "\n" : ",\n");
    }
    json << "  ],\n  \"windows\": [\n";
    for (std::size_t i = 0; i < windows.size(); ++i)
        appendWindowJson(json, windows[i], i,
                         i + 1 == windows.size());
    json << "  ],\n  \"brownout_overload\": {\n"
         << "    \"t_samples\": " << kBrownSamples << ",\n"
         << "    \"phase_s\": " << format("%.1f", brownPhaseS)
         << ",\n"
         << "    \"ceiling_rps\": " << format("%.1f", brownCeiling)
         << ",\n"
         << "    \"offered_rps\": " << format("%.1f", brownOffered)
         << ",\n"
         << "    \"deadline_ms\": "
         << format("%.2f", brownDeadlineMs) << ",\n"
         << "    \"fixed\": ";
    appendBrownoutPhaseJson(json, fixedT);
    json << ",\n    \"adaptive\": ";
    appendBrownoutPhaseJson(json, adaptive);
    json << "\n  },\n  \"verdict\": \""
         << (failures == 0 ? "pass" : "fail") << "\"\n}\n";

    std::cout << json.str();
    const char *jsonPath = std::getenv("FASTBCNN_SOAK_JSON");
    const std::string outPath =
        jsonPath != nullptr ? jsonPath : "BENCH_serve_soak.json";
    std::ofstream file(outPath);
    if (!file) {
        std::cerr << "cannot write " << outPath << "\n";
        ++failures;
    } else {
        file << json.str();
        std::cerr << "bench_serve_soak: wrote " << outPath << "\n";
    }

    removeZoo();
    if (failures > 0) {
        std::cerr << "bench_serve_soak: " << failures
                  << " check(s) FAILED\n";
        return 1;
    }
    std::cerr << "bench_serve_soak: all robustness checks passed\n";
    return 0;
}
