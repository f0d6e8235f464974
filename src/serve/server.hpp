/**
 * @file
 * InferenceServer — concurrent batch-inference serving front end.
 *
 * Owns the full pipeline: a bounded MPMC admission queue
 * (backpressure: a full queue rejects with ResourceExhausted), a
 * deadline/priority-aware batch scheduler with pre-dispatch load
 * shedding, and a pool of worker threads each holding its own
 * calibrated engine replica per served model.  Per-outcome latency
 * histograms and a StatGroup give the load-generator harness and the
 * soak tests a consistent view of what happened to every request.
 *
 * Lifecycle: create() → submit()* → drain() (graceful: serve
 * everything queued, then stop) or shutdown() (hard: stop pulling,
 * cancel everything still queued).  Either way every accepted
 * request's future resolves exactly once; the destructor performs a
 * hard shutdown if neither was called.
 */

#ifndef FASTBCNN_SERVE_SERVER_HPP
#define FASTBCNN_SERVE_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "serve/breaker.hpp"
#include "serve/brownout.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "serve/worker.hpp"

namespace fastbcnn::serve {

/** One model the server hosts. */
struct ModelSpec {
    /** The id requests address (InferRequest::modelId). */
    std::string id;
    /**
     * Builds one *calibrated* engine replica.  Called once per worker
     * at create() time; every call must produce an engine with the
     * same input shape and MC defaults (replicas of one model).
     */
    EngineFactory factory;
    /** Registry version the initial install publishes as. */
    std::uint64_t version = 1;
    /** Pre-install health gate (disabled by default). */
    HealthGate gate;
};

/** Server sizing knobs. */
struct ServerOptions {
    /** Worker threads == engine replicas per model. */
    std::size_t workers = 2;
    /** Admission-queue bound (backpressure point). */
    std::size_t queueCapacity = 64;
    /** Micro-batch size cap (1 disables batching). */
    std::size_t maxBatch = 8;
    /** Per-model circuit breaker (disabled by default). */
    BreakerOptions breaker;
    /** Model-registry policy (hot-swap backoff). */
    RegistryOptions registry;
    /** Overload brownout controller (disabled by default). */
    BrownoutOptions brownout;
};

/**
 * Validate @p opts at the API boundary.
 * @return ok, or an InvalidArgument error naming the bad value.
 */
[[nodiscard]] Status validateServerOptions(const ServerOptions &opts);

/** Point-in-time health of one served model. */
struct ModelHealth {
    std::string id;
    /** True when the model's engines run with a skip guard. */
    bool guardEnabled = false;
    /** True when the model's engines carry an int8 mirror. */
    bool int8Available = false;
    BreakerState breakerState = BreakerState::Closed;
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerRejections = 0;
    /** Guard state merged across the worker replicas' guards. */
    GuardSnapshot guard;
    /**
     * Registry lifecycle state: active / warming version, swap and
     * rollback counts, failure backoff, last lifecycle event.
     */
    RegistryModelHealth registry;
    /**
     * Sample budget each priority class gets for this model at the
     * current brownout rung (== the model's default T everywhere when
     * the ladder is at Normal or the controller is disabled).
     */
    std::array<std::size_t, kPriorityLevels> effectiveSamples{};
};

/** Point-in-time health of the whole server (health()). */
struct HealthReport {
    bool accepting = false;
    std::size_t queueDepth = 0;
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rejectedBreaker = 0;
    /** Served-request (Outcome::Ok) latency percentiles in ms. */
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    /** Brownout controller snapshot (enabled == false when off). */
    BrownoutState brownout;
    std::vector<ModelHealth> models;
};

/**
 * Render @p report as a single JSON object on one line.  Additive
 * over time: existing keys keep their names and types (bench and soak
 * consumers parse this), new subsystems append new keys.
 */
std::string healthJson(const HealthReport &report);

class InferenceServer
{
  public:
    /**
     * Build a server: validates @p opts, instantiates
     * opts.workers replicas of every model in @p models (rejecting
     * factories that fail or return uncalibrated engines), and starts
     * the worker threads.
     */
    [[nodiscard]] static Expected<std::unique_ptr<InferenceServer>>
    create(
        std::vector<ModelSpec> models, ServerOptions opts = {});

    /** Hard shutdown if the caller never stopped the server. */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Submit one request (thread-safe, never blocks).
     *
     * Admission control rejects — returning the error, with no future
     * ever created — on: unknown model (NotFound), wrong input shape
     * or invalid merged MC options (InvalidArgument), full queue
     * (ResourceExhausted), stopping server (Unavailable).  An
     * accepted request's future resolves exactly once with its
     * InferResponse.
     */
    [[nodiscard]] Expected<RequestHandle> submit(InferRequest request);

    /**
     * Graceful drain: stop admitting, serve everything queued
     * (shedding what expires on the way), join the workers.
     * Idempotent with shutdown(); first caller wins.
     */
    void drain();

    /**
     * Hard shutdown: stop admitting, finish only the batches already
     * dispatched, complete everything still queued with
     * Outcome::Cancelled, join the workers.
     */
    void shutdown();

    /** @return true while submit() can still accept requests. */
    bool accepting() const;

    /** @return the number of queued (not yet dispatched) requests. */
    std::size_t queueDepth() const { return queue_.size(); }

    /** @return the server options. */
    const ServerOptions &options() const { return opts_; }

    /** @return the served model ids. */
    std::vector<std::string> modelIds() const;

    /**
     * Serving counters: accepted, rejected_full, rejected_invalid,
     * ok, shed, cancelled, failed, degraded, batches,
     * batched_requests.
     */
    const StatGroup &stats() const { return stats_; }

    /** @return a snapshot of the latency histogram of @p outcome. */
    LatencyHistogram latencySnapshot(Outcome outcome) const;

    /**
     * Assemble a health report: queue depth, admission/outcome
     * counters, served-latency percentiles, and per-model breaker +
     * registry state plus the guard snapshots merged across worker
     * replicas.  Safe to call at any time from any thread.
     */
    HealthReport health() const;

    /** @return the breaker of @p model_id (nullptr: not served). */
    const CircuitBreaker *breaker(const std::string &model_id) const;

    /**
     * Queue a hot-swap of @p spec.modelId to @p spec (thread-safe;
     * the model must already be served — swaps change versions, not
     * the model set).  The new version builds, warms and health-gates
     * on the registry's background thread while the old one keeps
     * serving; on success admission metadata is refreshed, the
     * model's circuit breaker resets, and the "swaps" counter ticks —
     * on failure the old version keeps serving (rollback) and the
     * model enters exponential backoff.  The returned future resolves
     * with the final status.
     */
    [[nodiscard]] Expected<std::future<Status>> requestSwap(
        ModelVersionSpec spec);

    /** @return the model registry (for tests / direct inspection). */
    const ModelRegistry &registry() const { return *registry_; }

    /** @return the brownout controller (for tests / benches). */
    BrownoutController &brownout() { return *brownout_; }
    const BrownoutController &brownout() const { return *brownout_; }

  private:
    /** Admission-time knowledge about one served model. */
    struct ModelInfo {
        Shape inputShape;
        McOptions mcDefaults;
        /** True when the model's engines carry a skip guard. */
        bool guardEnabled = false;
        /** True when the model's engines carry an int8 mirror —
         *  admission rejects Precision::Int8 requests otherwise. */
        bool int8Available = false;
    };

    explicit InferenceServer(ServerOptions opts);

    /** Registry post-swap hook: refresh ModelInfo, reset the breaker. */
    void onSwapSuccess(const std::string &model_id,
                       const VersionedEngine &replica0);

    void workerLoop(std::size_t index);
    /** Resolve @p pending's promise and account for the outcome. */
    void complete(PendingRequest &&pending, InferResponse &&response);
    /** complete() for a load-shed request. */
    void shed(PendingRequest &&pending);
    /** complete() for a Background request the Shed rung dropped. */
    void brownoutShed(PendingRequest &&pending);
    /** Brownout tick thread body (runs only when brownout.enabled). */
    void brownoutLoop();
    void stop(bool drain_queue);

    ServerOptions opts_;
    /** Guards models_ (mutated by onSwapSuccess, read by submit). */
    mutable std::mutex modelsMutex_;
    std::map<std::string, ModelInfo> models_;
    /** Per-model breakers (stable addresses; created at create()). */
    std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
    BoundedRequestQueue queue_;
    /** Built before the scheduler / workers (both hold pointers). */
    std::unique_ptr<BrownoutController> brownout_;
    std::unique_ptr<BatchScheduler> scheduler_;
    std::vector<std::unique_ptr<EngineWorker>> workers_;
    std::vector<std::thread> threads_;

    /** Brownout tick thread (joined by stop()). */
    std::thread brownoutThread_;
    std::mutex brownoutMutex_;
    std::condition_variable brownoutCv_;
    bool brownoutStop_ = false;

    StatGroup stats_{"serve"};
    std::array<LatencyHistogram, kOutcomeCount> latency_;
    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<std::uint64_t> nextSeq_{1};

    /**
     * Versioned engine replicas (workers acquire per batch).
     * Declared after every member its swap callback touches (models_,
     * breakers_, stats_), so its destructor — which joins the swap
     * thread, possibly mid-callback — runs first.
     */
    std::unique_ptr<ModelRegistry> registry_;

    std::mutex lifecycle_;
    bool stopped_ = false;
};

} // namespace fastbcnn::serve

#endif // FASTBCNN_SERVE_SERVER_HPP
