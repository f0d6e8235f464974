/**
 * @file
 * InferenceServer — concurrent batch-inference serving front end.
 *
 * Owns the full pipeline: a bounded MPMC admission queue
 * (backpressure: a full queue rejects with ResourceExhausted), a
 * deadline/priority-aware batch scheduler with pre-dispatch load
 * shedding, and a pool of worker threads that share each served
 * model's one calibrated engine.  Every serve event is
 * counted once, by the module that decides it (the server, the
 * per-outcome latency histograms, the brownout controller, the
 * breakers, the registry); health() gathers them into one report.
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
#include <string_view>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "serve/breaker.hpp"
#include "serve/brownout.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"

namespace fastbcnn::serve {

/** One model the server hosts. */
struct ModelSpec {
    /** The id requests address (InferRequest::modelId). */
    std::string id;
    /**
     * Builds the model's *calibrated* engine.  Called once at
     * create() time; every worker thread shares the engine it returns.
     */
    EngineFactory factory;
    /** Registry version the initial install publishes as. */
    std::uint64_t version = 1;
    /** Pre-install health gate (disabled by default). */
    HealthGate gate;
};

/** Server sizing knobs. */
struct ServerOptions {
    /** Worker threads; they share each model's one engine. */
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
    /** True when the model's engine carries an int8 mirror. */
    bool int8Available = false;
    BreakerState breakerState = BreakerState::Closed;
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerRejections = 0;
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
    /** Admission rejections of a malformed request (unknown model,
     *  wrong shape, bad deadline, priority or MC overrides). */
    std::uint64_t rejectedInvalid = 0;
    /** Breaker rejections: the sum of the per-model breakers'. */
    std::uint64_t rejectedBreaker = 0;
    /** Completions by outcome (the per-outcome histograms' counts);
     *  after drain() they sum to accepted. */
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
    std::uint64_t cancelled = 0;
    /** Served on fewer than T samples (InferResponse::degraded()). */
    std::uint64_t degraded = 0;
    /** Micro-batches dispatched and the requests they carried. */
    std::uint64_t batches = 0;
    std::uint64_t batchedRequests = 0;
    /** Served-request (Outcome::Ok) latency percentiles in ms. */
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    /** Brownout controller snapshot (enabled == false when off). */
    BrownoutState brownout;
    std::vector<ModelHealth> models;

    /**
     * @return degraded; @p key must be "degraded" (panics otherwise).
     * The one name-keyed read left, behind InferenceServer::stats().
     */
    std::uint64_t counter(std::string_view key) const;
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
     * Build a server: validates @p opts, builds one engine of every
     * model in @p models (rejecting factories that fail or return
     * uncalibrated engines), and starts the worker threads.
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
     * health() under its old name, kept only because
     * bench/perf/bench_perf.cpp reads stats().counter("degraded");
     * new code reads health().
     */
    HealthReport stats() const { return health(); }

    /** @return a snapshot of the latency histogram of @p outcome. */
    LatencyHistogram latencySnapshot(Outcome outcome) const;

    /**
     * Assemble a health report: queue depth, admission/outcome
     * counters, served-latency percentiles, and per-model breaker +
     * registry state.  Safe to call at any time from any thread.
     */
    HealthReport health() const;

    /** @return the breaker of @p model_id (nullptr: not served). */
    const CircuitBreaker *breaker(const std::string &model_id) const;

    /**
     * Queue a hot-swap of @p spec.modelId to @p spec (thread-safe;
     * the model must already be served — swaps change versions, not
     * the model set).  The new version builds, warms and health-gates
     * on the registry's background thread while the old one keeps
     * serving; on success admission reads the new version, the
     * model's circuit breaker resets, and the registry's swap count
     * ticks — on failure the old version keeps serving (rollback) and
     * the model enters exponential backoff.  The returned future
     * resolves with the final status.
     */
    [[nodiscard]] Expected<std::future<Status>> requestSwap(
        ModelVersionSpec spec);

    /** @return the model registry (for tests / direct inspection). */
    const ModelRegistry &registry() const { return *registry_; }

    /** @return the brownout controller (for tests / benches). */
    BrownoutController &brownout() { return *brownout_; }
    const BrownoutController &brownout() const { return *brownout_; }

  private:
    explicit InferenceServer(ServerOptions opts);

    /** @return ok, or why admission rejects @p request as invalid. */
    Status checkRequest(const InferRequest &request) const;
    void workerLoop(std::size_t index, const CompleteFn &complete);
    /**
     * The one completion path (workers, scheduler sheds, shutdown
     * cancels): resolve @p pending's promise and account for the
     * outcome.
     */
    void complete(PendingRequest &&pending, InferResponse &&response);
    /** Brownout tick thread body (runs only when brownout.enabled). */
    void brownoutLoop();
    void stop(bool drain_queue);

    ServerOptions opts_;
    /**
     * Per-model breakers (stable addresses; created at create()).
     * Its keys are the served model set, fixed after create().
     */
    std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
    BoundedRequestQueue queue_;
    /** Built before the scheduler / workers (both hold pointers). */
    std::unique_ptr<BrownoutController> brownout_;
    std::unique_ptr<BatchScheduler> scheduler_;
    std::vector<std::thread> threads_;

    /** Brownout tick thread (joined by stop()). */
    std::thread brownoutThread_;
    std::mutex brownoutMutex_;
    std::condition_variable brownoutCv_;
    bool brownoutStop_ = false;

    /** Events only the server sees; everything else health()
     *  reports is counted where it is decided. */
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejectedInvalid_{0};
    std::atomic<std::uint64_t> degraded_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> batchedRequests_{0};
    /** Per-outcome latencies; their counts are the outcome counts. */
    std::array<LatencyHistogram, kOutcomeCount> latency_;
    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<std::uint64_t> nextSeq_{1};

    /**
     * One engine per model version (workers acquire per batch).
     * Declared after the member its swap callback touches (breakers_),
     * so its destructor — which joins the swap thread, possibly
     * mid-callback — runs first.
     */
    std::unique_ptr<ModelRegistry> registry_;

    std::mutex lifecycle_;
    bool stopped_ = false;
};

} // namespace fastbcnn::serve

#endif // FASTBCNN_SERVE_SERVER_HPP
