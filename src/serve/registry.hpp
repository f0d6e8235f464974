/**
 * @file
 * ModelRegistry — one engine per model version, with atomic hot-swap.
 *
 * Each served model id maps to one *active* version: a single
 * calibrated engine published as a shared_ptr<const VersionedEngine>
 * that every worker shares.  A worker acquires it once per
 * micro-batch, so every request observes exactly one version and an
 * old version keeps serving in-flight batches until its last
 * shared_ptr drops — the swap is atomic per batch and drains by
 * refcount, with no lock held across engine work.  Sharing is safe
 * because a worker only calls the engine's const tryMcReference(),
 * whose forwards keep no mutable scratch.
 *
 * Swapping in a new version is the failure-isolated path:
 *
 *   1. the factory builds + warms (calibrates) one engine in the
 *      background, outside every lock;
 *   2. the candidate must pass a health gate — a deterministic
 *      reference-digest inference compared element-wise against a
 *      recorded expectation;
 *   3. only then is it published and the version flipped.
 *
 * Any failure (factory error, uncalibrated engine, shape mismatch,
 * gate miss) leaves the previous version exactly in place — rollback
 * is the no-op of never having published — and arms an exponential
 * backoff so a crash-looping artefact cannot hot-loop rebuild work.
 */

#ifndef FASTBCNN_SERVE_REGISTRY_HPP
#define FASTBCNN_SERVE_REGISTRY_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "serve/request.hpp"

namespace fastbcnn::serve {

/** Registry policy knobs (ServerOptions::registry). */
struct RegistryOptions {
    /** First-failure backoff window in ms. */
    double backoffBaseMs = 100.0;
    /** Backoff ceiling in ms (doubling stops here). */
    double backoffMaxMs = 10000.0;
};

/**
 * Validate @p opts at the API boundary.
 * @return ok, or an InvalidArgument error naming the bad value.
 */
[[nodiscard]] Status validateRegistryOptions(const RegistryOptions &opts);

/**
 * Pre-swap health gate: the candidate engine must reproduce a
 * recorded reference digest (FastBcnnEngine::tryReferenceDigest)
 * element-wise within @p epsilon before the swap publishes.  Disabled
 * by default — initial installs usually have no recorded expectation
 * yet.
 */
struct HealthGate {
    bool enabled = false;
    /** Reference input (must match the model's input shape). */
    Tensor input;
    /** Expected predictive-mean digest on @p input. */
    std::vector<double> expectedMean;
    /** Element-wise tolerance. */
    double epsilon = 1e-6;
    /** Digest sampling: MC sample count and seed (determinism pin). */
    std::size_t samples = 8;
    std::uint64_t seed = 0x9e3779b9u;
};

/** Builds one calibrated engine (once per model version). */
using EngineFactory =
    std::function<Expected<std::unique_ptr<FastBcnnEngine>>()>;

/** One candidate version of one model. */
struct ModelVersionSpec {
    /** The served model id this version belongs to. */
    std::string modelId;
    /** Monotonic version number (must exceed the active version). */
    std::uint64_t version = 1;
    /** Engine builder; called once per swap, outside all locks. */
    EngineFactory factory;
    /** Pre-swap acceptance gate. */
    HealthGate gate;
};

/** A published engine tagged with its version (shared by workers). */
struct VersionedEngine {
    std::uint64_t version = 0;
    std::unique_ptr<FastBcnnEngine> engine;
};

/** Point-in-time registry state of one model (for health()). */
struct RegistryModelHealth {
    std::string id;
    std::uint64_t activeVersion = 0;
    /** Version currently building/gating (0 = none). */
    std::uint64_t warmingVersion = 0;
    /** Successful swaps, the initial install included. */
    std::uint64_t swaps = 0;
    /** Failed swap attempts that left the old version live. */
    std::uint64_t rollbacks = 0;
    std::size_t consecutiveLoadFailures = 0;
    /** Current backoff window in ms (0 = not backing off). */
    double backoffMs = 0.0;
    /** Human-readable description of the last lifecycle event. */
    std::string lastEvent;
};

class ModelRegistry
{
  public:
    /**
     * Invoked (outside the registry lock) after each successful swap
     * with the model id — the server uses it to reset the model's
     * circuit breaker.
     */
    using SwapCallback =
        std::function<void(const std::string &model_id)>;

    /** @param opts backoff policy (must validate) */
    explicit ModelRegistry(RegistryOptions opts);

    /** Joins the background swap thread (pending swaps are failed). */
    ~ModelRegistry();

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /** Set the post-swap callback (call before the first swap). */
    void setSwapCallback(SwapCallback callback);

    /**
     * Build, warm, gate and publish @p spec synchronously.  For a new
     * model id this is the initial install; for an existing id the
     * version must exceed the active one, the input shape must match
     * (in-flight requests were admitted against it), and the model
     * must not be inside its failure backoff window (Unavailable).
     * On any error the previously active version stays published.
     */
    [[nodiscard]] Status swapNow(const ModelVersionSpec &spec);

    /**
     * Queue @p spec for the background swap thread.  The future
     * resolves with swapNow()'s status; a registry destroyed first
     * resolves it with Cancelled.
     */
    [[nodiscard]] std::future<Status> requestSwap(ModelVersionSpec spec);

    /**
     * Acquire @p model_id's active version; nullptr when the model is
     * not installed.  The returned pointer keeps the version alive
     * for as long as the caller holds it — hold it for one
     * micro-batch or one admission check, no longer.
     */
    [[nodiscard]] std::shared_ptr<const VersionedEngine> acquire(
        const std::string &model_id) const;

    /** @return installed model ids (sorted). */
    std::vector<std::string> modelIds() const;

    /** @return registry state of every model (sorted by id). */
    std::vector<RegistryModelHealth> health() const;

    /** @return registry state of @p model_id (NotFound if absent). */
    [[nodiscard]] Expected<RegistryModelHealth> modelHealth(
        const std::string &model_id) const;

  private:
    struct ModelState {
        std::shared_ptr<const VersionedEngine> active;
        std::uint64_t activeVersion() const
        {
            return active == nullptr ? 0 : active->version;
        }
        std::uint64_t warmingVersion = 0;
        std::uint64_t swaps = 0;
        std::uint64_t rollbacks = 0;
        std::size_t consecutiveLoadFailures = 0;
        double backoffMs = 0.0;
        ServeClock::time_point nextRetryAt{};
        std::string lastEvent = "never installed";
    };

    struct SwapJob {
        ModelVersionSpec spec;
        std::promise<Status> done;
    };

    /** Record a failed attempt: arm backoff, count the rollback. */
    void noteFailure(const std::string &model_id, std::uint64_t version,
                     const std::string &what);

    RegistryModelHealth healthOf(const std::string &id,
                                 const ModelState &state) const;

    void swapLoop();

    const RegistryOptions opts_;
    SwapCallback onSwap_;

    mutable std::mutex mutex_;
    std::map<std::string, ModelState> models_;

    std::mutex jobsMutex_;
    std::condition_variable jobsCv_;
    std::deque<SwapJob> jobs_;
    bool stopping_ = false;
    std::thread swapThread_;
};

} // namespace fastbcnn::serve

#endif // FASTBCNN_SERVE_REGISTRY_HPP
